//! The `mio serve` daemon: JSON lines over a Unix or TCP socket, backed
//! by the [`Engine`], plus the matching `mio submit` client helper.
//!
//! Each connection gets one thread on a blocking socket. It reads one
//! request line and answers it in full — an `accepted` line, `progress`
//! heartbeats while it waits or runs, and one terminal `done`/`error`
//! line — before it reads the next, so lines pipelined on one
//! connection are answered in order. Concurrency comes from opening
//! more connections. A request line longer than `MAX_REQUEST_BYTES`
//! (64 KiB) gets one `error` line, and then the connection closes.
//!
//! The listener is nonblocking: the accept loop takes every pending
//! connection, then sleeps `POLL_INTERVAL` (50 ms) and checks the
//! shutdown latch, so a new connection waits up to that long to be
//! accepted.
//!
//! Shutdown is graceful: SIGINT, SIGTERM, a [`RequestBody::Shutdown`]
//! request or [`request_shutdown`] sets the latch and stops the accept
//! loop. The daemon then refuses new submissions with a clean JSON
//! error, drains in-flight work bounded by `--drain-timeout`, ends idle
//! connections by closing their read side, and only then returns (the
//! `mio` binary flushes the flight recorder after [`serve`] returns).

use crate::engine::{Engine, EngineConfig, Ticket};
use crate::protocol::{Request, RequestBody, Response};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the daemon listens (and the client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path (`--socket PATH`).
    Unix(PathBuf),
    /// A TCP listen/connect address like `127.0.0.1:7070` (`--tcp ADDR`).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// `mio serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    pub endpoint: Endpoint,
    pub engine: EngineConfig,
    /// How long shutdown waits for in-flight requests before abandoning
    /// the queue.
    pub drain_timeout: Duration,
}

/// Heartbeat cadence for queued/running requests.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);
/// Poll granularity of the accept loop, which also watches the shutdown
/// latch.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// Longest request line accepted, newline included. The largest real
/// request is under 200 bytes.
const MAX_REQUEST_BYTES: u64 = 64 * 1024;

/// Process-wide shutdown latch, set by SIGINT/SIGTERM or a `Shutdown`
/// request.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Ask the running server (in this process) to shut down gracefully.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn shutting_down() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod sig {
    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: flip the latch, nothing else.
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        // SAFETY: `signal(2)` with a valid signal number and an
        // `extern "C"` handler that only stores to an atomic, which is
        // async-signal-safe; the previous handler is not needed.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

/// A connected socket of either transport.
trait Socket: Read + Write + Send {
    fn try_clone_socket(&self) -> std::io::Result<Box<dyn Socket>>;
    fn shutdown_socket(&self, how: Shutdown) -> std::io::Result<()>;
}

impl Socket for TcpStream {
    fn try_clone_socket(&self) -> std::io::Result<Box<dyn Socket>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_socket(&self, how: Shutdown) -> std::io::Result<()> {
        self.shutdown(how)
    }
}

#[cfg(unix)]
impl Socket for UnixStream {
    fn try_clone_socket(&self) -> std::io::Result<Box<dyn Socket>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_socket(&self, how: Shutdown) -> std::io::Result<()> {
        self.shutdown(how)
    }
}

fn connect(endpoint: &Endpoint) -> Result<Box<dyn Socket>, String> {
    match endpoint {
        #[cfg(unix)]
        Endpoint::Unix(path) => match UnixStream::connect(path) {
            Ok(s) => Ok(Box::new(s)),
            Err(e) => Err(format!("connect {}: {e}", path.display())),
        },
        #[cfg(not(unix))]
        Endpoint::Unix(path) => Err(format!("unix sockets unsupported here: {}", path.display())),
        Endpoint::Tcp(addr) => match TcpStream::connect(addr.as_str()) {
            Ok(s) => Ok(Box::new(s)),
            Err(e) => Err(format!("connect {addr}: {e}")),
        },
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `endpoint` with a nonblocking listener.
    fn bind(endpoint: &Endpoint) -> std::io::Result<Listener> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A stale socket file from a killed daemon blocks bind;
                // remove it (connect() would have failed for a live one
                // anyway — single-daemon-per-path).
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(std::io::ErrorKind::Unsupported.into()),
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// A pending connection, set blocking (some platforms pass on the
    /// listener's mode); `WouldBlock` when none is pending.
    fn accept(&self) -> std::io::Result<Box<dyn Socket>> {
        Ok(match self {
            #[cfg(unix)]
            Listener::Unix(l) => {
                let s = l.accept()?.0;
                s.set_nonblocking(false)?;
                Box::new(s)
            }
            Listener::Tcp(l) => {
                let s = l.accept()?.0;
                s.set_nonblocking(false)?;
                Box::new(s)
            }
        })
    }
}

/// Serialize one response as a single JSON line.
fn write_response(w: &mut dyn Write, resp: &Response) {
    let mut line = serde_json::to_string(resp).unwrap_or_else(|e| {
        serde_json::to_string(&Response::error(resp.id, format!("serialize: {e}")))
            .expect("error response serializes")
    });
    line.push('\n');
    // A vanished client is not a server error; drop the line.
    let _ = w.write_all(line.as_bytes());
}

/// Run the daemon until a shutdown signal/request arrives, then drain
/// and return. This is `mio serve`.
pub fn serve(opts: &ServeOptions) -> Result<(), String> {
    sig::install();
    SHUTDOWN.store(false, Ordering::SeqCst);
    let engine = Arc::new(Engine::new(opts.engine.clone()));
    let listener =
        Listener::bind(&opts.endpoint).map_err(|e| format!("bind {}: {e}", opts.endpoint))?;
    eprintln!(
        "mio serve: listening on {} ({} workers, max inflight {})",
        opts.endpoint, opts.engine.workers, opts.engine.max_inflight
    );

    let mut conns = Vec::new();
    let accepted = accept_loop(listener, &engine, &mut conns);

    // Graceful drain: refuse new work, let queued/running jobs finish
    // (bounded), then resolve anything left so no client waits forever.
    eprintln!("mio serve: shutting down, draining in-flight requests");
    engine.begin_shutdown();
    if !engine.drain(opts.drain_timeout) {
        eprintln!(
            "mio serve: drain timeout ({:?}) exceeded, abandoning queued requests",
            opts.drain_timeout
        );
        engine.abort_pending();
    }
    // Every ticket is resolved now: each connection writes its last
    // answer, then reads EOF.
    for (socket, thread) in conns {
        // A client that already left makes this fail, which changes
        // nothing.
        let _ = socket.shutdown_socket(Shutdown::Read);
        let _ = thread.join();
    }
    if let Endpoint::Unix(path) = &opts.endpoint {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("mio serve: done ({} requests completed)", engine.completed());
    accepted
}

/// Give each accepted connection its own thread until the shutdown latch
/// is set, then close the listener. `conns` keeps a handle on every live
/// connection so shutdown can end idle ones.
fn accept_loop(
    listener: Listener,
    engine: &Arc<Engine>,
    conns: &mut Vec<(Box<dyn Socket>, JoinHandle<()>)>,
) -> Result<(), String> {
    let mut seq = 0u64;
    while !shutting_down() {
        let socket = match listener.accept() {
            Ok(socket) => socket,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
            Err(e) => return Err(format!("accept: {e}")),
        };
        conns.retain(|(_, thread)| !thread.is_finished());
        let handle = socket.try_clone_socket().map_err(|e| format!("clone connection: {e}"))?;
        let engine = Arc::clone(engine);
        let name = format!("conn{seq}");
        let thread = std::thread::Builder::new()
            .name(format!("serve-{name}"))
            .spawn(move || handle_connection(socket, &engine, &name))
            .map_err(|e| format!("spawn connection thread: {e}"))?;
        conns.push((handle, thread));
        seq += 1;
    }
    Ok(())
}

/// Answer request lines one at a time, in order, until EOF, a read error
/// or an oversized line.
fn handle_connection(socket: Box<dyn Socket>, engine: &Engine, default_client: &str) {
    let mut reader = BufReader::new(socket);
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.by_ref().take(MAX_REQUEST_BYTES + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(n) if n as u64 > MAX_REQUEST_BYTES => {
                let msg = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                write_response(reader.get_mut(), &Response::error(0, msg));
                // Send FIN before the close: the client reads the error,
                // then EOF, although its unread bytes make the close a
                // reset.
                let _ = reader.get_ref().shutdown_socket(Shutdown::Write);
                return;
            }
            Ok(_) => {}
        }
        let text = String::from_utf8_lossy(&line);
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        let writer = reader.get_mut();
        match serde_json::from_str::<Request>(text) {
            Ok(req) => handle_request(req, engine, writer, default_client),
            Err(e) => write_response(writer, &Response::error(0, format!("parse: {e}"))),
        }
    }
}

/// Answer one request in full: control requests inline; a runnable one
/// with `accepted`, progress heartbeats until its ticket resolves, the
/// terminal line and one structured key=value completion log line.
fn handle_request(req: Request, engine: &Engine, writer: &mut dyn Write, default_client: &str) {
    let id = req.id;
    let client = match req.client.as_deref() {
        Some(name) if !name.is_empty() => name,
        _ => default_client,
    };
    let ticket = match &req.body {
        RequestBody::Stats => {
            return write_response(writer, &Response::done(id, engine.stats_value(), false));
        }
        RequestBody::Metrics => {
            let text = Value::Str(engine.prometheus_text());
            return write_response(writer, &Response::done(id, text, false));
        }
        RequestBody::Shutdown => {
            write_response(writer, &Response::done(id, Value::Null, false));
            return request_shutdown();
        }
        body => match engine.submit(client, body) {
            Ok(ticket) => ticket,
            Err(e) => {
                eprintln!(
                    "serve: request id={id} client={client} disposition=rejected error=\"{e}\""
                );
                return write_response(writer, &Response::error(id, e.to_string()));
            }
        },
    };
    write_response(writer, &Response::accepted(id));
    let expected_us = engine.expected_service_us(&req.body);
    let accepted = std::time::Instant::now();
    let ev0 = obs::sim_events_total();
    loop {
        match ticket.wait_timeout(PROGRESS_INTERVAL) {
            Some(Ok(value)) => {
                write_response(writer, &Response::done(id, value.as_ref().clone(), ticket.cached));
                return log_completion(id, client, &ticket, accepted.elapsed(), "done");
            }
            Some(Err(e)) => {
                write_response(writer, &Response::error(id, e));
                return log_completion(id, client, &ticket, accepted.elapsed(), "error");
            }
            None => {
                let elapsed = accepted.elapsed();
                let rate =
                    obs::sim_events_total().saturating_sub(ev0) as f64 / elapsed.as_secs_f64();
                // ETA from the mean service time of this request type;
                // None until the engine has history for it.
                let eta = expected_us
                    .map(|us| Duration::from_micros(us).saturating_sub(elapsed).as_secs());
                write_response(writer, &Response::progress(id, rate, eta));
            }
        }
    }
}

/// One key=value line per completed request: correlation id, client,
/// how the result was obtained, and where its time went. Queue/service
/// durations come from the execution that produced the result, so a
/// coalesced ticket reports the shared flight's numbers; a cache hit
/// (no execution) reports none.
fn log_completion(id: u64, client: &str, ticket: &Ticket, total: Duration, outcome: &str) {
    let disposition = match (ticket.cached, ticket.coalesced) {
        (true, true) => "coalesced",
        (true, false) => "cache_hit",
        _ => "computed",
    };
    match ticket.timing() {
        Some(t) => eprintln!(
            "serve: request id={id} client={client} disposition={disposition} \
             outcome={outcome} queue_wait_us={} service_us={} total_us={}",
            t.queue_wait.as_micros(),
            t.service.as_micros(),
            total.as_micros(),
        ),
        None => eprintln!(
            "serve: request id={id} client={client} disposition={disposition} \
             outcome={outcome} total_us={}",
            total.as_micros(),
        ),
    }
}

/// `mio submit`: send one request, return its terminal response. Waits
/// through `progress` heartbeats (echoed to stderr when `--progress` is
/// on) and ignores responses for other ids.
pub fn submit_once(endpoint: &Endpoint, req: &Request) -> Result<Response, String> {
    let mut socket = connect(endpoint)?;
    let mut line = serde_json::to_string(req).map_err(|e| format!("serialize request: {e}"))?;
    line.push('\n');
    socket.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;

    let mut reader = BufReader::new(socket);
    let mut buf = String::new();
    loop {
        buf.clear();
        let n = reader.read_line(&mut buf).map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            return Err("server closed the connection before answering".into());
        }
        let text = buf.trim();
        if text.is_empty() {
            continue;
        }
        let resp: Response =
            serde_json::from_str(text).map_err(|e| format!("parse response: {e}"))?;
        if resp.id != req.id {
            continue;
        }
        match resp.event.as_str() {
            "accepted" => {}
            "progress" => {
                // Same shape as the sweep heartbeat:
                // `[sweep] 3/9 points | 1.24M ev/s | ETA 4s`.
                if experiments::progress_enabled() {
                    let rate = resp.rate.unwrap_or(0.0);
                    let eta = match resp.eta_secs {
                        Some(s) => format!("{s}s"),
                        None => "?".into(),
                    };
                    eprintln!(
                        "[submit] request {} | {:.2}M ev/s | ETA {eta}",
                        req.id,
                        rate / 1e6
                    );
                }
            }
            _ => return Ok(resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Fig8PointSpec;
    use experiments::StoreConfig;
    use std::sync::{mpsc, Mutex, MutexGuard};

    /// `SHUTDOWN` is process-global, so the daemons these tests start
    /// run one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn loopback_options() -> ServeOptions {
        ServeOptions {
            // Port 0: the OS picks a free port — but we need to know it,
            // so tests bind a throwaway listener first to reserve one.
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            engine: EngineConfig {
                workers: 2,
                max_inflight: 8,
                result_cache: 8,
                store: StoreConfig::default(),
            },
            drain_timeout: Duration::from_secs(30),
        }
    }

    fn free_port() -> u16 {
        TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr").port()
    }

    /// A daemon on a free loopback port, returned once it accepts
    /// connections.
    fn start() -> (String, JoinHandle<Result<(), String>>) {
        let mut opts = loopback_options();
        let addr = format!("127.0.0.1:{}", free_port());
        opts.endpoint = Endpoint::Tcp(addr.clone());
        let server = std::thread::spawn(move || serve(&opts));
        for _ in 0..200 {
            if TcpStream::connect(addr.as_str()).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        (addr, server)
    }

    /// Run `f` on its own thread and panic if it takes longer than
    /// `secs`, so a regression fails instead of hanging the suite.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(secs)).expect("finished in time")
    }

    fn point(cache_mb: u64) -> RequestBody {
        RequestBody::Fig8Point(Fig8PointSpec { cache_mb, block: 4096, scale: 64, seed: 42 })
    }

    fn send(endpoint: &Endpoint, id: u64, body: RequestBody) -> Response {
        submit_once(endpoint, &Request { id, client: None, body }).expect("daemon answers")
    }

    fn stop(endpoint: &Endpoint, server: JoinHandle<Result<(), String>>) {
        assert_eq!(send(endpoint, 0, RequestBody::Shutdown).event, "done");
        within(30, move || server.join()).expect("server thread").expect("clean exit");
    }

    fn pretty(value: Option<Value>) -> String {
        serde_json::to_string_pretty(&value.expect("payload")).expect("print")
    }

    #[test]
    fn serve_answers_and_shuts_down_over_tcp() {
        let _serial = serial();
        let (addr, server) = start();
        let endpoint = Endpoint::Tcp(addr);
        let body = point(8);
        let resp = send(&endpoint, 1, body.clone());
        assert_eq!(resp.event, "done");
        assert_eq!(resp.cached, Some(false));
        // Same point again: served from the result cache, byte-identical.
        let again = send(&endpoint, 2, body);
        assert_eq!(again.cached, Some(true));
        assert_eq!(pretty(resp.result), pretty(again.result));

        // Stats request reports the hit.
        let stats = send(&endpoint, 3, RequestBody::Stats).result.expect("stats payload");
        assert_eq!(stats.get("cache_hits"), Some(&Value::U64(1)));

        // Graceful shutdown over the wire.
        stop(&endpoint, server);
    }

    #[test]
    fn an_idle_connection_does_not_hold_up_shutdown() {
        let _serial = serial();
        for via_request in [true, false] {
            let (addr, server) = start();
            let endpoint = Endpoint::Tcp(addr.clone());
            let mut idle = TcpStream::connect(addr.as_str()).expect("connect");
            // Connections are accepted in order: once this is answered,
            // the idle one has its thread.
            assert_eq!(send(&endpoint, 1, RequestBody::Stats).event, "done");
            if via_request {
                stop(&endpoint, server);
            } else {
                request_shutdown();
                within(30, move || server.join()).expect("server thread").expect("clean exit");
            }
            let mut rest = Vec::new();
            idle.read_to_end(&mut rest).expect("clean close");
            assert!(rest.is_empty(), "the idle client reads EOF");
        }
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let _serial = serial();
        let (addr, server) = start();
        let endpoint = Endpoint::Tcp(addr.clone());
        let bodies = [point(4), point(16)];
        let lines: String = (1..)
            .zip(&bodies)
            .map(|(id, body)| {
                let req = Request { id, client: None, body: body.clone() };
                serde_json::to_string(&req).expect("serialize") + "\n"
            })
            .collect();
        let mut conn = TcpStream::connect(addr.as_str()).expect("connect");
        conn.write_all(lines.as_bytes()).expect("send both before reading");
        let answers = within(120, move || {
            let mut reader = BufReader::new(conn);
            let mut answers = Vec::new();
            let mut buf = String::new();
            while answers.iter().filter(|r: &&Response| r.event == "done").count() < 2 {
                buf.clear();
                assert_ne!(reader.read_line(&mut buf).expect("read"), 0, "early EOF");
                let resp: Response = serde_json::from_str(buf.trim()).expect("response line");
                if resp.event != "progress" {
                    answers.push(resp);
                }
            }
            answers
        });
        let order: Vec<(u64, &str)> = answers.iter().map(|r| (r.id, r.event.as_str())).collect();
        assert_eq!(order, [(1, "accepted"), (1, "done"), (2, "accepted"), (2, "done")]);
        let done = answers.into_iter().filter(|r| r.event == "done");
        for (resp, body) in done.zip(bodies) {
            assert_eq!(pretty(resp.result), pretty(send(&endpoint, 9, body).result));
        }
        stop(&endpoint, server);
    }

    #[test]
    fn an_oversized_line_gets_one_error_then_eof() {
        let _serial = serial();
        let (addr, server) = start();
        let endpoint = Endpoint::Tcp(addr.clone());
        let conn = TcpStream::connect(addr.as_str()).expect("connect");
        let mut writer = conn.try_clone().expect("clone");
        // The daemon stops reading at the cap, so this write may fail
        // part-way; it runs apart from the reader.
        std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 1 << 20]);
        });
        let (first, rest) = within(60, move || {
            let mut reader = BufReader::new(conn);
            let mut first = String::new();
            reader.read_line(&mut first).expect("error line");
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).expect("clean close");
            (first, rest)
        });
        let resp: Response = serde_json::from_str(first.trim()).expect("response line");
        assert_eq!(resp.event, "error");
        assert!(resp.error.expect("message").contains("exceeds"), "{first}");
        assert!(rest.is_empty(), "EOF after the one error line");
        // The daemon still answers a new connection.
        assert_eq!(send(&endpoint, 1, RequestBody::Stats).event, "done");
        stop(&endpoint, server);
    }
}
