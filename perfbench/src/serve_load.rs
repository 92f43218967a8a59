//! `serve_socket`: `serve::server::serve` in-process on a Unix socket
//! with `nproc` workers, driven by `nproc` closed-loop clients that each
//! call `submit_once` per request, as `mio submit --client NAME` does.
//!
//! The seeded request stream is mostly Figure 8 points at scale 16 over
//! many trace seeds (so the engine generates traces on the request path),
//! with an 8×16 campaign every few rounds. Each distinct request is sent
//! twice within a shuffled round, so responses are computed, coalesced
//! or served from the result cache.

use crate::campaign;
use crate::common::{
    digest, ensure_program_tracing_off, insert_op_metrics, insert_setup_and_memory, repeat_setup,
    Ctx, Outcome, Phases, SimCounts,
};
use crate::fig8::{self, grid, point_traced, Layers};
use crate::spans::{self, span, span_timed};
use crate::stats::{histogram_quantile, median, ratio, samples_needed, straggler_ratio, Rng};
use experiments::{par_sweep, thread_count, CampaignSpec, Scale, StoreConfig, TraceStore};
use iosim::{ClusterReport, SimReport};
use serde::Value;
use serve::engine::execute;
use serve::{
    submit_once, CampaignPointSpec, Endpoint, EngineConfig, Fig8PointSpec, Request, RequestBody,
    ServeOptions,
};
use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SETUPS: usize = 5;
/// Trace scale of every request.
const SCALE: u32 = 16;
/// Distinct trace seeds the Figure 8 requests draw from.
const SEED_POOL: usize = 128;
/// Distinct requests per shuffled round; each is sent twice.
const ROUND_DISTINCT: usize = 16;
/// Every this many rounds, one distinct request is a campaign. The
/// campaigns cycle through one seed at each shard count, so a run of
/// 1000 requests computes about four slow campaign answers: well under
/// 1 %, which keeps the p99 inside the Figure 8 tail instead of on the
/// edge between the two populations.
const CAMPAIGN_EVERY: usize = 8;
const CAMPAIGN_GROUPS: usize = 8;
const CAMPAIGN_PROCS: usize = 16;
/// Engine limits, as `mio serve` defaults them.
const MAX_INFLIGHT: usize = 256;
const RESULT_CACHE: usize = 512;
/// A run that cannot reach the p99 sample count stops here.
const HARD_CAP: Duration = Duration::from_secs(120);

/// The seeded, endless request stream shared by the clients.
struct Stream {
    rng: Rng,
    bodies: Vec<RequestBody>,
    fig8: Vec<Fig8PointSpec>,
    campaigns: Vec<CampaignPointSpec>,
    queue: VecDeque<usize>,
    rounds: usize,
    next_id: u64,
}

impl Stream {
    fn new(seed: u64, nproc: usize) -> Stream {
        let mut rng = Rng::new(seed);
        let seeds: Vec<u64> = (0..SEED_POOL).map(|_| rng.next_u64() % 1_000_000).collect();
        let mut fig8: Vec<Fig8PointSpec> = seeds
            .iter()
            .flat_map(|&seed| {
                grid().into_iter().map(move |(cache_mb, block)| Fig8PointSpec {
                    cache_mb,
                    block,
                    scale: SCALE,
                    seed,
                })
            })
            .collect();
        rng.shuffle(&mut fig8);
        let campaign_seed = rng.next_u64() % 1_000_000;
        let campaigns = (1..=nproc)
            .map(|shards| CampaignPointSpec {
                groups: CAMPAIGN_GROUPS,
                procs: CAMPAIGN_PROCS,
                shards,
                scale: SCALE,
                seed: campaign_seed,
            })
            .collect();
        Stream {
            rng,
            bodies: Vec::new(),
            fig8,
            campaigns,
            queue: VecDeque::new(),
            rounds: 0,
            next_id: 1,
        }
    }

    /// The next request: its id, the index of its body, and the body.
    fn next(&mut self) -> (u64, usize, RequestBody) {
        if self.queue.is_empty() {
            let mut round = Vec::with_capacity(2 * ROUND_DISTINCT);
            for k in 0..ROUND_DISTINCT {
                let body = if k == 0 && self.rounds % CAMPAIGN_EVERY == CAMPAIGN_EVERY - 1 {
                    let c = &self.campaigns[(self.rounds / CAMPAIGN_EVERY) % self.campaigns.len()];
                    RequestBody::Campaign(c.clone())
                } else {
                    RequestBody::Fig8Point(self.fig8[self.bodies.len() % self.fig8.len()].clone())
                };
                let idx = match self.bodies.iter().position(|b| *b == body) {
                    Some(i) => i,
                    None => {
                        self.bodies.push(body);
                        self.bodies.len() - 1
                    }
                };
                round.extend([idx, idx]);
            }
            self.rng.shuffle(&mut round);
            self.queue.extend(round);
            self.rounds += 1;
        }
        let idx = self.queue.pop_front().expect("round refilled");
        self.next_id += 1;
        (self.next_id - 1, idx, self.bodies[idx].clone())
    }
}

/// What one client saw for one request.
struct Sample {
    body: usize,
    round_trip_s: f64,
    /// The body's earlier copy had already been answered when this one
    /// was sent, so a `cached` answer is a result-cache hit.
    repeat_after_answer: bool,
    result: Result<Answer, String>,
}

struct Answer {
    cached: bool,
    digest: u64,
    ios: u64,
}

fn answer(resp: serve::Response) -> Result<Answer, String> {
    match (resp.event.as_str(), resp.result) {
        ("done", Some(v)) => {
            let ios = match v.get("ios_issued") {
                Some(Value::U64(n)) => *n,
                _ => v.get("processes").and_then(Value::as_seq).map_or(0, |ps| {
                    ps.iter()
                        .filter_map(|p| match p.get("ios_issued") {
                            Some(Value::U64(n)) => Some(*n),
                            _ => None,
                        })
                        .sum()
                }),
            };
            Ok(Answer { cached: resp.cached == Some(true), digest: digest(&v), ios })
        }
        (event, _) => Err(format!("{event}: {}", resp.error.unwrap_or_default())),
    }
}

/// A running in-process daemon; dropping it shuts it down.
struct Server {
    endpoint: Endpoint,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Server {
    /// Start `serve` on a thread and wait until it answers a request.
    fn start(ctx: &Ctx, socket: PathBuf) -> Result<Server, String> {
        let endpoint = Endpoint::Unix(socket);
        let opts = ServeOptions {
            endpoint: endpoint.clone(),
            engine: EngineConfig {
                workers: ctx.nproc,
                max_inflight: MAX_INFLIGHT,
                result_cache: RESULT_CACHE,
                store: StoreConfig {
                    mem_budget: None,
                    spill_dir: Some(ctx.dir.join("serve-store")),
                },
            },
            drain_timeout: Duration::from_secs(30),
        };
        let thread = std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn(move || serve::serve(&opts))
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut server = Server { endpoint, thread: Some(thread) };
        let t0 = Instant::now();
        loop {
            match server.control(RequestBody::Stats) {
                Ok(_) => return Ok(server),
                Err(e) if t0.elapsed() > Duration::from_secs(10) || server.exited() => {
                    let _ = server.stop();
                    return Err(format!("server did not come up: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    fn control(&self, body: RequestBody) -> Result<Value, String> {
        let resp = submit_once(&self.endpoint, &Request { id: 0, client: None, body })?;
        match (resp.event.as_str(), resp.result) {
            ("done", Some(v)) => Ok(v),
            (event, _) => Err(format!("{event}: {}", resp.error.unwrap_or_default())),
        }
    }

    fn exited(&self) -> bool {
        self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Graceful shutdown over the socket; waits for the server thread.
    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else { return Ok(()) };
        if self.control(RequestBody::Shutdown).is_err() {
            serve::request_shutdown();
        }
        thread.join().map_err(|_| "server thread panicked".to_string())?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("serve_socket: server stopped with an error: {e}");
        }
    }
}

/// Closed-loop clients until the window has passed and at least
/// `min_requests` answers are in (or [`HARD_CAP`]).
fn drive(
    ctx: &Ctx,
    server: &Server,
    stream: &Mutex<Stream>,
    window: f64,
    min_requests: usize,
    traced: bool,
) -> (Vec<Sample>, f64) {
    let answered = Mutex::new(HashSet::new());
    let done = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..ctx.nproc {
            let (answered, done, samples) = (&answered, &done, &samples);
            let parent = spans::current();
            scope.spawn(move || {
                let client = format!("client{w}");
                loop {
                    let elapsed = t0.elapsed();
                    let enough = elapsed.as_secs_f64() >= window
                        && done.load(Ordering::Relaxed) >= min_requests;
                    if enough || elapsed >= HARD_CAP {
                        break;
                    }
                    let (id, body_idx, body) = stream.lock().expect("stream lock").next();
                    let repeat_after_answer =
                        answered.lock().expect("answered lock").contains(&body_idx);
                    let req = Request { id, client: Some(client.clone()), body };
                    let t = Instant::now();
                    let resp = if traced {
                        spans::adopt(parent, || {
                            span("serve.submit_once", Some(id), || {
                                submit_once(&server.endpoint, &req)
                            })
                        })
                    } else {
                        submit_once(&server.endpoint, &req)
                    };
                    let round_trip_s = t.elapsed().as_secs_f64();
                    let result = resp.and_then(answer);
                    if result.is_ok() {
                        answered.lock().expect("answered lock").insert(body_idx);
                    }
                    samples.lock().expect("samples lock").push(Sample {
                        body: body_idx,
                        round_trip_s,
                        repeat_after_answer,
                        result,
                    });
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let window_s = t0.elapsed().as_secs_f64();
    (samples.into_inner().expect("samples lock"), window_s)
}

/// `(upper edge seconds, cumulative count)` buckets of one histogram
/// family in a Prometheus exposition, summed over its label sets.
fn buckets(samples: &[obs::metrics::Sample], family: &str) -> Vec<(f64, f64)> {
    let name = format!("{family}_bucket");
    let mut by_edge: Vec<(f64, f64)> = Vec::new();
    for s in samples.iter().filter(|s| s.name == name) {
        let Some((_, le)) = s.labels.iter().find(|(k, _)| k == "le") else { continue };
        let edge = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::INFINITY) };
        match by_edge.iter_mut().find(|(e, _)| *e == edge) {
            Some(slot) => slot.1 += s.value,
            None => by_edge.push((edge, s.value)),
        }
    }
    by_edge.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_edge
}

fn stat(stats: &Value, key: &str) -> f64 {
    match stats.get(key) {
        Some(Value::U64(n)) => *n as f64,
        _ => 0.0,
    }
}

/// A one-shot report, as the traced reference pass keeps it.
enum Report {
    Point(SimReport),
    Campaign(ClusterReport),
}

/// One-shot reference for one body: `execute` untraced; the same
/// computation split at the layer boundaries when traced, which also
/// returns the report and its layer and generation times.
fn reference(
    store: &TraceStore,
    body: &RequestBody,
    traced: bool,
) -> (u64, Option<(Report, Layers, f64)>) {
    if !traced {
        return (digest(&span("serve.execute", None, || execute(store, body))), None);
    }
    span("serve.execute", None, || match body {
        RequestBody::Fig8Point(p) => {
            let generate_s = fig8::generate(store, Scale(p.scale), p.seed);
            let (r, layers) = point_traced(store, (p.cache_mb, p.block), Scale(p.scale), p.seed);
            (digest(&r), Some((Report::Point(r), layers, generate_s)))
        }
        RequestBody::Campaign(c) => {
            let mut spec = CampaignSpec::datacenter(c.groups, c.procs);
            spec.scale = Scale(c.scale);
            spec.seed = c.seed;
            let generate_s: f64 = campaign::app_slots(&spec)
                .into_iter()
                .map(|(pid, kind)| {
                    span_timed("workload.generate", None, || {
                        store.artifact(kind, pid, spec.seed, spec.scale)
                    })
                    .1
                })
                .sum();
            let (r, layers) = campaign::campaign_traced(store, &spec, c.shards.max(1));
            (digest(&r), Some((Report::Campaign(r), layers, generate_s)))
        }
        other => unreachable!("control request {other:?} in the stream"),
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let socket = ctx.dir.join("serve.sock");
    // Each repetition's server is shut down before the next one starts.
    let (setups, mut server) = repeat_setup(SETUPS, |_| Server::start(ctx, socket.clone()))
        .map_err(|e| format!("setup: {e}"))?;
    ensure_program_tracing_off()?;
    let stream = Mutex::new(Stream::new(ctx.seed, ctx.nproc));

    let min_requests = if ctx.trace { 0 } else { samples_needed(99.0) };
    let window = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut ops = Phases::default();
    let (mut samples, window_s) = span("bench.untraced", None, || {
        ops.measure(|| drive(ctx, &server, &stream, window, min_requests, false))
    });
    let untraced_rt = median(&samples.iter().map(|s| s.round_trip_s).collect::<Vec<_>>());
    let mut traced_rt = 0.0;
    if ctx.trace {
        let (more, _) = span("bench.timed", None, || drive(ctx, &server, &stream, window, 0, true));
        traced_rt = median(&more.iter().map(|s| s.round_trip_s).collect::<Vec<_>>());
        samples.extend(more);
    }
    ensure_program_tracing_off()?;
    // Collect the engine's counters, stop the server, then check every
    // answer against a one-shot computation of its body.
    let bodies = stream.into_inner().expect("stream lock").bodies;
    let mut served: Vec<usize> =
        samples.iter().filter(|s| s.result.is_ok()).map(|s| s.body).collect();
    served.sort_unstable();
    served.dedup();
    let ref_store = TraceStore::with_config(StoreConfig {
        mem_budget: None,
        spill_dir: Some(ctx.dir.join("reference-store")),
    });
    let (stats, exposition, references) = span("bench.verify", None, || {
        let stats = server.control(RequestBody::Stats)?;
        let exposition = match server.control(RequestBody::Metrics)? {
            Value::Str(text) => text,
            other => return Err(format!("metrics payload is not text: {other:?}")),
        };
        server.stop()?;
        let (references, sweep_s) = span_timed("experiments.par_sweep", None, || {
            let parent = spans::current();
            par_sweep(&served, |&i| {
                spans::adopt(parent, || {
                    span_timed("experiments.point", None, || {
                        reference(&ref_store, &bodies[i], ctx.trace)
                    })
                })
            })
        });
        Ok((stats, exposition, (references, sweep_s)))
    })?;
    let (references, sweep_s) = references;
    let reference_walls: Vec<f64> = references.iter().map(|r| r.1).collect();
    let references: Vec<_> = references.into_iter().map(|r| r.0).collect();
    let mut computed_ios = 0u64;
    for s in &samples {
        let ok = match &s.result {
            Ok(a) => {
                let k = served.binary_search(&s.body).expect("answered bodies are referenced");
                if !a.cached {
                    computed_ios += a.ios;
                }
                a.digest == references[k].0
            }
            Err(e) => {
                eprintln!("serve_socket: request for body {} failed: {e}", s.body);
                false
            }
        };
        out.check(ok);
    }
    let answered: Vec<&Sample> = samples.iter().filter(|s| s.result.is_ok()).collect();
    let latencies: Vec<f64> = answered.iter().map(|s| s.round_trip_s).collect();
    out.notes.push(format!(
        "{} requests ({} distinct bodies, {} answered) from {} clients to {} workers, \
         {window_s:.2} s untraced; {} setups",
        samples.len(),
        served.len(),
        answered.len(),
        ctx.nproc,
        ctx.nproc,
        setups.secs.len()
    ));
    if !ctx.trace {
        insert_setup_and_memory(&mut out, &setups, &ops);
        out.metrics.insert("sim_ios_per_s", computed_ios as f64 / window_s);
        insert_op_metrics(&mut out, &latencies, window_s);
        return Ok(out);
    }

    let m = &mut out.metrics;
    let mut counts = SimCounts::default();
    let mut layers = Layers::default();
    let mut generate_s = 0.0;
    for (_, detail) in &references {
        let Some((report, l, g)) = detail else { continue };
        generate_s += g;
        layers.add(l);
        match report {
            Report::Point(r) => counts.add_single(r),
            Report::Campaign(r) => counts.add_cluster(r),
        }
    }
    counts.insert(m);
    m.insert("workload.generate_s", generate_s);
    m.insert("experiments.store_feed_s", layers.feed_s);
    m.insert("experiments.store_peak_mb", stat(&stats, "trace_store_peak_bytes") / 1048576.0);
    m.insert(
        "experiments.sweep_straggler_ratio",
        straggler_ratio(sweep_s, &reference_walls, thread_count().min(reference_walls.len())),
    );
    m.insert("simulator.build_s", layers.build_s);
    m.insert("simulator.run_ns_per_io", layers.run_s * 1e9 / counts.ios().max(1) as f64);
    let parsed = obs::metrics::parse_exposition(&exposition)?;
    for (family, p50, p99) in [
        ("serve_queue_wait_seconds", "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms"),
        ("serve_service_time_seconds", "serve.service_p50_ms", "serve.service_p99_ms"),
    ] {
        let b = buckets(&parsed, family);
        m.insert(p50, histogram_quantile(&b, 0.50) * 1e3);
        m.insert(p99, histogram_quantile(&b, 0.99) * 1e3);
    }
    let hits: Vec<f64> = answered
        .iter()
        .filter(|s| s.repeat_after_answer && s.result.as_ref().is_ok_and(|a| a.cached))
        .map(|s| s.round_trip_s)
        .collect();
    m.insert("serve.hit_round_trip_p50_ms", median(&hits) * 1e3);
    let submitted = stat(&stats, "submitted");
    m.insert("serve.cache_hit_ratio", ratio(stat(&stats, "cache_hits"), submitted));
    m.insert("serve.coalesce_ratio", ratio(stat(&stats, "coalesced"), submitted));
    m.insert(
        "serve.rejected",
        stat(&stats, "rejected_queue_full") + stat(&stats, "rejected_shutting_down"),
    );
    m.insert("trace.overhead_ratio", traced_rt / untraced_rt - 1.0);
    Ok(out)
}
