//! `mio` — command-line front end to the Miller-1991 reproduction.
//!
//! ```text
//! mio apps                                   list the calibrated applications
//! mio generate venus [--seed 42] [--scale 8] [-o venus.trace]
//! mio analyze venus.trace                    §5-style characterization
//! mio translate venus.trace [-o phys.trace]  logical -> physical expansion
//! mio simulate a.trace b.trace [--cache 128|ssd|none]
//!              [--policy behind|through|sprite] [--no-readahead] [--cpus 1]
//! mio serve --socket mio.sock [--workers N] ...    simulation-as-a-service
//! mio submit --socket mio.sock --fig8-point 32:4096 [--json out.json]
//! mio stats --socket mio.sock [--prom]             daemon metrics
//! ```
//!
//! Traces are the paper's compressed ASCII format; `-` means stdout.
//!
//! `serve` turns the one-shot repro workloads into a long-running
//! daemon (JSON lines over a Unix or TCP socket) with a warm trace
//! store, request dedup/coalescing, and fair queueing; `submit` is the
//! matching client. A served response is byte-identical to the
//! corresponding one-shot `repro-sim --json` output at any worker
//! count — `tests/invariance.rs` checks them over a live socket.

use experiments::options::{take_flag, take_parsed, take_switch};
use experiments::{RunOptions, Scope};
use miller_core::{
    analyze_sequentiality, classify_trace, detect_cycles, measure_amplification,
    measure_compression, paper_targets, read_trace, translate_to_physical, write_trace, AppKind,
    AppSummary, CacheConfig, CacheTier, FsConfig, FsLayout, IoClass, SimConfig, Simulation,
    Trace, WritePolicy, ALL_APPS,
};
use sim_core::units::MB;
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mio: {msg}");
            eprintln!("run `mio help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") => {
            print!("{}", HELP);
            Ok(())
        }
        Some("apps") => cmd_apps(),
        Some("generate") => cmd_generate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("translate") => cmd_translate(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

const HELP: &str = "\
mio — Miller 1991 supercomputer I/O reproduction

USAGE:
  mio apps
  mio generate <app> [--seed N] [--scale K] [-o FILE]
  mio analyze <FILE>
  mio translate <FILE> [-o FILE]
  mio simulate <FILE>... [--cache MB|ssd|none] [--policy behind|through|sprite]
               [--no-readahead] [--cpus N]
  mio serve  (--socket PATH | --tcp ADDR) [--workers N] [--max-inflight N]
             [--cache-cap N] [--drain-timeout SECS] [--threads N]
             [--trace-dir DIR] [--trace-mem-budget MB] [--profile PATH] [--progress]
  mio submit (--socket PATH | --tcp ADDR)
             (--fig8-point MB:BLOCK [--quick] | --campaign GxP [--shards N]
              | --stats | --shutdown)
             [--scale K] [--seed N] [--client NAME] [--json FILE] [--progress]
  mio stats  (--socket PATH | --tcp ADDR) [--prom]
";

fn cmd_apps() -> Result<(), String> {
    println!("{:<7} {:>8} {:>9} {:>9} {:>7}", "app", "cpu(s)", "totIO(MB)", "MB/s", "R/W");
    for kind in ALL_APPS {
        let t = paper_targets(kind);
        println!(
            "{:<7} {:>8.0} {:>9.0} {:>9.2} {:>7.2}",
            kind.name(),
            t.cpu_secs,
            t.total_io_mb,
            t.mb_per_sec,
            t.rw_data_ratio
        );
    }
    Ok(())
}

fn cmd_generate(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let seed = take_parsed::<u64>(&mut args, "--seed")?.unwrap_or(42);
    let scale = take_parsed::<u32>(&mut args, "--scale")?.unwrap_or(1);
    let out = take_flag(&mut args, "-o")?;
    let name = args.first().ok_or("generate needs an application name")?;
    let kind = AppKind::from_name(name)
        .ok_or_else(|| format!("unknown app `{name}` (try `mio apps`)"))?;
    let trace = miller_core::app_trace(kind, 1, seed, miller_core::Scale(scale)).trace();
    write_out(&trace, out.as_deref())?;
    eprintln!(
        "generated {}: {} records, {:.1} MB of I/O",
        kind.name(),
        trace.io_count(),
        trace.total_bytes() as f64 / MB as f64
    );
    Ok(())
}

fn read_in(path: &str) -> Result<Trace, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    read_trace(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn write_out(trace: &Trace, path: Option<&str>) -> Result<(), String> {
    match path {
        None | Some("-") => {
            let stdout = std::io::stdout();
            write_trace(trace, stdout.lock()).map_err(|e| e.to_string())
        }
        Some(p) => {
            let f = std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?;
            write_trace(trace, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
            eprintln!("wrote {p}");
            Ok(())
        }
    }
}

fn cmd_analyze(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("analyze needs a trace file")?;
    let trace = read_in(path)?;
    let s = AppSummary::from_trace(&trace);
    println!(
        "records {}  cpu {:.1}s  wall {:.1}s  data {:.1} MB  total I/O {:.1} MB",
        s.num_ios, s.cpu_secs, s.wall_secs, s.data_mb, s.total_io_mb
    );
    println!(
        "rates: {:.2} MB/s, {:.1} IOs/s  avg request {:.1} KB  R/W {:.2}  files {}",
        s.mb_per_sec, s.ios_per_sec, s.avg_io_kb, s.rw_data_ratio, s.files_touched
    );
    let seq = analyze_sequentiality(&trace);
    println!(
        "sequential {:.1}%  same-size {:.1}%  modal-size {:.1}%",
        seq.sequential_fraction() * 100.0,
        seq.same_size_fraction() * 100.0,
        seq.modal_size_fraction() * 100.0
    );
    let cycles = detect_cycles(&trace, sim_core::SimDuration::from_secs(1));
    match cycles.period_bins {
        Some(p) => println!(
            "cycles: period {p}s (strength {:.2}), {} peaks, spacing CV {:.2}",
            cycles.strength, cycles.peaks, cycles.peak_spacing_cv
        ),
        None => println!("cycles: none detected"),
    }
    let classes = classify_trace(&trace);
    println!(
        "taxonomy: required {:.1}%  checkpoint {:.1}%  data-swap {:.1}%",
        classes.fraction_of(IoClass::Required) * 100.0,
        classes.fraction_of(IoClass::Checkpoint) * 100.0,
        classes.fraction_of(IoClass::DataSwap) * 100.0
    );
    let comp = measure_compression(&trace).map_err(|e| e.to_string())?;
    println!(
        "format: {:.1} bytes/record ({:.0}% smaller than fixed binary)",
        comp.bytes_per_record(),
        comp.savings_vs_binary() * 100.0
    );
    Ok(())
}

fn cmd_translate(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let out = take_flag(&mut args, "-o")?;
    let path = args.first().ok_or("translate needs a trace file")?;
    let trace = read_in(path)?;
    let mut layout = FsLayout::new(FsConfig::default());
    let mixed = translate_to_physical(&trace, &mut layout);
    let amp = measure_amplification(&mixed);
    write_out(&mixed, out.as_deref())?;
    eprintln!(
        "translated: {} records ({:.3}x data amplification, {:.2}% metadata)",
        mixed.io_count(),
        amp.data_amplification(),
        amp.metadata_fraction() * 100.0
    );
    Ok(())
}

fn cmd_simulate(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let cache = take_flag(&mut args, "--cache")?.unwrap_or_else(|| "32".to_string());
    let policy = take_flag(&mut args, "--policy")?.unwrap_or_else(|| "behind".to_string());
    let cpus = take_parsed::<usize>(&mut args, "--cpus")?.unwrap_or(1);
    let no_ra = take_switch(&mut args, "--no-readahead");
    if args.is_empty() {
        return Err("simulate needs at least one trace file".into());
    }

    let mut config = match cache.as_str() {
        "none" => SimConfig::uncached(),
        "ssd" => SimConfig::ssd(),
        mb => {
            let mb: u64 = mb.parse().map_err(|_| "bad --cache (MB|ssd|none)".to_string())?;
            SimConfig { cache: Some(CacheConfig::buffered(mb * MB)), ..Default::default() }
        }
    };
    config.n_cpus = cpus;
    if let Some(c) = config.cache.as_mut() {
        c.read_ahead = !no_ra;
        c.write_policy = match policy.as_str() {
            "behind" => WritePolicy::WriteBehind,
            "through" => WritePolicy::WriteThrough,
            "sprite" => WritePolicy::sprite(),
            other => return Err(format!("unknown --policy `{other}`")),
        };
    }
    let tier = config.tier;
    let mut sim = Simulation::new(config);
    for (i, path) in args.iter().enumerate() {
        let trace = read_in(path)?;
        sim.add_process((i + 1) as u32, path.clone(), &trace)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let r = sim.run();
    println!(
        "wall {:.1}s  idle {:.1}s  utilization {:.1}%  ({} CPU{}, cache {}{})",
        r.wall_secs(),
        r.idle_secs(),
        r.utilization() * 100.0,
        r.n_cpus,
        if r.n_cpus == 1 { "" } else { "s" },
        cache,
        if tier == CacheTier::Ssd { " [ssd tier]" } else { "" },
    );
    println!(
        "cache: hit ratio {:.1}%  RA hits {}  dirty evictions {}",
        r.cache.hit_ratio() * 100.0,
        r.cache.readahead_hit_blocks,
        r.cache.dirty_evictions
    );
    println!(
        "disks: {} reads / {} writes, {:.1} MB total",
        r.disk_totals.reads,
        r.disk_totals.writes,
        r.disk_totals.total_bytes() as f64 / MB as f64
    );
    for p in &r.processes {
        println!(
            "  {}: cpu {:.1}s  blocked {:.1}s  {} I/Os  finished at {:.1}s",
            p.name,
            p.cpu_used.as_secs_f64(),
            p.blocked_time.as_secs_f64(),
            p.ios_issued,
            p.finished_at.as_secs_f64()
        );
    }
    Ok(())
}

/// Parse the `--socket`/`--tcp` pair shared by `serve` and `submit`.
fn take_endpoint(args: &mut Vec<String>) -> Result<serve::Endpoint, String> {
    let socket = take_flag(args, "--socket")?;
    let tcp = take_flag(args, "--tcp")?;
    match (socket, tcp) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".into()),
        (Some(p), None) => Ok(serve::Endpoint::Unix(p.into())),
        (None, Some(a)) => Ok(serve::Endpoint::Tcp(a)),
        (None, None) => Err("need --socket PATH or --tcp ADDR".into()),
    }
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    // The daemon takes every run option except the per-run --shards and
    // --devices: each served campaign carries its own shard count.
    let opts = RunOptions::from_process(&mut args, Scope::Service)?;
    let endpoint = take_endpoint(&mut args).map_err(|e| format!("serve: {e}"))?;
    let workers = take_parsed(&mut args, "--workers")?.unwrap_or_else(experiments::thread_count);
    let max_inflight = take_parsed(&mut args, "--max-inflight")?.unwrap_or(256);
    let cache_cap = take_parsed(&mut args, "--cache-cap")?.unwrap_or(512);
    let drain_secs = take_parsed(&mut args, "--drain-timeout")?.unwrap_or(30);
    if let Some(stray) = args.first() {
        return Err(format!("serve: unexpected argument `{stray}`"));
    }
    if workers == 0 {
        return Err("serve: --workers must be at least 1".into());
    }
    serve::serve(&serve::ServeOptions {
        endpoint,
        engine: serve::EngineConfig {
            workers,
            max_inflight,
            result_cache: cache_cap,
            store: opts.store.clone(),
        },
        drain_timeout: std::time::Duration::from_secs(drain_secs),
    })?;
    // Part of graceful shutdown: the flight recorder flushes after the
    // drain, so a SIGINT'd daemon still leaves a complete timeline.
    opts.finish();
    Ok(())
}

/// Build the request body from the `submit` flags. `--quick` mirrors
/// `repro-sim --quick` (scale 8); campaign scale defaults to 16 like
/// `CampaignSpec::datacenter`, so served responses line up with the
/// one-shot binary byte for byte.
fn submit_body(args: &mut Vec<String>) -> Result<serve::RequestBody, String> {
    let quick = take_switch(args, "--quick");
    let scale = take_parsed::<u32>(args, "--scale")?;
    let seed = take_parsed::<u64>(args, "--seed")?.unwrap_or(42);
    let shards = take_parsed(args, "--shards")?.unwrap_or(1);
    let fig8 = take_flag(args, "--fig8-point")?;
    let campaign = take_flag(args, "--campaign")?;
    let stats = take_switch(args, "--stats");
    let shutdown = take_switch(args, "--shutdown");
    let chosen =
        [fig8.is_some(), campaign.is_some(), stats, shutdown].iter().filter(|b| **b).count();
    if chosen != 1 {
        return Err(
            "submit needs exactly one of --fig8-point, --campaign, --stats, --shutdown".into()
        );
    }
    if let Some(raw) = fig8 {
        let (mb, block) = raw
            .split_once(':')
            .ok_or_else(|| format!("--fig8-point wants MB:BLOCK, got `{raw}`"))?;
        let cache_mb: u64 = mb.trim().parse().map_err(|_| "bad --fig8-point cache MB")?;
        let block: u64 = block.trim().parse().map_err(|_| "bad --fig8-point block size")?;
        return Ok(serve::RequestBody::Fig8Point(serve::Fig8PointSpec {
            cache_mb,
            block,
            scale: scale.unwrap_or(if quick { 8 } else { 1 }),
            seed,
        }));
    }
    if let Some(raw) = campaign {
        let (groups, procs) = raw
            .split_once(['x', 'X'])
            .ok_or_else(|| format!("--campaign wants GROUPSxPROCS, got `{raw}`"))?;
        let groups: usize = groups.trim().parse().map_err(|_| "bad --campaign group count")?;
        let procs: usize = procs.trim().parse().map_err(|_| "bad --campaign process count")?;
        let mut spec = serve::CampaignPointSpec::datacenter(groups, procs, shards);
        if let Some(k) = scale {
            spec.scale = k;
        }
        spec.seed = seed;
        return Ok(serve::RequestBody::Campaign(spec));
    }
    if stats {
        return Ok(serve::RequestBody::Stats);
    }
    Ok(serve::RequestBody::Shutdown)
}

fn cmd_submit(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    // Only the heartbeat: `--shards` here belongs to the request.
    RunOptions::from_process(&mut args, Scope::Client)?;
    let endpoint = take_endpoint(&mut args).map_err(|e| format!("submit: {e}"))?;
    let json = take_flag(&mut args, "--json")?;
    let client = take_flag(&mut args, "--client")?;
    let body = submit_body(&mut args)?;
    if let Some(stray) = args.first() {
        return Err(format!("submit: unexpected argument `{stray}`"));
    }
    let resp = serve::submit_once(&endpoint, &serve::Request { id: 1, client, body })?;
    match resp.event.as_str() {
        "done" => {
            if resp.cached == Some(true) {
                eprintln!("mio submit: served from warm state (cache/coalesce)");
            }
            match resp.result {
                Some(serde::Value::Null) | None => {
                    eprintln!("mio submit: ok");
                }
                Some(value) => {
                    // Same bytes as `repro-sim --json`: pretty-printed,
                    // no trailing newline, so the files `cmp` equal.
                    let text = serde_json::to_string_pretty(&value)
                        .map_err(|e| format!("serialize result: {e}"))?;
                    match json.as_deref() {
                        None | Some("-") => println!("{text}"),
                        Some(path) => {
                            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
                            eprintln!("wrote {path}");
                        }
                    }
                }
            }
            Ok(())
        }
        "error" => Err(resp.error.unwrap_or_else(|| "server reported an error".into())),
        other => Err(format!("unexpected terminal event `{other}`")),
    }
}

/// `mio stats`: fetch the daemon's statistics — deterministic JSON by
/// default, or the Prometheus text exposition of its RED metrics with
/// `--prom` (queue-wait and service-time histograms, per-client request
/// counters, cache/coalesce ratios).
fn cmd_stats(rest: &[String]) -> Result<(), String> {
    let mut args = rest.to_vec();
    let endpoint = take_endpoint(&mut args).map_err(|e| format!("stats: {e}"))?;
    let prom = take_switch(&mut args, "--prom");
    if let Some(stray) = args.first() {
        return Err(format!("stats: unexpected argument `{stray}`"));
    }
    let body = if prom { serve::RequestBody::Metrics } else { serve::RequestBody::Stats };
    let resp = serve::submit_once(&endpoint, &serve::Request { id: 1, client: None, body })?;
    match resp.event.as_str() {
        "done" => match resp.result {
            // The Metrics payload is the exposition body itself; print
            // it verbatim (it is newline-terminated).
            Some(serde::Value::Str(text)) => {
                print!("{text}");
                Ok(())
            }
            Some(value) => {
                let text = serde_json::to_string_pretty(&value)
                    .map_err(|e| format!("serialize stats: {e}"))?;
                println!("{text}");
                Ok(())
            }
            None => Err("stats response carried no payload".into()),
        },
        "error" => Err(resp.error.unwrap_or_else(|| "server reported an error".into())),
        other => Err(format!("unexpected terminal event `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn take_flag_extracts_value_and_removes_both_tokens() {
        let mut args = argv("venus --seed 9 -o out.trace");
        assert_eq!(take_flag(&mut args, "--seed").unwrap(), Some("9".into()));
        assert_eq!(take_flag(&mut args, "-o").unwrap(), Some("out.trace".into()));
        assert_eq!(args, argv("venus"));
        assert_eq!(take_flag(&mut args, "--scale").unwrap(), None);
    }

    #[test]
    fn take_flag_rejects_missing_value() {
        let mut args = argv("venus --seed");
        assert!(take_flag(&mut args, "--seed").is_err());
    }

    #[test]
    fn take_switch_removes_token() {
        let mut args = argv("a.trace --no-readahead --cache 16");
        assert!(take_switch(&mut args, "--no-readahead"));
        assert!(!take_switch(&mut args, "--no-readahead"));
        assert_eq!(args, argv("a.trace --cache 16"));
    }

    #[test]
    fn run_dispatches_unknown_commands_to_error() {
        assert!(run(&argv("bogus")).is_err());
        assert!(run(&argv("help")).is_ok());
        assert!(run(&argv("apps")).is_ok());
    }

    #[test]
    fn stats_requires_an_endpoint_and_rejects_strays() {
        assert!(run(&argv("stats")).is_err());
        assert!(run(&argv("stats --prom")).is_err());
        assert!(run(&argv("stats --socket a.sock --bogus")).is_err());
    }

    #[test]
    fn take_endpoint_requires_exactly_one_transport() {
        assert!(take_endpoint(&mut argv("--workers 2")).is_err());
        assert!(take_endpoint(&mut argv("--socket a.sock --tcp 127.0.0.1:1")).is_err());
        assert_eq!(
            take_endpoint(&mut argv("--socket a.sock")).unwrap(),
            serve::Endpoint::Unix("a.sock".into())
        );
        assert_eq!(
            take_endpoint(&mut argv("--tcp 127.0.0.1:7070")).unwrap(),
            serve::Endpoint::Tcp("127.0.0.1:7070".into())
        );
    }

    #[test]
    fn submit_body_matches_the_one_shot_binaries() {
        // --quick must land on repro-sim's Scale(8); campaign defaults
        // must be CampaignSpec::datacenter's (scale 16, seed 42).
        let body = submit_body(&mut argv("--fig8-point 32:4096 --quick")).unwrap();
        assert_eq!(
            body,
            serve::RequestBody::Fig8Point(serve::Fig8PointSpec {
                cache_mb: 32,
                block: 4096,
                scale: 8,
                seed: 42,
            })
        );
        let body = submit_body(&mut argv("--campaign 24x16 --shards 4")).unwrap();
        assert_eq!(
            body,
            serve::RequestBody::Campaign(serve::CampaignPointSpec::datacenter(24, 16, 4))
        );
        assert_eq!(submit_body(&mut argv("--stats")).unwrap(), serve::RequestBody::Stats);
        assert_eq!(submit_body(&mut argv("--shutdown")).unwrap(), serve::RequestBody::Shutdown);
    }

    #[test]
    fn submit_body_rejects_ambiguous_or_missing_requests() {
        assert!(submit_body(&mut argv("")).is_err());
        assert!(submit_body(&mut argv("--stats --shutdown")).is_err());
        assert!(submit_body(&mut argv("--fig8-point 32x4096")).is_err());
        assert!(submit_body(&mut argv("--campaign 24:16")).is_err());
    }
}
