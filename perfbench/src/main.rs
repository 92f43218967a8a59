//! The repository's benchmark: one command per workload that times the
//! end-to-end metrics (or, with `--trace 1`, the per-layer ones), checks
//! every output, and prints one JSON result line last.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_streamed --seed 42 --seconds 50 --trace 0
//! ```
//!
//! Workloads, metrics and their meaning are described in
//! `perfbench/README.md`.

mod campaign;
mod common;
mod fig8;
mod serve_load;
mod spans;
mod stats;

use common::Ctx;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, in output order: `(name, unit)`. Every workload
/// reports all of them (see README.md for what each means on each
/// workload). `error_rate` is printed in the summary only: it is 0 on a
/// correct run, and the result line carries it as `failed`/`attempted`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_ios_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("serve_rps", "1/s"),
    ("serve_latency_p50_ms", "ms"),
    ("serve_latency_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("workload.generate_s", "s"),
    ("experiments.store_feed_s", "s"),
    ("experiments.store_peak_mb", "MB"),
    ("experiments.sweep_straggler_ratio", "ratio"),
    ("iotrace.frame_bytes_per_io", "B/io"),
    ("simulator.build_s", "s"),
    ("simulator.run_ns_per_io", "ns/io"),
    ("simulator.epochs", "count"),
    ("simulator.ios_per_epoch", "count"),
    ("simulator.remote_ops", "count"),
    ("simulator.context_switches", "count"),
    ("simulator.shard_efficiency", "ratio"),
    ("simulator.utilization", "ratio"),
    ("simulator.ios", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.miss_blocks", "count"),
    ("cache.dirty_evictions", "count"),
    ("cache.prefetch_useful_ratio", "ratio"),
    ("cache.index_probes", "count"),
    ("storage.requests", "count"),
    ("storage.busy_s_sim", "s"),
    ("storage.queue_wait_s_sim", "s"),
    ("storage.seeks", "count"),
    ("sim-core.wheel_inserts", "count"),
    ("sim-core.wheel_cascades", "count"),
    ("sim-core.wheel_overflow_spills", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.hit_round_trip_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("bench.run.self_s", "s"),
    ("bench.setup.self_s", "s"),
    ("bench.untraced.self_s", "s"),
    ("bench.timed.self_s", "s"),
    ("bench.scaling.self_s", "s"),
    ("bench.verify.self_s", "s"),
    ("workload.generate.self_s", "s"),
    ("experiments.store_feed.self_s", "s"),
    ("experiments.par_sweep.self_s", "s"),
    ("experiments.point.self_s", "s"),
    ("simulator.build.self_s", "s"),
    ("simulator.run.self_s", "s"),
    ("serve.submit_once.self_s", "s"),
    ("serve.execute.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.top_level_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

const WORKLOADS: [&str; 2] = ["campaign_streamed", "serve_socket"];

/// Variables that reconfigure the program for the whole process.
fn hermetic_violations() -> Vec<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("MILLER_") || k == "RAYON_NUM_THREADS")
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: Vec<String>) -> Result<Args, String> {
    let mut take = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        if i + 1 >= argv.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = argv.remove(i + 1);
        argv.remove(i);
        Ok(v)
    };
    let workload = take("--workload")?;
    let seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if !argv.is_empty() {
        return Err(format!("unexpected arguments: {argv:?}"));
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?})"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let started = Instant::now();
    spans::set_enabled(false);
    let violations = hermetic_violations();
    if !violations.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: these variables reconfigure threads, \
             devices and the trace store for the whole process; unset them",
            violations.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Scratch files (spill frames, the socket) live under the checkout
    // and are removed on exit; span output stays for reading.
    let out_dir = PathBuf::from(".perfbench");
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        dir: dir.clone(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    if ctx.trace {
        spans::set_enabled(true);
    }
    let outcome = spans::span("bench.run", None, || match args.workload.as_str() {
        "campaign_streamed" => campaign::run(&ctx),
        "serve_socket" => serve_load::run(&ctx),
        _ => unreachable!("workload names are validated"),
    });
    spans::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match outcome {
        Ok(o) if o.attempted > 0 => o,
        Ok(_) => {
            eprintln!("perfbench: {}: no operation completed", args.workload);
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let mut metrics = outcome.metrics;
    let table: &[(&str, &str)] = if ctx.trace {
        let spans = spans::take();
        let spans_path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&spans_path, spans::to_chrome_json(&spans)) {
            eprintln!("perfbench: write {}: {e}", spans_path.display());
            return ExitCode::from(1);
        }
        add_span_metrics(&mut metrics, &spans);
        eprintln!("perfbench: {} spans written to {}", spans.len(), spans_path.display());
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let failed = outcome.failed;
    let correct = failed == 0;
    println!(
        "perfbench {} seed {} ({} s, trace {}): {} operations, {} failed, started {:.1} s ago",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        failed,
        started.elapsed().as_secs_f64()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let mut json = Vec::new();
    for &(name, unit) in table {
        let value = match metrics.get(name) {
            Some(&v) => v,
            None if ctx.trace => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        println!("  {name:<34} {value:>16.6} {unit}");
        json.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value)));
    }
    println!(
        "  {:<34} {:>16.6} ratio ({failed} of {} failed)",
        "error_rate",
        stats::error_rate(outcome.attempted, failed),
        outcome.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Self time per layer span, how much of the run the top-level phases
/// cover, and the span count.
fn add_span_metrics(metrics: &mut BTreeMap<&'static str, f64>, spans: &[spans::Span]) {
    for (name, secs) in spans::self_seconds_by_name(spans) {
        if let Some(&(metric, _)) =
            PER_LAYER.iter().find(|(m, _)| m.strip_suffix(".self_s") == Some(name))
        {
            metrics.insert(metric, secs);
        }
    }
    let root = spans.iter().find(|s| s.name == "bench.run" && s.parent.is_none());
    if let Some(root) = root {
        let top: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let covered = stats::union_len(&top, root.start_ns, root.end_ns);
        metrics.insert(
            "trace.top_level_coverage",
            stats::ratio(covered as f64, (root.end_ns - root.start_ns) as f64),
        );
    }
    metrics.insert("trace.spans", spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(argv("--workload serve_socket --seed 7 --seconds 3 --trace 1"))
            .expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve_socket", 7, 3, true));
        let rejects = |s: &str| parse_args(argv(s)).is_err();
        assert!(rejects("--workload nope --seed 7 --seconds 3 --trace 0"));
        assert!(rejects("--workload serve_socket --seed 7 --seconds 3 --trace 2"));
        assert!(rejects("--workload serve_socket --seed 7 --seconds 0 --trace 0"));
        assert!(rejects("--workload serve_socket --seed 7 --trace 0"));
        assert!(rejects("--workload serve_socket --seed 7 --seconds 3 --trace 0 x"));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|m| m.as_seq())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{k}: {other:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(|w| w.as_seq())
            .expect("workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("workload name: {other:?}"),
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
