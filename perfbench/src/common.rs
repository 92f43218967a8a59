//! Plumbing shared by the workloads: run context, result shape, report
//! checks and the per-layer counters every simulation report carries.

use crate::spans;
use crate::stats::{fnv1a, median, percentile, ratio, supported_percentile};
use buffer_cache::CacheStats;
use iosim::{ClusterReport, SimReport};
use obs::ObsReport;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use storage_model::DeviceStats;

/// What one benchmark process was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Per-run scratch directory inside the checkout (removed on exit).
    pub dir: PathBuf,
    /// Threads, shards, serve workers and clients are each this many.
    pub nproc: usize,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for the summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The default seed, whose reports are pinned by digest.
pub const DEFAULT_SEED: u64 = 42;

/// FNV-1a digest of a report's JSON text.
pub fn digest<T: Serialize>(report: &T) -> u64 {
    fnv1a(serde_json::to_string(report).expect("reports serialize").as_bytes())
}

/// Simulated I/Os a single-node report issued.
pub fn ios_of(report: &SimReport) -> u64 {
    report.processes.iter().map(|p| p.ios_issued).sum()
}

/// Timed runs must not record the program's own spans.
pub fn ensure_program_tracing_off() -> Result<(), String> {
    if obs::enabled() {
        Err("obs span recording is on during a timed run".into())
    } else {
        Ok(())
    }
}

/// Start a phase's memory measurement: return free heap pages to the
/// kernel, so the phase starts from live memory rather than from what
/// the allocator kept from earlier phases, and reset the kernel's
/// peak-RSS mark (`/proc/self/clear_refs`), so that the next
/// [`peak_rss_mb`] covers this phase alone. Where the kernel refuses the
/// reset, the mark stays process-wide.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers; it only hands free heap
        // pages back to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The peak resident set (`VmHWM`) since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds and peak resident MB of each repetition of a phase.
#[derive(Default)]
pub struct Phases {
    pub secs: Vec<f64>,
    pub peak_mb: Vec<f64>,
}

impl Phases {
    /// Run one repetition of a phase, recording its time and peak RSS.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        reset_peak_rss();
        let t0 = Instant::now();
        let r = f();
        self.secs.push(t0.elapsed().as_secs_f64());
        self.peak_mb.push(peak_rss_mb());
        r
    }
}

/// Run `setup` `times` times, each inside a `bench.setup` span, and
/// return every repetition's time and peak plus the last result. Earlier
/// results are dropped, untimed, before the next repetition starts.
pub fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Phases, T), String> {
    let mut phases = Phases::default();
    let mut last = None;
    for k in 0..times {
        let v = spans::span("bench.setup", None, || {
            drop(last.take());
            phases.measure(|| setup(k))
        })?;
        last = Some(v);
    }
    Ok((phases, last.expect("at least one setup")))
}

/// `setup_s` and `peak_rss_mb`: the median set-up time, and the larger
/// of the median set-up peak and the median operation peak. Medians
/// over repetitions keep allocator noise (which arena a new thread
/// lands in) out of the figure; a leak still raises it.
pub fn insert_setup_and_memory(out: &mut Outcome, setups: &Phases, ops: &Phases) {
    out.metrics.insert("setup_s", median(&setups.secs));
    out.metrics.insert("peak_rss_mb", median(&setups.peak_mb).max(median(&ops.peak_mb)));
    let mbs = |v: &[f64]| v.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(" ");
    out.notes.push(format!(
        "peak RSS MB per set-up: {}; per operation: {}",
        mbs(&setups.peak_mb),
        mbs(&ops.peak_mb)
    ));
}

/// The operation-level end-to-end metrics: completed operations per
/// second over the measured window and the latency median and p99. Adds
/// a summary note with the sample count and the highest percentile it
/// supports.
pub fn insert_op_metrics(out: &mut Outcome, latencies_s: &[f64], window_s: f64) {
    let m = &mut out.metrics;
    m.insert("serve_rps", ratio(latencies_s.len() as f64, window_s));
    m.insert("serve_latency_p50_ms", median(latencies_s) * 1e3);
    m.insert("serve_latency_p99_ms", percentile(latencies_s, 99.0) * 1e3);
    let supported =
        supported_percentile(latencies_s.len()).map_or("none".to_string(), |p| format!("p{p}"));
    out.notes.push(format!(
        "latency over {} operations; highest percentile with 10 samples beyond it: {supported}",
        latencies_s.len()
    ));
}

/// Simulated-time counters summed over a set of reports. A host-speed
/// change must leave every one of these bit-identical.
#[derive(Default)]
pub struct SimCounts {
    ios: u64,
    busy_ticks: u64,
    capacity_ticks: u64,
    cache: CacheStats,
    disks: DeviceStats,
    obs: ObsReport,
}

impl SimCounts {
    pub fn add_single(&mut self, r: &SimReport) {
        let capacity = r.wall_end.ticks() * r.n_cpus.max(1) as u64;
        self.add(ios_of(r), r.cpu_busy.ticks(), capacity, &r.cache, &r.disk_totals, &r.obs);
    }

    pub fn add_cluster(&mut self, r: &ClusterReport) {
        let cpus_per_group = r.n_cpus.checked_div(r.n_groups).unwrap_or(1).max(1) as u64;
        let capacity = r.groups.iter().map(|g| g.wall_end.ticks() * cpus_per_group).sum();
        self.add(r.ios_issued, r.cpu_busy.ticks(), capacity, &r.cache, &r.disk_totals, &r.obs);
    }

    fn add(
        &mut self,
        ios: u64,
        busy_ticks: u64,
        capacity_ticks: u64,
        cache: &CacheStats,
        disks: &DeviceStats,
        obs: &ObsReport,
    ) {
        self.ios += ios;
        self.busy_ticks += busy_ticks;
        self.capacity_ticks += capacity_ticks;
        self.cache.merge(cache);
        self.disks.merge(disks);
        self.obs.merge(obs);
    }

    pub fn ios(&self) -> u64 {
        self.ios
    }

    pub fn insert(&self, m: &mut BTreeMap<&'static str, f64>) {
        let c = &self.cache;
        let o = &self.obs;
        m.insert("simulator.ios", self.ios as f64);
        m.insert(
            "simulator.utilization",
            ratio(self.busy_ticks as f64, self.capacity_ticks as f64),
        );
        m.insert("simulator.context_switches", o.scheduler.context_switches as f64);
        m.insert("cache.hit_ratio", ratio(c.hit_blocks as f64, c.accessed_blocks as f64));
        m.insert("cache.miss_blocks", c.miss_blocks as f64);
        m.insert("cache.dirty_evictions", c.dirty_evictions as f64);
        let useful = if c.prefetched_blocks == 0 {
            0.0
        } else {
            1.0 - c.wasted_prefetch_blocks as f64 / c.prefetched_blocks as f64
        };
        m.insert("cache.prefetch_useful_ratio", useful);
        m.insert(
            "cache.index_probes",
            (o.cache.hinted_index_probes + o.cache.unhinted_index_probes) as f64,
        );
        m.insert("storage.requests", self.disks.total_requests() as f64);
        m.insert("storage.busy_s_sim", self.disks.busy.as_secs_f64());
        m.insert("storage.queue_wait_s_sim", self.disks.queue_wait.as_secs_f64());
        m.insert("storage.seeks", o.disks.seeks as f64);
        m.insert("sim-core.wheel_inserts", o.timing_wheel.inserts as f64);
        m.insert("sim-core.wheel_cascades", o.timing_wheel.cascades as f64);
        m.insert("sim-core.wheel_overflow_spills", o.timing_wheel.overflow_spills as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::error_rate;

    #[test]
    fn failures_count_against_attempts() {
        let mut out = Outcome::default();
        for ok in [true, false, true, true, false] {
            out.check(ok);
        }
        assert_eq!((out.attempted, out.failed), (5, 2));
        assert_eq!(error_rate(out.attempted, out.failed), 0.4);
    }
}
