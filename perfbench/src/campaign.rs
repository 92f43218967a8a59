//! `campaign_streamed`: `CampaignSpec::datacenter(20, 50)` — 1000
//! processes cycling the seven applications plus shared-file readers —
//! replayed from spilled `stream_v2` frames under a 64 MB trace budget.
//!
//! Timed campaigns run on one shard: on a shared 2-vCPU host the
//! `nproc`-shard run's two rendezvous per epoch made run-to-run spread
//! several times that of the single-shard run. The traced run adds an
//! `nproc`-shard campaign and reports the parallel efficiency.

use crate::common::{
    digest, ensure_program_tracing_off, insert_op_metrics, insert_setup_and_memory, repeat_setup,
    Ctx, Outcome, Phases, SimCounts, DEFAULT_SEED,
};
use crate::fig8::Layers;
use crate::spans::{span, span_timed};
use crate::stats::{median, ratio};
use experiments::{run_campaign_in, CampaignSpec, Scale, StoreConfig, TraceStore};
use iosim::{ClusterReport, ProcessFeed, ShardedConfig, ShardedSimulation, SHARED_FILE_BIT};
use iotrace::{Direction, IoEvent};
use sim_core::units::MB;
use sim_core::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{AppKind, ALL_APPS};

const GROUPS: usize = 20;
const PROCS: usize = 50;
const SCALE: Scale = Scale(32);
const MEM_BUDGET: usize = 64 * 1024 * 1024;
const SETUPS: usize = 9;
/// Shards of the timed campaigns (see the module docs).
const TIMED_SHARDS: usize = 1;

/// Digest of the campaign report on [`DEFAULT_SEED`]; update only with a
/// deliberate model change.
const PINNED: u64 = 0xc3fc_8214_a5e5_07f5;

fn spec(seed: u64) -> CampaignSpec {
    let mut s = CampaignSpec::datacenter(GROUPS, PROCS);
    s.scale = SCALE;
    s.seed = seed;
    s
}

/// One slot of the per-group roster, as `run_campaign_in` builds it.
enum Slot {
    Reader { stream: u32, events: Arc<[IoEvent]> },
    App(AppKind),
}

fn roster(spec: &CampaignSpec) -> Vec<(u32, Slot)> {
    (0..spec.procs_per_group)
        .map(|j| {
            let pid = (j + 1) as u32;
            if spec.shared_file_every > 0 && (j + 1) % spec.shared_file_every == 0 {
                let stream = (j / spec.shared_file_every) as u32;
                let events = shared_reader_events(pid, stream, spec.reads_per_shared.max(1));
                (pid, Slot::Reader { stream, events })
            } else {
                (pid, Slot::App(ALL_APPS[j % ALL_APPS.len()]))
            }
        })
        .collect()
}

/// Sequential 64 KiB reads of one of eight cluster-wide shared files.
fn shared_reader_events(pid: u32, stream: u32, reads: usize) -> Arc<[IoEvent]> {
    const CHUNK: u64 = 64 * 1024;
    (0..reads as u64)
        .map(|i| {
            IoEvent::logical(
                Direction::Read,
                pid,
                SHARED_FILE_BIT | (stream % 8),
                i * CHUNK,
                CHUNK,
                SimTime::from_ticks(i * 1000),
                SimDuration::from_millis(5),
            )
        })
        .collect()
}

/// `(pid, app)` of every application slot of the roster.
pub fn app_slots(spec: &CampaignSpec) -> Vec<(u32, AppKind)> {
    roster(spec)
        .into_iter()
        .filter_map(|(pid, slot)| match slot {
            Slot::App(kind) => Some((pid, kind)),
            Slot::Reader { .. } => None,
        })
        .collect()
}

struct Setup {
    store: TraceStore,
    spill_dir: PathBuf,
    generate_s: f64,
    feed_s: f64,
}

/// A fresh budgeted store with every application trace generated and
/// spilled to frames.
fn setup(ctx: &Ctx) -> Result<(Phases, Setup), String> {
    let spec = spec(ctx.seed);
    repeat_setup(SETUPS, |k| {
        let spill_dir = ctx.dir.join(format!("spill-{k}"));
        if k > 0 {
            let _ = std::fs::remove_dir_all(ctx.dir.join(format!("spill-{}", k - 1)));
        }
        let store = TraceStore::with_config(StoreConfig {
            mem_budget: Some(MEM_BUDGET),
            spill_dir: Some(spill_dir.clone()),
        });
        let (mut generate_s, mut feed_s) = (0.0, 0.0);
        for (pid, kind) in app_slots(&spec) {
            generate_s += span_timed("workload.generate", None, || {
                store.artifact(kind, pid, spec.seed, spec.scale)
            })
            .1;
            let (feed, s) = span_timed("experiments.store_feed", None, || {
                store.feed(kind, pid, spec.seed, spec.scale)
            });
            if !matches!(feed, ProcessFeed::Streamed(_)) {
                return Err(format!("trace {kind:?}#{pid} was not spilled to a frame file"));
            }
            feed_s += s;
        }
        Ok(Setup { store, spill_dir, generate_s, feed_s })
    })
}

/// `run_campaign_in`, split at the layer boundaries the traced run times.
/// `run_campaign_in` builds and runs in one call, so the roster is
/// rebuilt here the same way; every traced report is checked against the
/// untraced run's digest, so any drift between the two fails the run.
pub fn campaign_traced(
    store: &TraceStore,
    spec: &CampaignSpec,
    shards: usize,
) -> (ClusterReport, Layers) {
    let roster = roster(spec);
    let (feeds, feed_s) = span_timed("experiments.store_feed", None, || {
        let mut feeds = Vec::with_capacity(spec.groups * roster.len());
        for g in 0..spec.groups {
            for (pid, slot) in &roster {
                let (name, feed) = match slot {
                    Slot::Reader { stream, events } => {
                        (format!("shared{stream}"), ProcessFeed::Shared(Arc::clone(events)))
                    }
                    Slot::App(kind) => (
                        format!("{}#{}", kind.name(), pid - 1),
                        store.feed(*kind, *pid, spec.seed, spec.scale),
                    ),
                };
                feeds.push((g, *pid, name, feed));
            }
        }
        feeds
    });
    let (cluster, build_s) = span_timed("simulator.build", None, || {
        let cache = buffer_cache::CacheConfig::buffered(spec.cache_budget).partitioned(spec.groups);
        let base = iosim::SimConfig {
            cache: Some(cache),
            n_disks: spec.disks_per_group.max(1),
            ..Default::default()
        };
        let mut cfg = ShardedConfig::new(spec.groups, base);
        cfg.epoch = spec.epoch;
        cfg.max_active = spec.max_active;
        let mut cluster = ShardedSimulation::new(cfg);
        for (g, pid, name, feed) in feeds {
            cluster.add_process_feed(g, pid, name, feed).expect("campaign roster is valid");
        }
        cluster
    });
    let (report, run_s) = span_timed("simulator.run", None, || cluster.run(shards));
    (report, Layers { feed_s, build_s, run_s })
}

/// busy + idle = CPUs × wall in every group (the identity
/// `SimReport::check_time_conservation` checks), within one tick.
fn conserves(r: &ClusterReport) -> bool {
    let cpus = r.n_cpus.checked_div(r.n_groups).unwrap_or(1).max(1) as u64;
    r.groups.iter().all(|g| {
        let lhs = g.cpu_busy.ticks() + g.cpu_idle.ticks();
        lhs.abs_diff(g.wall_end.ticks() * cpus) <= 1
    })
}

fn check(out: &mut Outcome, expected: u64, r: &ClusterReport) {
    let d = digest(r);
    let ok = d == expected && conserves(r);
    if !ok {
        eprintln!("campaign_streamed: digest {d:#018x}, expected {expected:#018x}");
    }
    out.check(ok);
}

/// Bytes of frame files in the spill directory.
fn frame_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "mio2"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Whether another campaign fits in the window: always the first, then
/// only if one more of the longest so far still ends inside it. A
/// campaign lasts a large share of the window, so this keeps the run to
/// its stated length instead of overrunning it by up to one campaign.
fn fits(t0: Instant, walls: &[f64], window: f64) -> bool {
    let longest = walls.iter().copied().fold(0.0, f64::max);
    walls.is_empty() || t0.elapsed().as_secs_f64() + longest <= window
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = spec(ctx.seed);
    let (setups, st) = setup(ctx)?;
    ensure_program_tracing_off()?;
    let window = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };

    let mut runs: Vec<ClusterReport> = Vec::new();
    let mut ops = Phases::default();
    let t0 = Instant::now();
    span("bench.untraced", None, || {
        while fits(t0, &ops.secs, window) {
            runs.push(ops.measure(|| run_campaign_in(&st.store, &spec, TIMED_SHARDS)));
        }
    });
    let timed_s = t0.elapsed().as_secs_f64();
    ensure_program_tracing_off()?;
    // Off the pinned seed, every campaign must reproduce the first one.
    let expected = if ctx.seed == DEFAULT_SEED { PINNED } else { digest(&runs[0]) };
    for r in &runs {
        check(&mut out, expected, r);
    }
    let walls = &ops.secs;
    let rates: Vec<f64> = runs.iter().zip(walls).map(|(r, w)| r.ios_issued as f64 / w).collect();
    let first = &runs[0];
    let secs: Vec<String> = walls.iter().map(|w| format!("{w:.2}")).collect();
    out.notes.push(format!(
        "{} campaigns ({} s) of {} processes at {} shards in {timed_s:.2} s; {} simulated I/Os \
         and {} epochs per campaign; {} setups",
        runs.len(),
        secs.join(", "),
        first.total_processes,
        TIMED_SHARDS,
        first.ios_issued,
        first.epochs,
        setups.secs.len()
    ));
    if !ctx.trace {
        insert_setup_and_memory(&mut out, &setups, &ops);
        out.metrics.insert("sim_ios_per_s", median(&rates));
        insert_op_metrics(&mut out, walls, timed_s);
        return Ok(out);
    }

    // Traced half: the same campaign split at the layer boundaries, then
    // one `nproc`-shard run for the parallel efficiency.
    let mut traced = Vec::new();
    let t1 = Instant::now();
    let mut traced_walls = Vec::new();
    span("bench.timed", None, || {
        while fits(t1, &traced_walls, window) {
            let t = Instant::now();
            let (r, layers) = campaign_traced(&st.store, &spec, TIMED_SHARDS);
            traced_walls.push(t.elapsed().as_secs_f64());
            traced.push((r, layers));
        }
    });
    let nproc_shards_s = span("bench.scaling", None, || {
        let (r, layers) = campaign_traced(&st.store, &spec, ctx.nproc);
        check(&mut out, expected, &r);
        layers.run_s
    });
    for (r, _) in &traced {
        check(&mut out, expected, r);
    }
    let (r, layers) = &traced[0];
    let mut counts = SimCounts::default();
    counts.add_cluster(r);
    let footprint = st.store.footprint();
    let m = &mut out.metrics;
    counts.insert(m);
    m.insert("workload.generate_s", st.generate_s);
    m.insert("experiments.store_feed_s", st.feed_s + layers.feed_s);
    m.insert("experiments.store_peak_mb", footprint.peak_bytes as f64 / MB as f64);
    m.insert(
        "iotrace.frame_bytes_per_io",
        ratio(frame_bytes(&st.spill_dir) as f64, footprint.events as f64),
    );
    m.insert("simulator.build_s", layers.build_s);
    m.insert("simulator.run_ns_per_io", layers.run_s * 1e9 / r.ios_issued.max(1) as f64);
    m.insert("simulator.epochs", r.epochs as f64);
    m.insert("simulator.ios_per_epoch", ratio(r.ios_issued as f64, r.epochs as f64));
    m.insert("simulator.remote_ops", r.remote_ops as f64);
    m.insert("simulator.shard_efficiency", ratio(layers.run_s, ctx.nproc as f64 * nproc_shards_s));
    m.insert("trace.overhead_ratio", median(&traced_walls) / median(walls) - 1.0);
    Ok(out)
}
