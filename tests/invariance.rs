//! The determinism contract as one matrix: a report is a pure function
//! of its parameters, so no execution setting may move one byte of it.
//!
//! For each workload the test computes one reference JSON with every
//! axis at its baseline. It then re-runs the workload with each other
//! axis value on its own, with a strength-2 covering set of axis pairs,
//! and once more unchanged, and requires every run to serialize to the
//! reference bytes.
//!
//! | axis | baseline | other values | workloads |
//! |---|---|---|---|
//! | threads | 1 | 4 | all |
//! | shards | 1 | 4 | campaign, modern |
//! | spans | off | on | all |
//! | timeline | off | on | all |
//! | trace feed | fresh | cold store, warm store, streamed at budget 0 | see [`feeds`] |
//! | transport | in-process | `serve` on a Unix socket | fig8 point, campaign |
//!
//! Every JSON is `serde_json::to_string_pretty` output, the bytes
//! `repro-sim --json` and `mio submit --json` write. Spans, the timeline
//! interval and the sweep thread count are process-wide, so the whole
//! matrix runs sequentially in one `#[test]`.

use buffer_cache::WritePolicy;
use experiments::ablations::{quantum_ablation, AblationPoint, AblationSweep};
use experiments::figures::{fig8_in, two_venus_report_in, Fig8Point, Fig8Result};
use experiments::{
    modern_comparison, par_sweep, run_campaign_in, scaled_spec, CampaignSpec, Scale, StoreConfig,
    TraceStore,
};
use iosim::{SimConfig, SimReport, Simulation};
use serde::Serialize;
use serve::{
    CampaignPointSpec, Endpoint, EngineConfig, Fig8PointSpec, Request, RequestBody, ServeOptions,
};
use sim_core::units::MB;
use sim_core::SimDuration;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::{generate, AppKind};

const SEED: u64 = 42;
/// The Figure 8 point `repro-sim --fig8-point 32:4096` runs.
const FIG8_POINT: (u64, u64) = (32, 4096);

/// Every workload with its trace scale in debug and in release builds.
/// Debug sizes keep `cargo test` quick; `cargo test --release --test
/// invariance` runs the sizes of `repro-sim --quick` and, with
/// [`CAMPAIGN`], `repro-sim --campaign 24x16`.
const SIZES: [(Workload, u32, u32); 6] = [
    (Fig67Points, 32, 8),
    (Fig8Point, 32, 8),
    (Fig8Sweep, 16, 8),
    (QuantumAblation, 32, 8),
    (Campaign, 512, 16),
    (Modern, 64, 8),
];
/// Campaign groups × processes per group (every 16th process reads
/// shared files).
const CAMPAIGN: (usize, usize) = if cfg!(debug_assertions) { (4, 16) } else { (24, 16) };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The Figure 6 and 7 cache points (32 MB and 128 MB).
    Fig67Points,
    Fig8Point,
    Fig8Sweep,
    QuantumAblation,
    Campaign,
    /// `repro-sim --devices modern`.
    Modern,
}

use Workload::*;

/// Where the replayed traces come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// Generated at the point of use, bypassing the store.
    Fresh,
    /// A private store created for the run: every trace is generated on
    /// first request, concurrently when threads > 1.
    Cold,
    /// `TraceStore::global()`, which earlier runs have filled.
    Warm,
    /// A store with a zero-byte budget: every trace is spilled to frame
    /// files and replayed through streaming cursors.
    Streamed,
}

/// The feeds a workload can take, baseline first. The ablation and the
/// modern rerun replay from the global store only, and the campaign has
/// no store-free path, so its fresh feed is a new private store.
fn feeds(w: Workload) -> &'static [Feed] {
    match w {
        Fig67Points | Fig8Point | Fig8Sweep => {
            &[Feed::Fresh, Feed::Cold, Feed::Warm, Feed::Streamed]
        }
        QuantumAblation => &[Feed::Fresh, Feed::Warm],
        Campaign => &[Feed::Fresh, Feed::Warm, Feed::Streamed],
        Modern => &[Feed::Warm],
    }
}

fn sharded(w: Workload) -> bool {
    matches!(w, Campaign | Modern)
}

fn served(w: Workload) -> bool {
    matches!(w, Fig8Point | Campaign)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Case {
    threads: usize,
    shards: usize,
    spans: bool,
    timeline: bool,
    feed: Feed,
    serve: bool,
}

/// The reference case, then every other axis value alone, then a
/// strength-2 covering set, then a repeat of the reference.
fn cases(w: Workload) -> Vec<Case> {
    let feeds = feeds(w);
    let base =
        Case { threads: 1, shards: 1, spans: false, timeline: false, feed: feeds[0], serve: false };
    let mut out = vec![
        base,
        Case { threads: 4, ..base },
        Case { spans: true, ..base },
        Case { timeline: true, ..base },
    ];
    if sharded(w) {
        out.push(Case { shards: 4, ..base });
    }
    if served(w) {
        out.push(Case { serve: true, ..base });
    }
    out.extend(feeds[1..].iter().map(|&feed| Case { feed, ..base }));
    // Every axis but the feed has two values, so one case per
    // non-baseline feed with all the others flipped covers every pair of
    // non-baseline values; the single-axis cases cover every pair that
    // has a baseline value.
    let (shards, serve) = (if sharded(w) { 4 } else { 1 }, served(w));
    let flipped = Case { threads: 4, shards, spans: true, timeline: true, serve, ..base };
    let flipped_feeds = if feeds.len() > 1 { &feeds[1..] } else { feeds };
    out.extend(flipped_feeds.iter().map(|&feed| Case { feed, ..flipped }));
    out.push(base);
    out
}

/// Per-workload state: trace scale, scratch directory, budget-0 store.
struct Ctx {
    scale: Scale,
    dir: PathBuf,
    streamed: TraceStore,
}

fn streamed_config(dir: &Path) -> StoreConfig {
    StoreConfig { mem_budget: Some(0), spill_dir: Some(dir.join("traces")) }
}

fn pretty<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("reports serialize")
}

/// Run `case`; returns the JSON of every report the run produced and
/// the rendered JSON of every timeline it published.
fn run(w: Workload, case: &Case, ctx: &Ctx) -> (Vec<String>, Vec<String>) {
    experiments::par_sweep::configure(Some(case.threads), false);
    obs::set_enabled(case.spans);
    let interval = if sharded(w) { 100_000_000 } else { 1_000_000 };
    obs::timeline::set_interval_ns(case.timeline.then_some(interval));
    let json = if case.serve { via_serve(w, case, ctx) } else { vec![in_process(w, case, ctx)] };
    obs::set_enabled(false);
    obs::timeline::set_interval_ns(None);
    (json, obs::timeline::drain().chunks(1).map(obs::timeline::render_json).collect())
}

fn campaign_spec(scale: Scale) -> CampaignSpec {
    let mut spec = CampaignSpec::datacenter(CAMPAIGN.0, CAMPAIGN.1);
    spec.scale = scale;
    spec.seed = SEED;
    spec
}

fn in_process(w: Workload, case: &Case, ctx: &Ctx) -> String {
    let cold = TraceStore::new();
    let store = match case.feed {
        Feed::Fresh | Feed::Cold => &cold,
        Feed::Warm => TraceStore::global(),
        Feed::Streamed => &ctx.streamed,
    };
    let scale = ctx.scale;
    let point = |&(mb, block): &(u64, u64)| match case.feed {
        Feed::Fresh => fresh_two_venus(point_config(mb * MB, block), scale),
        _ => {
            two_venus_report_in(store, mb * MB, block, true, WritePolicy::WriteBehind, scale, SEED)
        }
    };
    match (w, case.feed) {
        (Fig67Points, _) => pretty(&par_sweep(&[(32, 4096), (128, 4096)], point)),
        (Fig8Point, _) => pretty(&par_sweep(&[FIG8_POINT], point)[0]),
        (Fig8Sweep, Feed::Fresh) => pretty(&fresh_fig8(scale)),
        (Fig8Sweep, _) => pretty(&fig8_in(store, scale, SEED)),
        (QuantumAblation, Feed::Fresh) => pretty(&fresh_quantum_ablation(scale)),
        (QuantumAblation, _) => pretty(&quantum_ablation(scale, SEED)),
        (Campaign, _) => pretty(&run_campaign_in(store, &campaign_spec(scale), case.shards)),
        (Modern, _) => pretty(&modern_comparison(scale, SEED, case.shards)),
    }
}

/// The same request through an in-process `serve` daemon on a Unix
/// socket, with `case.threads` engine workers and no result cache. A
/// new daemon's store is cold, so a fresh or cold feed is one request;
/// a warm feed is the second of two; a streamed feed is a budget-0
/// engine store.
fn via_serve(w: Workload, case: &Case, ctx: &Ctx) -> Vec<String> {
    let (cache_mb, block) = FIG8_POINT;
    let scale = ctx.scale.0;
    let body = match w {
        Fig8Point => RequestBody::Fig8Point(Fig8PointSpec { cache_mb, block, scale, seed: SEED }),
        Campaign => {
            let mut c = CampaignPointSpec::datacenter(CAMPAIGN.0, CAMPAIGN.1, case.shards);
            c.scale = scale;
            c.seed = SEED;
            RequestBody::Campaign(c)
        }
        _ => unreachable!("{w:?} has no serve request"),
    };
    let streamed = case.feed == Feed::Streamed;
    let store = if streamed { streamed_config(&ctx.dir) } else { StoreConfig::default() };
    let socket = ctx.dir.join("serve.sock");
    let opts = ServeOptions {
        endpoint: Endpoint::Unix(socket.clone()),
        engine: EngineConfig { workers: case.threads, max_inflight: 8, result_cache: 0, store },
        drain_timeout: Duration::from_secs(60),
    };
    let daemon = std::thread::spawn(move || serve::serve(&opts));
    while !socket.exists() && !daemon.is_finished() {
        std::thread::sleep(Duration::from_millis(10));
    }
    let endpoint = Endpoint::Unix(socket);
    let submit = |id, body| {
        serve::submit_once(&endpoint, &Request { id, client: None, body }).expect("daemon answers")
    };
    let requests = if case.feed == Feed::Warm { 2 } else { 1 };
    let json = (1..=requests)
        .map(|id| {
            let resp = submit(id, body.clone());
            assert_eq!(resp.event, "done", "{w:?} {case:?}: {:?}", resp.error);
            pretty(&resp.result.expect("done carries the report"))
        })
        .collect();
    assert_eq!(submit(0, RequestBody::Shutdown).event, "done");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    json
}

/// One two-venus point with read-ahead and write-behind.
fn point_config(cache_bytes: u64, block_size: u64) -> SimConfig {
    let mut config = SimConfig::buffered(cache_bytes);
    let c = config.cache.as_mut().expect("buffered config has a cache");
    c.block_size = block_size;
    c.read_ahead = true;
    c.write_policy = WritePolicy::WriteBehind;
    config
}

/// Two venus copies with traces generated at the call, bypassing the
/// memoizing store: the pre-store path the store must match.
fn fresh_two_venus(config: SimConfig, scale: Scale) -> SimReport {
    let mut sim = Simulation::new(config);
    for pid in [1u32, 2] {
        let trace = generate(&scaled_spec(AppKind::Venus, pid, scale), SEED + u64::from(pid) - 1);
        sim.add_process(pid, format!("venus#{pid}"), &trace).expect("valid process");
    }
    sim.run()
}

/// `fig8_in` rebuilt on [`fresh_two_venus`].
fn fresh_fig8(scale: Scale) -> Fig8Result {
    let jobs: Vec<(u64, u64)> = [4096u64, 8192]
        .iter()
        .flat_map(|&block| [4u64, 8, 16, 32, 64, 128, 256].map(|mb| (mb, block)))
        .collect();
    let points = par_sweep(&jobs, |&(cache_mb, block)| {
        let r = fresh_two_venus(point_config(cache_mb * MB, block), scale);
        let (idle_secs, wall_secs, utilization) = (r.idle_secs(), r.wall_secs(), r.utilization());
        Fig8Point { cache_mb, block_size: block, idle_secs, wall_secs, utilization }
    });
    let busy = fresh_two_venus(point_config(256 * MB, 4096), scale).cpu_busy;
    Fig8Result { points, no_idle_baseline_secs: busy.as_secs_f64() }
}

/// `quantum_ablation` rebuilt on [`fresh_two_venus`].
fn fresh_quantum_ablation(scale: Scale) -> AblationSweep {
    let points = par_sweep(&[1u64, 16, 100], |&ms| {
        let mut config = SimConfig::buffered(32 * MB);
        config.sched.quantum = SimDuration::from_millis(ms);
        let r = fresh_two_venus(config, scale);
        let (idle_secs, utilization, wall_secs) = (r.idle_secs(), r.utilization(), r.wall_secs());
        AblationPoint { variant: format!("quantum {ms} ms"), idle_secs, utilization, wall_secs }
    });
    AblationSweep { name: "scheduler quantum".into(), points }
}

/// Where two JSON texts first differ, short enough for a test report.
fn first_difference(want: &str, got: &str) -> String {
    let at = want.bytes().zip(got.bytes()).take_while(|(a, b)| a == b).count();
    let line = want[..at].matches('\n').count() + 1;
    let around = |s: &str| {
        s.get(at.saturating_sub(40)..s.len().min(at + 40)).unwrap_or("").replace('\n', "\\n")
    };
    format!("line {line}: want `{}`, got `{}`", around(want), around(got))
}

#[test]
fn every_axis_and_pair_leaves_every_report_byte_identical() {
    let root = std::env::temp_dir().join(format!("miller-invariance-{}", std::process::id()));
    assert!(!obs::enabled(), "spans start disabled");
    obs::init(1 << 18);
    let mut failures = Vec::new();
    for (w, debug, release) in SIZES {
        let dir = root.join(format!("{w:?}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let scale = Scale(if cfg!(debug_assertions) { debug } else { release });
        let ctx = Ctx { scale, streamed: TraceStore::with_config(streamed_config(&dir)), dir };
        let (mut reference, mut timeline_ref) = (None::<String>, None::<String>);
        for case in cases(w) {
            let (json, timelines) = run(w, &case, &ctx);
            let want = reference.get_or_insert_with(|| json[0].clone());
            for got in json.iter().filter(|got| *got != want) {
                failures.push(format!("{w:?} at {case:?}: {}", first_difference(want, got)));
            }
            if case.timeline == timelines.is_empty() {
                failures.push(format!("{w:?} at {case:?}: {} timelines", timelines.len()));
            }
            // A single simulation per request: its timeline must not
            // move either. (Sweep points publish in completion order.)
            for t in timelines.iter().filter(|_| matches!(w, Fig8Point | Campaign)) {
                let want = timeline_ref.get_or_insert_with(|| t.clone());
                if t != want {
                    let diff = first_difference(want, t);
                    failures.push(format!("{w:?} timeline at {case:?}: {diff}"));
                }
            }
        }
        let reference = reference.expect("reference run");
        match w {
            Fig8Point => {
                let r: SimReport = serde_json::from_str(&reference).expect("report round-trips");
                let o = &r.obs;
                assert!(o.timing_wheel.inserts > 0, "wheel inserts: {:?}", o.timing_wheel);
                assert!(o.cache.hit_blocks > 0, "cache hits: {:?}", o.cache);
                assert!(o.disks.seeks > 0, "disk seeks: {:?}", o.disks);
                assert!(o.scheduler.context_switches > 0, "switches: {:?}", o.scheduler);
                let t = timeline_ref.as_deref().expect("fig8 point timeline");
                for gauge in ["cache_resident_blocks", "procs_runnable", "disk0_depth"] {
                    assert!(t.contains(gauge), "fig8 timeline lacks {gauge}");
                }
            }
            // Byte-equal JSON means bit-equal floats: finite floats print
            // in their shortest round-trip form.
            QuantumAblation => {
                let sweep: AblationSweep = serde_json::from_str(&reference).expect("round-trips");
                assert!(sweep.points.iter().all(|p| {
                    p.idle_secs.is_finite() && p.utilization.is_finite() && p.wall_secs.is_finite()
                }));
            }
            Campaign => {
                let t = timeline_ref.as_deref().expect("campaign timeline");
                assert!(t.contains("\"timelines\":["), "rendered timeline shape");
            }
            _ => {}
        }
        if feeds(w).contains(&Feed::Streamed) {
            let f = ctx.streamed.footprint();
            assert!(f.spilled > 0, "{w:?}: the budget-0 store must actually stream");
            assert_eq!(f.resident_bytes, 0, "{w:?}: every cursor is dropped after the runs");
        }
    }
    experiments::par_sweep::configure(None, false);

    // The spans every spans-on case recorded export as a loadable
    // Chrome trace naming both clock domains' tracks.
    let path = root.join("trace.json");
    let summary = obs::export_chrome_trace(&path).expect("trace export writes");
    assert!(summary.events > 0 && summary.tracks > 0, "{summary:?}");
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    serde_json::from_str::<serde::Value>(&text).expect("trace is valid JSON");
    for needle in ["\"traceEvents\"", "\"thread_name\"", "venus", "worker", "\"ph\":\"X\""] {
        assert!(text.contains(needle), "trace lacks {needle}");
    }
    let _ = std::fs::remove_dir_all(&root);
    let n = failures.len();
    assert!(failures.is_empty(), "{n} invariance failures:\n{}", failures.join("\n"));
}
