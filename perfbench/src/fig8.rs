//! Figure 8 points as `serve_socket` requests them: the grid (cache
//! 4–256 MB × 4/8 KiB blocks, two venus processes, read-ahead +
//! write-behind, 1991 disks), and one point split at the layer boundaries
//! the traced run times.

use crate::spans::span_timed;
use buffer_cache::WritePolicy;
use experiments::{Scale, TraceStore};
use iosim::{SimConfig, SimReport, Simulation};
use sim_core::units::MB;
use workload::AppKind;

/// The Figure 8 grid in the order `experiments::figures::fig8` runs it.
pub fn grid() -> Vec<(u64, u64)> {
    [4096u64, 8192]
        .into_iter()
        .flat_map(|block| [4u64, 8, 16, 32, 64, 128, 256].map(|mb| (mb, block)))
        .collect()
}

/// One point as `experiments::figures::two_venus_report_in` runs it,
/// split at the layer boundaries the traced run times: the store's
/// feeds, the simulator build, and the run. Its report is checked against
/// the served answer, so any drift from the program's path fails the run.
pub fn point_traced(
    store: &TraceStore,
    (mb, block): (u64, u64),
    scale: Scale,
    seed: u64,
) -> (SimReport, Layers) {
    let (feeds, feed_s) = span_timed("experiments.store_feed", None, || {
        [store.feed(AppKind::Venus, 1, seed, scale), store.feed(AppKind::Venus, 2, seed + 1, scale)]
    });
    let (sim, build_s) = span_timed("simulator.build", None, || {
        let mut config = SimConfig::buffered(mb * MB);
        let c = config.cache.as_mut().expect("buffered config has a cache");
        c.block_size = block;
        c.read_ahead = true;
        c.write_policy = WritePolicy::WriteBehind;
        let mut sim = Simulation::new(config);
        let [f1, f2] = feeds;
        sim.add_process_feed(1, "venus#1", f1).expect("valid process");
        sim.add_process_feed(2, "venus#2", f2).expect("valid process");
        sim
    });
    let (report, run_s) = span_timed("simulator.run", None, || sim.run());
    (report, Layers { feed_s, build_s, run_s })
}

/// Host seconds one operation spent in each layer call.
#[derive(Default, Clone, Copy)]
pub struct Layers {
    pub feed_s: f64,
    pub build_s: f64,
    pub run_s: f64,
}

impl Layers {
    pub fn add(&mut self, other: &Layers) {
        self.feed_s += other.feed_s;
        self.build_s += other.build_s;
        self.run_s += other.run_s;
    }
}

/// Generate the two venus traces of a point into `store`, returning the
/// seconds it took.
pub fn generate(store: &TraceStore, scale: Scale, seed: u64) -> f64 {
    [(1, seed), (2, seed + 1)]
        .into_iter()
        .map(|(pid, seed)| {
            span_timed("workload.generate", None, || {
                store.artifact(AppKind::Venus, pid, seed, scale)
            })
            .1
        })
        .sum()
}
