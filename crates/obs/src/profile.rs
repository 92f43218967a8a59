//! Profiling session plumbing shared by every binary: writing the
//! `--profile` trace, stable label counters for tracks, and the
//! process-wide simulated-event counter the sweep heartbeat reads its
//! ev/s from.

use crate::perfetto::export_chrome_trace;
use crate::recorder::{set_enabled, summary};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stop recording and write the Chrome trace-event JSON to `path`,
/// reporting the outcome on stderr. Export failure is reported, not
/// fatal — a missing trace must never fail the run that produced the
/// actual results.
pub fn finish_profile(path: &str) {
    set_enabled(false);
    match export_chrome_trace(Path::new(path)) {
        Ok(s) => {
            let full = if s.dropped > 0 {
                format!(
                    " ({} more dropped: ring full, raise --profile-capacity)",
                    s.dropped
                )
            } else {
                String::new()
            };
            eprintln!(
                "profile: wrote {path}: {} events on {} tracks{full} — open in ui.perfetto.dev",
                s.events, s.tracks
            );
            let rec = summary();
            let total = s.dropped + rec.recorded;
            if total > 0 && s.dropped * 10 > total {
                // More than 10% of everything emitted fell on the floor:
                // the trace is a fragment, not a timeline. Make the loss
                // impossible to miss (see EXPERIMENTS.md "Sizing the
                // flight recorder" for capacity guidance).
                eprintln!(
                    "profile: WARNING: dropped {} of {} events ({:.0}%) — trace covers only the \
                     run's start; rerun with --profile-capacity {} or more",
                    s.dropped,
                    total,
                    s.dropped as f64 * 100.0 / total as f64,
                    total.next_power_of_two()
                );
            }
        }
        Err(e) => eprintln!("profile: failed to write {path}: {e}"),
    }
}

static SIM_EVENTS: AtomicU64 = AtomicU64::new(0);
static SIM_IDS: AtomicU64 = AtomicU64::new(0);
static SWEEP_IDS: AtomicU64 = AtomicU64::new(0);

/// Add `n` to the process-wide simulated-I/O counter. The engine calls
/// this once per completed run (not per event); the sweep heartbeat
/// differences it for a live ev/s rate.
#[inline]
pub fn add_sim_events(n: u64) {
    SIM_EVENTS.fetch_add(n, Ordering::Relaxed);
}

/// Total simulated I/Os completed by this process so far.
#[inline]
pub fn sim_events_total() -> u64 {
    SIM_EVENTS.load(Ordering::Relaxed)
}

/// Monotonic id labelling one simulation's tracks ("sim3:venus#1").
pub fn next_sim_id() -> u64 {
    SIM_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Monotonic id labelling one sweep's worker tracks ("sweep2 worker0").
pub fn next_sweep_id() -> u64 {
    SWEEP_IDS.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_event_counter_accumulates() {
        let before = sim_events_total();
        add_sim_events(120);
        add_sim_events(3);
        assert!(sim_events_total() >= before + 123);
    }

    #[test]
    fn ids_are_unique() {
        let a = next_sim_id();
        let b = next_sim_id();
        assert_ne!(a, b);
        let c = next_sweep_id();
        let d = next_sweep_id();
        assert_ne!(c, d);
    }
}
