//! Deterministic parallel sweep execution.
//!
//! Every figure/table/ablation in this crate is a sweep of independent,
//! individually-seeded simulations, so the natural speedup is to fan the
//! parameter points out over a thread pool. Two invariants make the
//! parallel results indistinguishable from serial ones:
//!
//! 1. **Ordering** — results come back indexed by *parameter position*,
//!    never completion order.
//! 2. **Seeding** — the worker closure receives the parameter itself;
//!    all randomness derives from per-point seeds the caller passes in,
//!    so no draw depends on which thread ran the point.
//!
//! Consequently `par_sweep(params, f)` is observably identical to
//! `params.iter().map(f).collect()` — a property pinned by the threads
//! axis of the root package's `tests/invariance.rs`.
//!
//! The pool is plain `std::thread::scope` rather than rayon: this build
//! environment has no registry access, and a work-stealing scheduler
//! buys nothing for coarse tasks that each run for milliseconds to
//! seconds. The thread count is `--threads` (see [`crate::RunOptions`]),
//! else the machine's available parallelism.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sweep pool size set by [`configure`]; 0 means "one per core".
static THREADS: AtomicUsize = AtomicUsize::new(0);
/// Sweep heartbeat switch set by [`configure`].
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Set the process-wide sweep pool size (`None`: one thread per
/// available core) and heartbeat. [`crate::RunOptions::install`] calls
/// this once from `main`.
pub fn configure(threads: Option<usize>, progress: bool) {
    THREADS.store(threads.unwrap_or(0), Ordering::Relaxed);
    PROGRESS.store(progress, Ordering::Relaxed);
}

/// Number of worker threads a sweep will use: the configured count,
/// else the number of available cores.
pub fn thread_count() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// True when the sweep heartbeat reporter is on (`--progress`).
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Throttled stderr heartbeat for a sweep: points completed, simulated
/// ev/s since the sweep started, and a naive ETA.
struct Progress {
    total: usize,
    started: Instant,
    /// Simulated-event counter reading at sweep start; the rate is a
    /// delta so concurrent/earlier sweeps don't inflate it.
    ev0: u64,
    last: Instant,
}

impl Progress {
    /// A reporter when [`progress_enabled`], else `None`.
    fn new(total: usize) -> Option<Progress> {
        progress_enabled().then(|| {
            let now = Instant::now();
            Progress { total, started: now, ev0: obs::sim_events_total(), last: now }
        })
    }

    /// Report at most twice a second.
    fn maybe_report(&mut self, done: usize) {
        if self.last.elapsed().as_millis() >= 500 {
            self.report(done);
        }
    }

    fn report(&mut self, done: usize) {
        self.last = Instant::now();
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let events = obs::sim_events_total().saturating_sub(self.ev0);
        let rate = events as f64 / secs;
        let eta = if done > 0 {
            let per_point = secs / done as f64;
            format!("{:.0}s", per_point * (self.total - done) as f64)
        } else {
            "?".into()
        };
        eprintln!(
            "[sweep] {done}/{} points | {:.2}M ev/s | ETA {eta}",
            self.total,
            rate / 1e6
        );
    }
}

/// Map `run` over `params` on a thread pool, returning results in
/// parameter order.
///
/// Worker threads pull the next unclaimed index from a shared counter,
/// so long and short points interleave without static partitioning
/// imbalance. A panic in any point propagates to the caller once the
/// scope joins (matching the `.expect` behavior of a serial loop).
///
/// Observability: when span profiling is enabled each worker thread gets
/// a host-domain Perfetto track carrying one `point` span per sweep
/// point; when `--progress` is set a throttled
/// heartbeat goes to stderr. Neither affects the results.
pub fn par_sweep<P, R, F>(params: &[P], run: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let n = params.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = thread_count().min(n);
    let sweep_id = obs::enabled().then(obs::next_sweep_id);
    let mut progress = Progress::new(n);
    if threads <= 1 {
        let track = sweep_id
            .map(|sid| obs::register_track(obs::Domain::Host, format!("sweep{sid} worker0")));
        let out = params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let t0 = obs::host_now_ns();
                let r = run(p);
                if let Some(t) = track {
                    let t1 = obs::host_now_ns();
                    obs::complete(t, "point", t0, t1.saturating_sub(t0), Some(i as u64));
                }
                if let Some(prog) = progress.as_mut() {
                    prog.maybe_report(i + 1);
                }
                r
            })
            .collect();
        if let Some(prog) = progress.as_mut() {
            prog.report(n);
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let progress = progress.map(Mutex::new);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (next, done, slots, progress, run, params) =
                (&next, &done, &slots, &progress, &run, params);
            scope.spawn(move || {
                let track = sweep_id.map(|sid| {
                    obs::register_track(obs::Domain::Host, format!("sweep{sid} worker{w}"))
                });
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = obs::host_now_ns();
                    let result = run(&params[i]);
                    if let Some(t) = track {
                        let t1 = obs::host_now_ns();
                        obs::complete(t, "point", t0, t1.saturating_sub(t0), Some(i as u64));
                    }
                    *slots[i].lock().expect("result slot lock") = Some(result);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(prog) = progress.as_ref() {
                        // Contended heartbeat attempts just skip a beat.
                        if let Ok(mut prog) = prog.try_lock() {
                            prog.maybe_report(finished);
                        }
                    }
                }
            });
        }
    });
    if let Some(prog) = progress.as_ref() {
        prog.lock().expect("progress lock").report(n);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_parameter_order() {
        let params: Vec<u64> = (0..100).collect();
        // Make early indices the slowest so completion order inverts
        // submission order.
        let out = par_sweep(&params, |&p| {
            if p < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 5 * p));
            }
            p * 3
        });
        assert_eq!(out, params.iter().map(|p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_reference() {
        let params: Vec<(u64, u64)> = (0..37).map(|i| (i, i * i)).collect();
        let f = |&(a, b): &(u64, u64)| a.wrapping_mul(31).wrapping_add(b);
        assert_eq!(par_sweep(&params, f), params.iter().map(f).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_param_exactly_once() {
        let hits = AtomicU64::new(0);
        let params: Vec<u32> = (0..257).collect();
        let out = par_sweep(&params, |&p| {
            hits.fetch_add(1, Ordering::Relaxed);
            p
        });
        assert_eq!(out.len(), 257);
        assert_eq!(hits.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_sweep(&empty, |&p| p).is_empty());
        assert_eq!(par_sweep(&[7u8], |&p| p + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }
}
