//! The lock-free span/event flight recorder.
//!
//! Design constraints, in priority order:
//!
//! 1. **Invisible when off.** [`enabled`] is one relaxed atomic load and
//!    every emit helper checks it first, so the disabled hot path costs a
//!    predictable branch and nothing else — no allocation, no locking, no
//!    clock read.
//! 2. **Allocation-free when on.** The slot array is allocated once at
//!    [`init`]; emitting claims a slot with a single `fetch_add` and
//!    writes a fixed-size [`RawEvent`] in place. When the ring is full,
//!    events are *dropped and counted* rather than wrapping — overwriting
//!    a slot another thread may be reading would be a data race, and a
//!    bounded trace with an honest drop counter beats a corrupt one.
//! 3. **Deterministic simulation.** Nothing here feeds back into the
//!    simulator: spans carry timestamps out, never state in.
//!
//! Track registration (naming a timeline) takes a mutex and allocates;
//! it happens a handful of times per simulation, never per event.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity in events (1 Mi slots × 48 B ≈ 48 MB). Override
/// with `--profile-capacity`, which calls [`init`] before the recorder
/// first initializes.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Sentinel for "no argument" on a span.
pub(crate) const NO_ARG: u64 = u64::MAX;

/// Which clock a track's timestamps are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Simulated time, in ticks (10 µs each).
    Sim,
    /// Host monotonic time, in nanoseconds since [`host_now_ns`]'s epoch.
    Host,
}

/// Handle to a registered timeline (a Perfetto "thread" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Track(pub(crate) u32);

/// What a recorded event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A span with a known duration (Chrome `ph:"X"`).
    Complete,
    /// A point-in-time marker (Chrome `ph:"i"`).
    Instant,
    /// A counter-track sample (Chrome `ph:"C"`); the gauge value rides
    /// in `arg`.
    Counter,
}

/// One fixed-size recorded event. `ts`/`dur` are in the track's domain
/// units (sim ticks or host nanoseconds).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawEvent {
    pub track: u32,
    pub kind: Kind,
    pub name: &'static str,
    pub ts: u64,
    pub dur: u64,
    /// Free-form numeric payload (bytes, point index); `NO_ARG` = none.
    pub arg: u64,
}

/// Slot states for the publish protocol.
const EMPTY: u8 = 0;
const READY: u8 = 1;

struct Slot {
    /// `EMPTY` until the writer's `Release` store publishes the payload;
    /// readers observe the payload only after an `Acquire` load of
    /// `READY`.
    state: AtomicU8,
    ev: UnsafeCell<MaybeUninit<RawEvent>>,
}

// SAFETY: a slot index is handed to exactly one writer by the ring's
// `fetch_add` claim counter, so at most one thread ever writes a given
// `ev` cell, and it does so before the `Release` store of `READY`.
// Readers only dereference the cell after observing `READY` with
// `Acquire`, which orders the payload write before the read. `reset`
// additionally requires external quiescence (documented there).
unsafe impl Sync for Slot {}

pub(crate) struct TrackInfo {
    pub name: String,
    pub domain: Domain,
}

pub(crate) struct Recorder {
    slots: Box<[Slot]>,
    /// Next slot to claim; values ≥ `slots.len()` mean "dropped".
    next: AtomicUsize,
    dropped: AtomicU64,
    pub(crate) tracks: Mutex<Vec<TrackInfo>>,
}

impl Recorder {
    fn with_capacity(capacity: usize) -> Recorder {
        let capacity = capacity.max(1);
        Recorder {
            slots: (0..capacity)
                .map(|_| Slot {
                    state: AtomicU8::new(EMPTY),
                    ev: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tracks: Mutex::new(Vec::new()),
        }
    }

    fn emit(&self, ev: RawEvent) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(idx) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // SAFETY: `idx` was claimed exclusively above; see `Slot`'s
        // `Sync` safety comment for the publish protocol.
        unsafe { (*slot.ev.get()).write(ev) };
        slot.state.store(READY, Ordering::Release);
    }

    /// Snapshot every published event, in claim order.
    pub(crate) fn collect(&self) -> Vec<RawEvent> {
        let hwm = self.next.load(Ordering::Acquire).min(self.slots.len());
        let mut out = Vec::with_capacity(hwm);
        for slot in &self.slots[..hwm] {
            if slot.state.load(Ordering::Acquire) == READY {
                // SAFETY: `READY` (Acquire) orders the writer's payload
                // store before this read, and the payload is `Copy`.
                out.push(unsafe { (*slot.ev.get()).assume_init() });
            }
        }
        out
    }
}

/// A coherent copy of the recorder for export: published events in
/// claim order, track metadata, and the drop count.
pub(crate) struct Snapshot {
    pub events: Vec<RawEvent>,
    pub tracks: Vec<TrackInfo>,
    pub dropped: u64,
}

/// Copy the recorder out (empty when never initialized). Meaningful
/// only after emitters have quiesced.
pub(crate) fn snapshot() -> Snapshot {
    match RECORDER.get() {
        Some(r) => Snapshot {
            events: r.collect(),
            tracks: r
                .tracks
                .lock()
                .expect("track registry lock")
                .iter()
                .map(|t| TrackInfo { name: t.name.clone(), domain: t.domain })
                .collect(),
            dropped: r.dropped.load(Ordering::Relaxed),
        },
        None => Snapshot { events: Vec::new(), tracks: Vec::new(), dropped: 0 },
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// True when span recording is on. One relaxed load — callers are
/// expected to guard *all* per-event work behind this.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Allocate the ring with an explicit capacity (events). Returns false
/// when a recorder already exists (the first capacity wins). Without an
/// explicit call, the first enable allocates [`DEFAULT_CAPACITY`] slots.
pub fn init(capacity: usize) -> bool {
    let mut fresh = false;
    RECORDER.get_or_init(|| {
        fresh = true;
        Recorder::with_capacity(capacity)
    });
    fresh
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder::with_capacity(DEFAULT_CAPACITY))
}

/// Turn span recording on or off. Enabling allocates the ring on first
/// use so the emit path never has to.
pub fn set_enabled(on: bool) {
    if on {
        let _ = recorder();
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the process-wide profiling epoch (first enable).
/// Monotonic; usable even while disabled (epoch initializes on demand).
#[inline]
pub fn host_now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Register a named timeline in `domain`. Takes a lock and allocates —
/// call once per process/disk/worker, not per event.
pub fn register_track(domain: Domain, name: impl Into<String>) -> Track {
    let r = recorder();
    let mut tracks = r.tracks.lock().expect("track registry lock");
    tracks.push(TrackInfo { name: name.into(), domain });
    Track((tracks.len() - 1) as u32)
}

/// Record a span with a known duration. `ts`/`dur` are in the track's
/// domain units (sim ticks or host ns). No-op while disabled.
#[inline]
pub fn complete(track: Track, name: &'static str, ts: u64, dur: u64, arg: Option<u64>) {
    if !enabled() {
        return;
    }
    if let Some(r) = RECORDER.get() {
        r.emit(RawEvent {
            track: track.0,
            kind: Kind::Complete,
            name,
            ts,
            dur,
            arg: arg.unwrap_or(NO_ARG),
        });
    }
}

/// Record one sample on a counter track (a gauge value at an instant;
/// rendered as a Perfetto counter, `ph:"C"`). `value` must not be
/// `u64::MAX` (the internal no-argument sentinel) — gauge values are
/// small counts, so this never bites in practice. No-op while disabled.
#[inline]
pub fn counter(track: Track, name: &'static str, ts: u64, value: u64) {
    if !enabled() {
        return;
    }
    if let Some(r) = RECORDER.get() {
        r.emit(RawEvent {
            track: track.0,
            kind: Kind::Counter,
            name,
            ts,
            dur: 0,
            arg: value,
        });
    }
}

/// Record an instantaneous marker. No-op while disabled.
#[inline]
pub fn instant(track: Track, name: &'static str, ts: u64, arg: Option<u64>) {
    if !enabled() {
        return;
    }
    if let Some(r) = RECORDER.get() {
        r.emit(RawEvent {
            track: track.0,
            kind: Kind::Instant,
            name,
            ts,
            dur: 0,
            arg: arg.unwrap_or(NO_ARG),
        });
    }
}

/// Recorder occupancy snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderSummary {
    /// Events successfully recorded (ring occupancy).
    pub recorded: u64,
    /// Events dropped because the ring was full.
    pub dropped: u64,
    /// Ring capacity in events.
    pub capacity: usize,
    /// Registered tracks.
    pub tracks: usize,
}

/// Current recorder occupancy; zeros when never initialized.
pub fn summary() -> RecorderSummary {
    match RECORDER.get() {
        Some(r) => RecorderSummary {
            recorded: r.next.load(Ordering::Relaxed).min(r.slots.len()) as u64,
            dropped: r.dropped.load(Ordering::Relaxed),
            capacity: r.slots.len(),
            tracks: r.tracks.lock().expect("track registry lock").len(),
        },
        None => RecorderSummary { recorded: 0, dropped: 0, capacity: 0, tracks: 0 },
    }
}

/// Discard all recorded events (tracks keep their names and handles).
///
/// Callers must guarantee quiescence: no concurrent emitters. The
/// intended use is between benchmark phases and in tests, after worker
/// threads have joined.
pub fn reset() {
    let Some(r) = RECORDER.get() else { return };
    let hwm = r.next.load(Ordering::Relaxed).min(r.slots.len());
    for slot in &r.slots[..hwm] {
        slot.state.store(EMPTY, Ordering::Relaxed);
    }
    r.next.store(0, Ordering::Release);
    r.dropped.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests in one binary run concurrently but share the global
    // recorder and enabled flag, so everything lives in a single test
    // function and phases run in a known order.
    #[test]
    fn record_collect_drop_reset_and_stress() {
        assert!(!enabled(), "recording must start disabled");
        // Size the ring before anything can allocate it lazily; the
        // first capacity wins.
        assert!(init(8));
        assert!(!init(16));

        // Disabled: emits are no-ops.
        let t = register_track(Domain::Sim, "quiet");
        complete(t, "ignored", 0, 5, None);
        assert_eq!(summary().recorded, 0);

        set_enabled(true);
        assert!(enabled());
        complete(t, "a", 10, 5, Some(42));
        instant(t, "b", 20, None);
        let events = recorder().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[0].ts, 10);
        assert_eq!(events[0].dur, 5);
        assert_eq!(events[0].arg, 42);
        assert_eq!(events[1].kind, Kind::Instant);
        assert_eq!(events[1].arg, NO_ARG);

        // Fill the ring: overflow drops and counts, never wraps.
        for i in 0..20 {
            complete(t, "spam", i, 1, None);
        }
        let s = summary();
        assert_eq!(s.capacity, 8);
        assert_eq!(s.recorded, 8);
        assert_eq!(s.dropped, 22 - 8);
        assert_eq!(recorder().collect().len(), 8);

        set_enabled(false);
        complete(t, "after", 0, 1, None);
        assert_eq!(summary().recorded, 8, "disabled emit must not record");

        reset();
        let s = summary();
        assert_eq!((s.recorded, s.dropped), (0, 0));
        assert_eq!(recorder().collect().len(), 0);
        assert_eq!(s.tracks, 1, "reset keeps track names");

        // Host clock is monotonic.
        let a = host_now_ns();
        let b = host_now_ns();
        assert!(b >= a);

        // Concurrent emitters into the tiny ring: every published event
        // must come back intact (drops are fine, corruption is not).
        set_enabled(true);
        let t2 = register_track(Domain::Host, "stress");
        std::thread::scope(|s| {
            for w in 0..4u64 {
                s.spawn(move || {
                    for i in 0..1000u64 {
                        complete(t2, "op", w * 10_000 + i, 1, Some(w));
                    }
                });
            }
        });
        set_enabled(false);
        let events = recorder().collect();
        assert_eq!(events.len(), 8, "claims past capacity must drop");
        for ev in events {
            assert_eq!(ev.name, "op");
            assert!(ev.arg < 4);
            assert_eq!(ev.dur, 1);
        }
    }
}
