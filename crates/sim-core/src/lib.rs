//! Discrete-event simulation kernel shared by every subsystem of the
//! Miller-1991 reproduction.
//!
//! The paper's trace format stores all times as deltas in **10 µs ticks**
//! ("we believed this was sufficient time resolution for I/O traces", §4.1),
//! so the whole reproduction standardizes on that unit via [`SimTime`] and
//! [`SimDuration`]. The kernel additionally provides:
//!
//! * [`event`] — a deterministic event queue with stable FIFO ordering for
//!   simultaneous events, the backbone of the buffering simulator;
//! * [`epoch`] — the barrier schedule sharded (conservative-parallel)
//!   simulations advance between;
//! * [`rng`] — seeded, reproducible random number generation (ChaCha8) plus
//!   the small set of distributions the workload models need;
//! * [`stats`] — streaming summary statistics, histograms, the 1-second
//!   time-series binning used by every figure in the paper, and the
//!   autocorrelation machinery used for cycle detection;
//! * [`units`] — Cray Y-MP era unit constants (8-byte words, megawords,
//!   512-byte trace blocks, device rates).

#![forbid(unsafe_code)]

pub mod epoch;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use epoch::EpochClock;
pub use event::{EventQueue, QueueStats, Scheduled};
pub use rng::SimRng;
pub use stats::{Autocorrelation, Histogram, RateSeries, StreamingStats};
pub use time::{SimDuration, SimTime, TICKS_PER_SECOND, TICK_MICROS, TICK_NANOS};
