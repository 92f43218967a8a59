//! The paper's buffering simulator (§6.1): a single CPU, multiple
//! trace-driven processes, a round-robin scheduler, a block cache with
//! read-ahead and write-behind, and a farm of simple seek-distance disks.
//!
//! Correspondence to the paper:
//!
//! * "For each process, there is an input trace in our format, which
//!   determines the size of each I/O and the elapsed time between it and
//!   the next I/O" — [`process::ProcessState`] replays `processTime`
//!   deltas as compute and issues each request in order.
//! * "a simple round-robin scheduler with a quantum that can be
//!   specified each time it is run. The process-switching overhead, file
//!   system code overhead, and interrupt service time are also
//!   parameters" — [`config::SchedParams`].
//! * "There was no queueing at the disks, so the completion time of a
//!   specific I/O was dependent only on the location of the I/O and how
//!   'close' the I/O was to the previous I/O" — the default
//!   [`storage_model::DiskParams`] mode; queueing is available as the
//!   ablation the paper says it lacked.
//! * The SSD is "a huge main-memory cache" with "approximately 1 µs per
//!   kilobyte transferred" added per access — [`config::CacheTier::Ssd`].
//! * Write-behind drains through one flusher stream per disk; dirty
//!   evictions stall the requester — the §6.2 buffer-contention effect.
//!
//! ```
//! use iosim::{SimConfig, Simulation};
//! use iotrace::{Direction, IoEvent, Trace};
//! use sim_core::{SimDuration, SimTime};
//!
//! // A tiny sequential reader behind an 8 MB buffered cache.
//! let mut trace = Trace::new();
//! for i in 0..50u64 {
//!     trace.push(IoEvent::logical(
//!         Direction::Read, 1, 1, i * 65536, 65536,
//!         SimTime::from_ticks(i * 1000), SimDuration::from_millis(5),
//!     ));
//! }
//! let mut sim = Simulation::new(SimConfig::buffered(8 * 1024 * 1024));
//! sim.add_process(1, "reader", &trace).expect("pid and file ids fit");
//! let report = sim.run();
//! report.check_time_conservation();
//! assert_eq!(report.processes[0].ios_issued, 50);
//! assert!(report.utilization() > 0.5, "read-ahead hides most latency");
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod metrics;
pub mod process;
pub mod sharded;

pub use config::{CacheTier, DeviceSpec, SchedParams, SimConfig};
pub use process::{EventSource, ProcState, ProcessFeed, ProcessState};
pub use engine::{AddProcessError, Simulation, SHARED_FILE_BIT};
pub use metrics::{ProcessMetrics, SimReport};
pub use sharded::{ClusterReport, GroupSummary, ShardedConfig, ShardedSimulation};
