//! Trace analysis: everything §5 of the paper computes from the gathered
//! traces.
//!
//! * [`summary`] — per-application totals and rates (Tables 1 and 2);
//! * [`timeseries`] — "MB per CPU second" rate series (Figures 3–4), built
//!   over either the process-CPU clock or the wall clock;
//! * [`seq`] — sequentiality and request-size constancy (§5.2);
//! * [`cycles`] — cycle detection over the binned demand (§5.3);
//! * [`classify`] — the required / checkpoint / data-swapping taxonomy of
//!   I/O types (§5.1);
//! * [`burst`] — burstiness metrics (peak/mean, CV, idle-bin fraction);
//! * [`amdahl`] — Amdahl's 1-Mbit-per-MIPS I/O balance metric (§1, §5.1);
//! * [`seeks`] — device-level seek behavior of physical traces;
//! * [`dfg`] — per-process directly-follows graphs streamed from binary
//!   frame files (post-1991 structure the paper's tables can't show).

#![forbid(unsafe_code)]

pub mod amdahl;
pub mod burst;
pub mod classify;
pub mod cycles;
pub mod dfg;
pub mod seeks;
pub mod seq;
pub mod summary;
pub mod timeseries;

pub use amdahl::{AmdahlReport, YMP_DEFAULT_MIPS};
pub use burst::Burstiness;
pub use classify::{classify_trace, ClassifiedIo, IoClass};
pub use cycles::{detect as detect_cycles, CycleReport};
pub use dfg::{dfg_of_frame_file, Activity, DfgBuilder, DfgEdge, DfgNode, DfgReport, ProcessDfg};
pub use seeks::{analyze_seeks, SeekReport};
pub use seq::{analyze as analyze_sequentiality, SequentialityReport};
pub use summary::{AppSummary, DirectionSummary};
pub use timeseries::{cpu_time_series, wall_time_series, Select};
