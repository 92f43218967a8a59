//! Logical → physical trace translation.
//!
//! The appendix's trace format carries **physical** records alongside
//! logical ones: `fileId` becomes a disk identifier, `offset`/`length`
//! address 512-byte device blocks, and the `operationId` field exists
//! precisely to associate "the logical record for that system call …
//! with all of the physical I/Os it generated", including metadata such
//! as indirect blocks (`TRACE_META_DATA`). The paper gathered only
//! logical traces on the Cray but designed the format for both; this
//! crate supplies the missing half: a file-system layout model that
//! expands a logical trace into the mixed logical+physical trace the
//! format describes.
//!
//! * [`layout`] — an extent-based allocator: each file's data lives in
//!   fixed-size extents placed round-robin across a disk farm, with one
//!   indirect (metadata) block per pointer-block's worth of data.
//! * [`translate`] — the expansion itself: every logical record gets a
//!   fresh `operationId` and is followed by the physical data records
//!   covering its byte range (block-aligned) plus first-touch metadata
//!   reads.
//! * [`amplification`] — measurement of what translation does to the
//!   traffic: alignment waste, metadata overhead, per-disk spread.

#![forbid(unsafe_code)]

pub mod amplification;
pub mod layout;
pub mod translate;

pub use amplification::{measure, Amplification};
pub use layout::{FsConfig, FsLayout};
pub use translate::translate;
