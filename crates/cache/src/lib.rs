//! The file-system block buffer cache the paper's simulations revolve
//! around (§6).
//!
//! The cache is deliberately **pure bookkeeping**: its methods mutate
//! block state and report which *device operations are implied* (miss
//! fetches, read-ahead fetches, write-throughs, dirty evictions, flush
//! batches); the `iosim` crate owns the clock and charges time for those
//! operations. That split keeps every policy decision unit-testable
//! without a simulator in the loop.
//!
//! Policies implemented, each tied to the text:
//!
//! * **LRU block replacement** over fixed-size blocks (Figure 8 sweeps
//!   4 KB vs 8 KB blocks).
//! * **Read-ahead** (§6.2): on a sequential read, prefetch the same
//!   amount just read — "prefetching the amount of data just read allowed
//!   the application to continue without waiting, but did not fill the
//!   cache with data that would be unused for some time."
//! * **Write-behind** (§6.2): the process continues while dirty data
//!   drains to disk in the background.
//! * **Sprite-style delayed writes** (§2.1): dirty blocks become
//!   flushable only after a configurable age (30 s in Sprite), kept as a
//!   comparison baseline.
//! * **Write-through**: the no-buffering baseline.
//! * **Per-process buffer ownership caps** (§6.2): the ablation the paper
//!   tried against buffer hogging and found to *worsen* utilization.
//!
//! ```
//! use buffer_cache::{BlockCache, CacheConfig};
//! use sim_core::SimTime;
//!
//! let mut cache = BlockCache::new(CacheConfig::buffered(1024 * 1024));
//! // A cold read misses and implies one coalesced device fetch…
//! let out = cache.read(SimTime::ZERO, 1, 1, 0, 16 * 1024);
//! assert_eq!(out.miss_blocks, 4);
//! assert_eq!(out.fetches.len(), 1);
//! // …a re-read hits, and a sequential continuation prefetches ahead.
//! let again = cache.read(SimTime::from_secs(1), 1, 1, 0, 16 * 1024);
//! assert_eq!(again.hit_blocks, 4);
//! let next = cache.read(SimTime::from_secs(2), 1, 1, 16 * 1024, 16 * 1024);
//! assert!(!next.prefetch.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod lru;
pub mod partition;
pub mod stats;

pub use cache::{BlockCache, ByteRange, ReadOutcome, WriteOutcome};
pub use config::{CacheConfig, WritePolicy};
pub use partition::{range_owner, OWNERSHIP_STRIPE_BYTES};
pub use stats::CacheStats;
