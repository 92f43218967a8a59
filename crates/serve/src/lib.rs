//! Simulation-as-a-service for the Miller reproduction: the `mio serve`
//! daemon and its building blocks.
//!
//! Every prior layer of this workspace made *one* simulation fast; this
//! crate serves *many*. The FBench framing (see PAPERS.md) is the
//! target workload: interactive what-if exploration produces thousands
//! of small, heavily overlapping sweep-point queries, where throughput
//! comes from amortization — a warm [`TraceStore`] shared across
//! requests, canonical-hash deduplication, single-flight coalescing of
//! concurrent duplicates, and a bounded result cache — rather than from
//! single-run speed.
//!
//! The crate splits into:
//!
//! * [`canon`] — stable, field-order-independent canonical hashing of
//!   any serializable config (the cache/coalescing key).
//! * [`protocol`] — the JSON-lines request/response wire types.
//! * [`engine`] — the in-process worker pool: fair queueing, admission
//!   control, the warm store, the result cache.
//! * [`server`] — the socket front end (`mio serve` / `mio submit`):
//!   one blocking thread per connection answering its requests in
//!   order, with heartbeats, a request-size cap and graceful drain.
//!
//! The contract that makes the service trustworthy is determinism: a
//! served response is byte-identical to the corresponding one-shot
//! `repro-sim` run at any worker count, whether computed, coalesced, or
//! cached. The root package's `tests/invariance.rs` holds this over a
//! live socket against the in-process runs; the proptest suite holds it
//! for shuffled concurrent request streams.
//!
//! [`TraceStore`]: experiments::TraceStore

pub mod canon;
pub mod engine;
pub mod protocol;
pub mod server;

pub use canon::{canonical_hash, canonical_value_hash, canonicalize};
pub use engine::{Engine, EngineConfig, SubmitError, Ticket};
pub use protocol::{CampaignPointSpec, Fig8PointSpec, Request, RequestBody, Response};
pub use server::{request_shutdown, serve, submit_once, Endpoint, ServeOptions};
