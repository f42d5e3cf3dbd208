//! Persistent simulation daemon with a content-addressed result cache.
//!
//! Batch binaries pay the full sweep cost on every invocation even when
//! most of the matrix was simulated before. This crate keeps a process
//! (and an on-disk cache) alive between requests instead:
//!
//! * [`Cache`] — `regshare_bench`'s content-addressed store of finished
//!   cells, one file per cell addressed by
//!   [`regshare_bench::cell_digest`] (workload × config digest × window),
//!   written atomically, validated on read with typed errors, LRU-evicted
//!   under an optional byte cap. Because the sweep engine is
//!   deterministic, a cache hit is byte-identical to a recomputation —
//!   caching is invisible in the output — and a cached batch run
//!   (`paper_report --cache-dir`) can warm the daemon's directory.
//! * [`engine`] — the scheduler: per-cell cache lookup, coalescing of
//!   concurrent identical requests onto one computation, a bounded
//!   worker pool behind admission control (typed
//!   [`ServeError::Busy`] when full), per-request deadlines
//!   ([`ServeError::Timeout`] — abandoned cells still finish and warm
//!   the cache).
//! * [`protocol`] — the line-delimited wire format. The `.scenario`
//!   text format *is* the request body, so anything checked in under
//!   `scenarios/` can be piped to the daemon as-is.
//! * [`server`] / [`client`] — a thread-per-connection TCP or
//!   Unix-socket listener and the matching synchronous client.
//!
//! The `serve` binary wraps it all: `serve --listen <addr>` runs the
//! daemon, `serve --client <addr> --scenario <file>` submits a request
//! (body to stdout, provenance meta line to stderr).

#![deny(missing_docs)]

pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;

pub use client::Connection;
pub use engine::{Engine, EngineConfig, Format, ServeError, ServeResponse, MAX_REQUEST_CELLS};
pub use protocol::{Reply, Request};
pub use regshare_bench::cache::{Cache, CacheError};
pub use server::{Server, ServerStop};
