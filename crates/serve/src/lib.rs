//! mocktails-serve: a zero-dependency streaming synthesis server.
//!
//! The paper's workflow is offline: record a trace, fit a profile,
//! synthesize a proxy. This crate puts that pipeline behind a socket so
//! many simulator frontends can share one fitting service and its
//! profile cache. Everything is `std`-only — the server is a
//! [`std::net::TcpListener`], a bounded
//! [`mocktails_pool::bounded::WorkerPool`], and a length-prefixed binary
//! protocol; there is no async runtime and no serialization dependency.
//!
//! Layering, bottom up:
//!
//! * [`frame`] — length-prefixed framing with typed truncation/oversize
//!   errors and clean-EOF detection.
//! * [`protocol`] — versioned request/response messages over frames.
//! * [`error`] — [`error::ErrorCode`] (the wire-level failure taxonomy)
//!   and [`error::ServeError`].
//! * [`cache`] — the content-fingerprint-keyed LRU profile cache
//!   ([`cache::ProfileCache`], one per server, with fit-key aliases).
//! * [`metrics`] — atomic counters and histograms with a deterministic
//!   text rendering, timed by an injectable [`metrics::Clock`].
//! * `conn` / `reactor` (private) — the readiness-driven event loop: one
//!   thread owns every socket; compute runs on the worker pool and
//!   responses flow back through per-connection outboxes.
//! * [`server`] / [`client`] — the two endpoints.
//!   [`server::ServerConfig::builder`] is the validated way to configure
//!   the server.
//!
//! Determinism carries through the wire: a `Synthesize` stream's
//! reassembled bytes are byte-identical to offline
//! [`mocktails_core::Profile::synthesize`] output for the same profile
//! and seed, at any worker-thread count.
//!
//! `CoupledSynthesize` closes the loop (protocol v3): it streams a
//! synthesis paced chunk-by-chunk against the [`mocktails_dram`]
//! simulator — the paper's Fig. 1 Option B against a live server, with
//! each `CoupledChunk` carrying the simulated time reached and the stalls
//! fed back.

pub mod cache;
pub mod client;
mod conn;
pub mod error;
pub mod frame;
pub mod metrics;
pub mod protocol;
mod reactor;
pub mod retry;
pub mod server;

pub use client::{
    Client, CompactOutcome, CoupledChunk, CoupledOutcome, FitOutcome, SynthOutcome, SynthStream,
};
pub use error::{ErrorCode, ServeError};
pub use metrics::{Clock, ManualClock, MonotonicClock, ServeMetrics};
pub use protocol::{ProfileSource, Request, Response, PROTOCOL_VERSION};
pub use retry::{retry_busy, RetryPolicy};
pub use server::{Server, ServerConfig, ServerConfigBuilder, ServerConfigError};
