//! Memory request traces for the Mocktails reproduction.
//!
//! This crate is the substrate every other crate in the workspace builds on.
//! It defines:
//!
//! * [`Request`] — a single memory request with the four features Mocktails
//!   models: timestamp, address, operation and size (ISCA 2020, §III).
//! * [`Op`] — the read/write operation of a request.
//! * [`Trace`] — an ordered sequence of requests with convenient statistics.
//! * [`AddrRange`] — half-open address intervals used by spatial partitioning.
//! * [`codec`] — a compact, self-contained binary format for traces (the
//!   paper uses protobuf + gzip; we substitute a varint/zigzag delta codec so
//!   the workspace has no codegen dependency).
//! * [`TraceStats`] and [`BinnedCounts`] — trace-level summary statistics
//!   (request mix, footprint, burstiness histograms).
//! * [`rng`] — the workspace's deterministic pseudo-random generators
//!   (SplitMix64, xoshiro256**), so synthesis never depends on an external
//!   RNG crate or its version-to-version stream changes.
//! * [`DecodeLimits`] and [`DecodeOptions`] — resource limits and the
//!   validation toggle applied to untrusted encodings, turning hostile
//!   length fields into typed [`TraceError::LimitExceeded`] errors instead
//!   of allocation storms.
//! * [`fingerprint`] — an order-sensitive FNV-1a fingerprint over a trace's
//!   request stream, the workspace's cross-thread-count determinism probe.
//! * [`fault`] — deterministic I/O fault injection ([`fault::FaultyReader`],
//!   [`fault::FaultyWriter`]) and crash-safe atomic file writes.
//! * [`fuzz`] — the seeded mutational fuzz harness that gates both codecs
//!   in tier-1 CI.
//!
//! # Example
//!
//! ```
//! use mocktails_trace::{Op, Request, Trace};
//!
//! let trace = Trace::from_requests(vec![
//!     Request::new(0, 0x1000, Op::Read, 64),
//!     Request::new(10, 0x1040, Op::Read, 64),
//!     Request::new(25, 0x2000, Op::Write, 128),
//! ]);
//!
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace.reads(), 2);
//! assert_eq!(trace.writes(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod error;
pub mod fault;
mod fingerprint;
pub mod fuzz;
mod limits;
mod range;
mod request;
pub mod rng;
mod stats;
mod trace;
pub mod transform;

pub use error::TraceError;
pub use fingerprint::{fingerprint, fnv1a, Fingerprinter};
pub use limits::{checked_usize, DecodeLimits, DecodeOptions};
pub use range::AddrRange;
pub use request::{Op, Request};
pub use stats::{BinnedCounts, TraceStats};
pub use trace::Trace;
