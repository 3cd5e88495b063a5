//! # Mocktails
//!
//! A comprehensive Rust reproduction of *"Mocktails: Capturing the Memory
//! Behaviour of Proprietary Mobile Architectures"* (Badr, Jagtap, Delconte,
//! Andreozzi, Edo, Enright Jerger — ISCA 2020).
//!
//! Mocktails is a statistical-simulation methodology: fit a compact,
//! obfuscating *profile* to a memory request trace, then synthesize fresh
//! request streams whose interaction with the memory system (DRAM
//! controller scheduling, caches) closely matches the original — without
//! revealing the proprietary trace.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`pool`] | `mocktails-pool` | Deterministic scoped thread pool (`Parallelism`) |
//! | [`trace`] | `mocktails-trace` | Requests, traces, stats, binary codec |
//! | [`core`] | `mocktails-core` | Partitioning, McC models, synthesis, profiles |
//! | [`workloads`] | `mocktails-workloads` | Synthetic Table II traces + SPEC-like suite |
//! | [`baselines`] | `mocktails-baselines` | STM and HRD comparison models |
//! | [`dram`] | `mocktails-dram` | FR-FCFS DRAM controller + crossbar simulator |
//! | [`cache`] | `mocktails-cache` | L1/L2 write-back cache simulator |
//! | [`sim`] | `mocktails-sim` | Validation harness + per-figure experiments |
//! | [`store`] | `mocktails-store` | Crash-recoverable on-disk profile store (WAL + checkpoints) |
//! | [`serve`] | `mocktails-serve` | Streaming synthesis server, client, profile cache |
//!
//! The most common flow is also re-exported at the top level:
//!
//! ```
//! use mocktails::{HierarchyConfig, Profile};
//! use mocktails::trace::{Request, Trace};
//!
//! let trace = Trace::from_requests(
//!     (0..500u64).map(|i| Request::read(i * 10, 0x1000 + (i % 64) * 64, 64)).collect(),
//! );
//! // Fit the paper's 2L-TS profile and synthesize a stand-in stream.
//! let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500_000));
//! let synthetic = profile.synthesize(42);
//! assert_eq!(synthetic.len(), trace.len());
//! ```

#![warn(missing_docs)]

pub use mocktails_baselines as baselines;
pub use mocktails_cache as cache;
pub use mocktails_core as core;
pub use mocktails_dram as dram;
pub use mocktails_pool as pool;
pub use mocktails_serve as serve;
pub use mocktails_sim as sim;
pub use mocktails_store as store;
pub use mocktails_trace as trace;
pub use mocktails_workloads as workloads;

pub use mocktails_core::{
    ConfigBuilder, ConfigError, HierarchyConfig, LayerSpec, McC, ModelOptions, Profile, Synthesizer,
};
pub use mocktails_dram::{DramConfig, MemorySystem};
pub use mocktails_pool::Parallelism;
pub use mocktails_trace::{DecodeLimits, DecodeOptions, Op, Request, Trace};
