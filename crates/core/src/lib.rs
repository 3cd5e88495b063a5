//! Mocktails: statistical simulation of the memory behaviour of
//! heterogeneous SoC compute devices.
//!
//! This crate implements the primary contribution of *"Mocktails: Capturing
//! the Memory Behaviour of Proprietary Mobile Architectures"* (ISCA 2020):
//!
//! 1. **Hierarchical partitioning** ([`partition`]) — a memory request trace
//!    is deconstructed along the temporal dimension (fixed request counts,
//!    fixed cycle windows, or a fixed number of intervals) and the spatial
//!    dimension (the paper's novel *dynamic* region discovery, Alg. 1, or
//!    fixed-size blocks). Layers compose into a hierarchy whose leaves are
//!    the units of modeling.
//! 2. **McC leaf models** ([`model`]) — each leaf models its four request
//!    features (inter-arrival delta time, address stride, operation, size)
//!    independently as either a **C**onstant or a **M**arkov **c**hain, with
//!    *strict convergence*: the synthesized feature multiset exactly matches
//!    the observed one.
//! 3. **Synthesis** ([`synth`]) — every leaf generates its partial order of
//!    requests; a priority queue merges the concurrent streams into a total
//!    order, recreating bursts and idle phases. Simulator backpressure can
//!    be fed back to shift pending timestamps.
//! 4. **Statistical profiles** ([`profile`]) — the collection of leaf models
//!    plus hierarchy metadata; serializable with a compact binary codec and
//!    far smaller than the trace it was fitted on, while hiding the original
//!    request sequence.
//!
//! # Quick start
//!
//! ```
//! use mocktails_core::{HierarchyConfig, Profile};
//! use mocktails_trace::{Request, Trace};
//!
//! // A toy trace: two interleaved streams.
//! let trace = Trace::from_requests(
//!     (0..100u64)
//!         .map(|i| Request::read(i * 10, 0x1000 + (i % 50) * 64, 64))
//!         .collect(),
//! );
//!
//! // The paper's 2L-TS configuration: temporal first, then dynamic spatial.
//! let config = HierarchyConfig::two_level_ts(500_000);
//! let profile = Profile::fit(&trace, &config);
//!
//! // Synthesize a fresh trace that mimics the original.
//! let synthetic = profile.synthesize(42);
//! assert_eq!(synthetic.len(), trace.len());
//! assert_eq!(synthetic.reads(), trace.reads());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod error;
pub mod model;
pub mod partition;
pub mod profile;
pub mod synth;
pub mod value;

pub use config::{ConfigBuilder, ConfigError, HierarchyConfig, LayerSpec, ModelOptions};
pub use error::{ProfileError, ValueError};
pub use model::{LeafGenerator, LeafModel, MarkovChain, MarkovSampler, McC, McCSampler};
pub use partition::Partition;
pub use profile::{fit_key, Profile, ProfileRecord, ProfileSummary};
pub use synth::{SynthPlan, Synthesizer};
