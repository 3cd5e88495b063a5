//! Leaf models (paper §III-B, *Modeling the Leaves*).
//!
//! Each leaf partition is modeled feature-by-feature, under an independence
//! assumption the paper makes deliberately (it obfuscates cross-feature
//! correlations a vendor would not want to reveal). A feature with no
//! variability becomes a [`McC::Constant`]; otherwise a first-order
//! [`MarkovChain`] over observed values captures both regular and irregular
//! patterns. Sampling uses *strict convergence*: every taken transition
//! lowers its remaining count, so the synthesized multiset of values equals
//! the observed one exactly — e.g. the exact number of reads and writes.

mod leaf;
mod markov;
mod mcc;

pub(crate) use leaf::check_parts;
pub use leaf::{LeafGenerator, LeafModel};
pub(crate) use markov::{ChainAt, ChainRef, Chains, RowChecks, Span};
pub use markov::{MarkovChain, MarkovSampler};
pub use mcc::{McC, McCSampler};
