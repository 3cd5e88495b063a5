//! One module per table/figure of the paper's evaluation.
//!
//! Every experiment exposes a data-returning `run` function plus a
//! `report` wrapper that renders the same rows/series the paper plots.
//! [`registry`] pairs each report with its experiment id and picks its
//! options: quick mode trades trace length for runtime (smoke runs),
//! full-size runs are what EXPERIMENTS.md records.

pub(crate) mod ablation;
pub(crate) mod cache;
pub(crate) mod dram;
pub mod meta;
pub(crate) mod policy;
pub mod registry;
pub(crate) mod soc;
