//! Validation harness and experiment drivers for the Mocktails
//! reproduction.
//!
//! The paper's validation loop is: replay an original trace into a memory
//! system, replay synthetic traces fitted to it into the *same* system, and
//! compare the metrics. This crate provides:
//!
//! * [`error`] — percentage error and geometric-mean-error helpers (the
//!   aggregation the paper's Figs. 6, 9 and 13 use).
//! * [`harness`] — one-call evaluation of a trace or the whole Table II
//!   catalog against the DRAM system (baseline vs. `2L-TS (McC)` vs.
//!   `2L-TS (STM)`), and of the SPEC-like suite against the cache hierarchy
//!   (baseline vs. Mocktails(Dynamic) vs. Mocktails(4KB) vs. HRD).
//! * [`experiments`] — one module per table/figure of the paper, each
//!   returning structured rows plus a formatted report, and the
//!   [`experiments::registry`] the `mocktails experiment` command runs.
//! * [`table`] — plain-text table formatting shared by all reports.
//!
//! # Example
//!
//! ```no_run
//! use mocktails_sim::harness::{evaluate_dram, EvalOptions};
//! use mocktails_workloads::catalog;
//!
//! let spec = catalog::by_name("FBC-Linear1").unwrap();
//! let eval = evaluate_dram(&spec, &EvalOptions::quick());
//! println!(
//!     "read row hits: base {} vs McC {}",
//!     eval.base.total_read_row_hits(),
//!     eval.mcc.total_read_row_hits()
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod experiments;
pub mod harness;
pub mod privacy;
pub mod similarity;
pub mod table;
