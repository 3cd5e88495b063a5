//! The experiment registry: one entry per table, figure, ablation and
//! study that `mocktails experiment <id>` regenerates.
//!
//! This table is the only place that picks run options per experiment.
//! Quick mode uses [`EvalOptions::quick`], [`CacheEvalOptions::quick`] and
//! a three-point Fig. 13 sweep; full mode uses the defaults, which are the
//! runs EXPERIMENTS.md records.
//!
//! ```
//! use mocktails_sim::experiments::registry;
//!
//! let report = registry::run("table1", true).unwrap();
//! assert!(report.starts_with("Table I"));
//! assert!(registry::run("fig99", true).is_none());
//! ```

use super::{ablation, cache, dram, meta, policy, soc};
use crate::harness::{CacheEvalOptions, EvalOptions};

/// One regenerable experiment: its id and the function rendering its
/// report.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `mocktails experiment` accepts.
    pub id: &'static str,
    render: fn(bool) -> String,
}

impl Experiment {
    /// Renders the report; `quick` trades trace length for runtime.
    pub fn report(&self, quick: bool) -> String {
        (self.render)(quick)
    }
}

const fn entry(id: &'static str, render: fn(bool) -> String) -> Experiment {
    Experiment { id, render }
}

/// Every experiment, in the order `mocktails experiment all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    entry("table1", |_| meta::table1_report()),
    entry("table2", |_| meta::table2_report()),
    entry("table3", |_| meta::table3_report()),
    entry("fig02", |_| meta::fig02_report()),
    entry("fig03", |_| meta::fig03_report()),
    entry("fig06", |q| dram::fig06_report(&dram_options(q))),
    entry("fig07", |q| dram::fig07_report(&dram_options(q))),
    entry("fig08", |q| dram::fig08_report(&dram_options(q))),
    entry("fig09", |q| dram::fig09_report(&dram_options(q))),
    entry("fig10", |q| dram::fig10_report(&dram_options(q))),
    entry("fig11", |q| dram::fig11_report(&dram_options(q))),
    entry("fig12", |q| dram::fig12_report(&dram_options(q))),
    entry("fig13", |q| {
        let intervals = if q {
            vec![100_000, 500_000, 1_000_000]
        } else {
            dram::fig13_intervals()
        };
        dram::fig13_report(&intervals, &dram_options(q))
    }),
    entry("fig14", |q| cache::fig14_report(&cache_options(q))),
    entry("fig15", |q| cache::fig15_report(&cache_options(q))),
    entry("fig16", |q| cache::fig16_report(&cache_options(q))),
    entry("fig17", |q| meta::fig17_report(&cache_options(q))),
    entry("ablation-convergence", |q| {
        ablation::report(
            "Strict convergence on/off",
            &ablation::convergence(&dram_options(q)),
        )
    }),
    entry("ablation-hierarchy", |q| {
        ablation::report("Hierarchy shape", &ablation::hierarchy(&dram_options(q)))
    }),
    entry("ablation-lonely", |q| {
        ablation::report(
            "Lonely-request merging",
            &ablation::lonely(&dram_options(q)),
        )
    }),
    entry("ablation-similar", |q| {
        ablation::report(
            "HALO-style similar-region merging",
            &ablation::similar(&dram_options(q)),
        )
    }),
    entry("policies", |q| policy::report(&dram_options(q))),
    entry("obfuscation", |q| {
        meta::obfuscation_report(&dram_options(q))
    }),
    entry("soc", |q| soc::report(&dram_options(q))),
];

/// Renders the report of experiment `id`, or `None` for an unknown id.
pub fn run(id: &str, quick: bool) -> Option<String> {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .map(|e| e.report(quick))
}

fn dram_options(quick: bool) -> EvalOptions {
    if quick {
        EvalOptions::quick()
    } else {
        EvalOptions::default()
    }
}

fn cache_options(quick: bool) -> CacheEvalOptions {
    if quick {
        CacheEvalOptions::quick()
    } else {
        CacheEvalOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids the CLI's usage text listed before it was rendered from
    /// this table; every one must stay runnable.
    const CLI_IDS: [&str; 24] = [
        "table1",
        "table2",
        "table3",
        "fig02",
        "fig03",
        "fig06",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "ablation-convergence",
        "ablation-hierarchy",
        "ablation-lonely",
        "ablation-similar",
        "policies",
        "obfuscation",
        "soc",
    ];

    #[test]
    fn ids_are_unique_and_cover_the_cli_list() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment id");
        for id in CLI_IDS {
            assert!(ids.contains(&id), "{id} missing from the registry");
        }
    }

    #[test]
    fn run_looks_up_by_id() {
        assert!(run("fig99", true).is_none());
        assert!(run("all", true).is_none());
        let table1 = run("table1", true).expect("table1 is registered");
        assert!(table1.starts_with("Table I:"), "{table1}");
    }
}
