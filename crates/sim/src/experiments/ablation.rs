//! Ablation studies for the design choices the paper motivates but does
//! not plot: strict convergence, hierarchy shape and lonely-request
//! merging.

use mocktails_core::{HierarchyConfig, LayerSpec, ModelOptions, Profile};
use mocktails_trace::Trace;
use mocktails_workloads::catalog;

use crate::error::pct_error;
use crate::harness::{dram_run, EvalOptions};
use crate::table::TextTable;

/// Errors of one fitted configuration against the baseline replay.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Trace name.
    pub trace: &'static str,
    /// Configuration label.
    pub label: String,
    /// Number of leaves in the profile.
    pub leaves: usize,
    /// % error of read row hits.
    pub read_row_hit_error: f64,
    /// % error of write row hits.
    pub write_row_hit_error: f64,
    /// % error of average access latency.
    pub latency_error: f64,
}

fn measure(
    trace_name: &'static str,
    trace: &Trace,
    label: &str,
    config: &HierarchyConfig,
    options: &EvalOptions,
) -> AblationRow {
    let profile = Profile::fit(trace, config);
    let synth = profile.synthesize(options.seed);
    let base = dram_run(trace, options);
    let got = dram_run(&synth, options);
    let leaves = profile.leaves().len();
    AblationRow {
        trace: trace_name,
        label: label.to_string(),
        leaves,
        read_row_hit_error: pct_error(
            base.total_read_row_hits() as f64,
            got.total_read_row_hits() as f64,
        ),
        write_row_hit_error: pct_error(
            base.total_write_row_hits() as f64,
            got.total_write_row_hits() as f64,
        ),
        latency_error: pct_error(base.avg_access_latency(), got.avg_access_latency()),
    }
}

fn load(name: &'static str, options: &EvalOptions) -> Trace {
    let trace = catalog::by_name(name).expect("known trace").generate(); // lint: allow(L001, name is a Table II constant present in the catalog)
    match options.max_requests {
        Some(n) if trace.len() > n => trace.truncate_to(n),
        _ => trace,
    }
}

/// Traces used by the ablations: one per device.
pub const ABLATION_TRACES: [&str; 4] = ["Crypto1", "FBC-Linear1", "T-Rex1", "HEVC1"];

/// Ablation: strict convergence on vs. off (§III-C).
pub fn convergence(options: &EvalOptions) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for name in ABLATION_TRACES {
        let trace = load(name, options);
        for (label, strict) in [("strict", true), ("stationary", false)] {
            let config = HierarchyConfig::two_level_ts(options.cycles_per_phase).with_options(
                ModelOptions {
                    strict_convergence: strict,
                    merge_lonely: true,
                    merge_similar: false,
                },
            );
            rows.push(measure(name, &trace, label, &config, options));
        }
    }
    rows
}

/// Ablation: hierarchy shape — temporal-only, spatial-only, 2L-TS, 2L-ST
/// (§III-D recommends temporal-first two-level hierarchies).
pub fn hierarchy(options: &EvalOptions) -> Vec<AblationRow> {
    let configs: Vec<(&str, HierarchyConfig)> = vec![
        (
            "1L-T",
            HierarchyConfig::builder()
                .layer(LayerSpec::TemporalCycleCount(options.cycles_per_phase))
                .build()
                // lint: allow(L001, cycles_per_phase is validated non-zero by the caller)
                .expect("single temporal layer is a valid hierarchy"),
        ),
        (
            "1L-S",
            HierarchyConfig::builder()
                .layer(LayerSpec::SpatialDynamic)
                .build()
                // lint: allow(L001, a dynamic spatial layer has no parameter to invalidate)
                .expect("single spatial layer is a valid hierarchy"),
        ),
        (
            "2L-TS",
            HierarchyConfig::two_level_ts(options.cycles_per_phase),
        ),
        ("2L-ST", HierarchyConfig::two_level_st(4)),
    ];
    let mut rows = Vec::new();
    for name in ABLATION_TRACES {
        let trace = load(name, options);
        for (label, config) in &configs {
            rows.push(measure(name, &trace, label, config, options));
        }
    }
    rows
}

/// Ablation: lonely-request merging on vs. off (§III-A).
pub fn lonely(options: &EvalOptions) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for name in ABLATION_TRACES {
        let trace = load(name, options);
        for (label, merge) in [("merge-lonely", true), ("keep-singletons", false)] {
            let config = HierarchyConfig::two_level_ts(options.cycles_per_phase).with_options(
                ModelOptions {
                    strict_convergence: true,
                    merge_lonely: merge,
                    merge_similar: false,
                },
            );
            rows.push(measure(name, &trace, label, &config, options));
        }
    }
    rows
}

/// Ablation: HALO-style similar-region merging on vs. off (§III-A cites
/// the option from prior art; Mocktails leaves it off by default).
pub fn similar(options: &EvalOptions) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for name in ABLATION_TRACES {
        let trace = load(name, options);
        for (label, merge) in [("no-merge", false), ("merge-similar", true)] {
            let config = HierarchyConfig::two_level_ts(options.cycles_per_phase).with_options(
                ModelOptions {
                    strict_convergence: true,
                    merge_lonely: true,
                    merge_similar: merge,
                },
            );
            rows.push(measure(name, &trace, label, &config, options));
        }
    }
    rows
}

/// Renders any ablation's rows.
pub fn report(title: &str, rows: &[AblationRow]) -> String {
    let mut t = TextTable::new(vec![
        "Trace",
        "Config",
        "Leaves",
        "RdRowHit Err%",
        "WrRowHit Err%",
        "Latency Err%",
    ]);
    for row in rows {
        t.row(vec![
            row.trace.to_string(),
            row.label.clone(),
            row.leaves.to_string(),
            format!("{:.2}", row.read_row_hit_error),
            format!("{:.2}", row.write_row_hit_error),
            format!("{:.2}", row.latency_error),
        ]);
    }
    format!("{title}\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> EvalOptions {
        EvalOptions {
            max_requests: Some(2_000),
            ..EvalOptions::default()
        }
    }

    #[test]
    fn convergence_rows_cover_both_modes() {
        let rows = convergence(&quick());
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().any(|r| r.label == "strict"));
        assert!(rows.iter().any(|r| r.label == "stationary"));
    }

    #[test]
    fn hierarchy_rows_cover_four_shapes() {
        let rows = hierarchy(&quick());
        assert_eq!(rows.len(), 16);
        // Two-level hierarchies refine partitions: at least as many leaves
        // as their single-level prefixes.
        for name in ABLATION_TRACES {
            let get = |label: &str| {
                rows.iter()
                    .find(|r| r.trace == name && r.label == label)
                    .unwrap()
                    .leaves
            };
            assert!(get("2L-TS") >= get("1L-T"), "{name}");
        }
    }

    #[test]
    fn lonely_merge_reduces_leaf_count() {
        let rows = lonely(&quick());
        for name in ABLATION_TRACES {
            let merged = rows
                .iter()
                .find(|r| r.trace == name && r.label == "merge-lonely")
                .unwrap()
                .leaves;
            let kept = rows
                .iter()
                .find(|r| r.trace == name && r.label == "keep-singletons")
                .unwrap()
                .leaves;
            assert!(merged <= kept, "{name}: merged {merged} > kept {kept}");
        }
    }

    #[test]
    fn similar_merge_never_increases_leaf_count() {
        let rows = similar(&quick());
        for name in ABLATION_TRACES {
            let plain = rows
                .iter()
                .find(|r| r.trace == name && r.label == "no-merge")
                .unwrap()
                .leaves;
            let merged = rows
                .iter()
                .find(|r| r.trace == name && r.label == "merge-similar")
                .unwrap()
                .leaves;
            assert!(merged <= plain, "{name}: merged {merged} > plain {plain}");
        }
    }

    #[test]
    fn report_renders() {
        let rows = convergence(&quick());
        let s = report("Ablation: strict convergence", &rows);
        assert!(s.contains("strict"));
        assert!(s.lines().count() > 5);
    }
}
