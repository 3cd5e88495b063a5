//! A §VI-style design-space study: memory-controller policy exploration
//! with Mocktails profiles in place of the proprietary devices.
//!
//! The paper's claim is that architects can use profiles to evaluate
//! controller optimizations (scheduling policy, page policy, read-write
//! switching). This experiment sweeps page × scheduling policies for one
//! trace per device and checks the *conclusion-preserving* property: the
//! policy ranking obtained from the synthetic stream matches the ranking
//! obtained from the original trace.

use mocktails_core::{HierarchyConfig, Profile};
use mocktails_dram::{DramConfig, MemorySystem, PagePolicy, SchedulingPolicy};
use mocktails_trace::Trace;
use mocktails_workloads::catalog;

use crate::harness::EvalOptions;
use crate::table::TextTable;

/// One measurement of the policy sweep.
#[derive(Debug, Clone)]
pub struct PolicyPoint {
    /// Trace name.
    pub trace: &'static str,
    /// Page policy.
    pub page: PagePolicy,
    /// Scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Average access latency: baseline trace, Mocktails synthetic.
    pub latency: [f64; 2],
    /// Total row hits (reads + writes): baseline, synthetic.
    pub row_hits: [u64; 2],
}

/// The traces used by the study: one per device.
pub const STUDY_TRACES: [&str; 4] = ["Crypto1", "FBC-Linear1", "T-Rex1", "HEVC1"];

/// All six policy combinations.
pub fn policy_grid() -> Vec<(PagePolicy, SchedulingPolicy)> {
    let pages = [
        PagePolicy::OpenAdaptive,
        PagePolicy::Open,
        PagePolicy::Closed,
    ];
    let scheds = [SchedulingPolicy::FrFcfs, SchedulingPolicy::Fcfs];
    pages
        .iter()
        .flat_map(|&p| scheds.iter().map(move |&s| (p, s)))
        .collect()
}

fn run(trace: &Trace, page: PagePolicy, scheduling: SchedulingPolicy) -> (f64, u64) {
    let config = DramConfig {
        page_policy: page,
        scheduling,
        ..DramConfig::default()
    };
    let stats = MemorySystem::new(config).run_trace(trace);
    (
        stats.avg_access_latency(),
        stats.total_read_row_hits() + stats.total_write_row_hits(),
    )
}

/// Sweeps the policy grid over [`STUDY_TRACES`].
pub fn study(options: &EvalOptions) -> Vec<PolicyPoint> {
    let mut points = Vec::new();
    for name in STUDY_TRACES {
        let spec = catalog::by_name(name).expect("study trace in catalog"); // lint: allow(L001, STUDY_TRACES holds literal Table II names)
        let trace = {
            let t = spec.generate();
            match options.max_requests {
                Some(n) if t.len() > n => t.truncate_to(n),
                _ => t,
            }
        };
        let profile = Profile::fit(
            &trace,
            &HierarchyConfig::two_level_ts(options.cycles_per_phase),
        );
        let synthetic = profile.synthesize(options.seed);
        for (page, scheduling) in policy_grid() {
            let (base_lat, base_hits) = run(&trace, page, scheduling);
            let (synth_lat, synth_hits) = run(&synthetic, page, scheduling);
            points.push(PolicyPoint {
                trace: name,
                page,
                scheduling,
                latency: [base_lat, synth_lat],
                row_hits: [base_hits, synth_hits],
            });
        }
    }
    points
}

/// Checks the conclusion-preserving property for one trace's points: the
/// latency-order of policy pairs agrees between baseline and synthetic for
/// the clear-cut comparisons (ties within 2 % are ignored).
pub fn ranking_agreement(points: &[PolicyPoint]) -> f64 {
    let mut agree = 0usize;
    let mut total = 0usize;
    for (i, a) in points.iter().enumerate() {
        for b in points.iter().skip(i + 1) {
            if a.trace != b.trace {
                continue;
            }
            let base_gap = (a.latency[0] - b.latency[0]).abs() / a.latency[0].max(1e-9);
            if base_gap < 0.02 {
                continue; // too close to call in the baseline
            }
            total += 1;
            if (a.latency[0] < b.latency[0]) == (a.latency[1] < b.latency[1]) {
                agree += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        agree as f64 / total as f64
    }
}

/// Renders the study.
pub fn report(options: &EvalOptions) -> String {
    let points = study(options);
    let mut t = TextTable::new(vec![
        "Trace",
        "Page",
        "Sched",
        "Lat base",
        "Lat synth",
        "RowHits base",
        "RowHits synth",
    ]);
    for p in &points {
        t.row(vec![
            p.trace.to_string(),
            format!("{:?}", p.page),
            format!("{:?}", p.scheduling),
            format!("{:.1}", p.latency[0]),
            format!("{:.1}", p.latency[1]),
            p.row_hits[0].to_string(),
            p.row_hits[1].to_string(),
        ]);
    }
    let agreement = ranking_agreement(&points);
    format!(
        "Policy study (§VI): controller policies explored via profiles\n{t}\nPolicy-ranking agreement between baseline and synthetic: {:.0}%\n",
        agreement * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> EvalOptions {
        EvalOptions {
            max_requests: Some(3_000),
            ..EvalOptions::default()
        }
    }

    #[test]
    fn grid_is_full() {
        assert_eq!(policy_grid().len(), 6);
    }

    #[test]
    fn study_covers_all_traces_and_policies() {
        let points = study(&quick());
        assert_eq!(points.len(), 4 * 6);
        for p in &points {
            assert!(p.latency[0] > 0.0);
            assert!(p.latency[1] > 0.0);
        }
    }

    #[test]
    fn closed_page_is_never_better_on_row_hits() {
        let points = study(&quick());
        for p in &points {
            if p.page == PagePolicy::Closed {
                assert_eq!(p.row_hits[0], 0, "{}: closed page cannot row-hit", p.trace);
                assert_eq!(p.row_hits[1], 0);
            }
        }
    }

    #[test]
    fn synthetic_preserves_most_policy_rankings() {
        let points = study(&quick());
        let agreement = ranking_agreement(&points);
        assert!(agreement >= 0.7, "ranking agreement only {agreement}");
    }
}
