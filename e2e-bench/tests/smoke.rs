//! Every workload at smoke scale (traces cut to 2000 requests, one set-up,
//! one timed pass, 8 served calls), untraced and traced: every output
//! check passes, every metric `BENCHMARK.json` declares is emitted with
//! its unit, and the traced layer self times plus the gap add up to the
//! traced passes' wall time.

use mocktails_e2e_bench::{run, Config, Outcome, Scale, Workload, END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let end = text[start..].find(']').map_or(text.len(), |i| start + i);
    let field = |line: &str, key: &str| {
        let from = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[from..].find('"')?;
        Some(line[from..from + len].to_string())
    };
    text[start..end]
        .lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let outcome = run(&Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    });
    assert!(
        outcome.failures.is_empty(),
        "{} failed its checks: {:#?}\n{}",
        workload.name(),
        outcome.failures,
        outcome.report.join("\n")
    );
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    let json = outcome.result_json().expect("a result line");
    assert!(json.starts_with("{\"correct\": true, "), "{json}");

    let section = if trace { "per_layer" } else { "end_to_end" };
    let emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(emitted, declared(section), "{} {section}", workload.name());
    outcome
}

fn check_workload(workload: Workload) {
    smoke(workload, false);
    let traced = smoke(workload, true);
    let b = traced.breakdown.expect("a traced run has a breakdown");
    let layers: f64 = b
        .names
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, t)| t.self_ns as f64 * 1e-9)
        .sum();
    let wall = b.roots_s();
    assert!(wall > 0.0);
    assert_eq!(b.overlap_ns, 0);
    assert!(
        (layers + b.gap_s() - wall).abs() <= 0.02 * wall,
        "{}: layers {layers} + gap {} != traced wall {wall}",
        workload.name(),
        b.gap_s()
    );
    assert!(!traced.spans.is_empty());
}

#[test]
fn declared_metrics_match_the_code() {
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
}

#[test]
fn model() {
    check_workload(Workload::Model);
}

#[test]
fn validate() {
    check_workload(Workload::Validate);
}

#[test]
fn serve_fit() {
    check_workload(Workload::ServeFit);
}

#[test]
fn serve_stream() {
    check_workload(Workload::ServeStream);
}
