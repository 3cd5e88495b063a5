//! The linter is part of the reproducibility story, so it must itself be
//! reproducible: two runs over the same tree produce byte-identical
//! reports, and the workspace it ships with must be clean.

use std::path::PathBuf;

use mocktails_lint::{run, run_with, RunOptions};
use mocktails_pool::Parallelism;

fn crates_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn two_runs_are_byte_identical() {
    let a = run(&crates_root()).expect("workspace is readable");
    let b = run(&crates_root()).expect("workspace is readable");
    assert_eq!(a, b);
    assert_eq!(a.to_string().into_bytes(), b.to_string().into_bytes());
    assert!(a.files_checked > 50, "walks the whole workspace");
}

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    let report_at = |threads: usize| {
        let options = RunOptions {
            parallelism: Parallelism::new(threads),
            ..RunOptions::default()
        };
        run_with(&crates_root(), &options).expect("workspace is readable")
    };
    let sequential = report_at(1);
    for threads in [2, 8] {
        let parallel = report_at(threads);
        assert_eq!(
            sequential.to_json().into_bytes(),
            parallel.to_json().into_bytes(),
            "JSON report differs at {threads} threads"
        );
        assert_eq!(
            sequential.to_string().into_bytes(),
            parallel.to_string().into_bytes(),
            "text report differs at {threads} threads"
        );
    }
}

#[test]
fn json_report_of_the_workspace_is_versioned_and_clean() {
    let report = run(&crates_root()).expect("workspace is readable");
    let json = report.to_json();
    assert!(json.starts_with("{\n  \"schema_version\": 2,\n  \"tool\": \"mocktails-lint\""));
    assert!(json.ends_with("\n"), "document ends with a newline");
    assert!(json.contains("\"clean\": true"));
}

#[test]
fn effects_pass_is_byte_identical_across_thread_counts() {
    // The effects pass has its own second level of parallelism (the
    // per-function direct-site scan), so it gets its own 1/2/8-thread pin
    // with every other rule filtered out.
    let report_at = |threads: usize| {
        let options = RunOptions {
            parallelism: Parallelism::new(threads),
            rules: Some(
                ["L016", "L017", "L018", "L019"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
            ),
            ..RunOptions::default()
        };
        run_with(&crates_root(), &options).expect("workspace is readable")
    };
    let sequential = report_at(1);
    for threads in [2, 8] {
        let parallel = report_at(threads);
        assert_eq!(
            sequential.to_json().into_bytes(),
            parallel.to_json().into_bytes(),
            "effects JSON report differs at {threads} threads"
        );
    }
}

#[test]
fn the_workspace_is_lint_clean() {
    let report = run(&crates_root()).expect("workspace is readable");
    assert!(
        report.is_clean(),
        "violations:\n{report}every diagnostic must be fixed or allowlisted with a reason"
    );
}
