//! The shared call-graph propagation engine, pinned end to end. One
//! four-file fixture drives L008 taint, L013 transitive blocking and L018
//! allocation chains through a diamond, a 2-cycle, and a witness case in
//! which the smaller-named reaching callee sits later in the function
//! table than a larger-named one. Every finding is pinned as a full
//! `(line, rule, message)` triple.

use std::path::{Path, PathBuf};

use mocktails_lint::graph::{analyze_source, cross_file, CrossFileOptions, FileRole};
use mocktails_pool::Parallelism;

/// Fixture file → the workspace path it is linted as.
const FILES: [(&str, &str); 4] = [
    ("sinks.rs", "crates/core/src/sinks.rs"),
    ("taint.rs", "crates/core/src/synth/taint.rs"),
    ("locks.rs", "crates/fix/src/locks.rs"),
    ("alloc.rs", "crates/core/src/synth/alloc.rs"),
];

/// The `(line, rule, message)` of every L008/L013/L018 finding in the
/// file linted as `path`.
fn findings(path: &str) -> Vec<(usize, &'static str, String)> {
    let files: Vec<_> = FILES
        .iter()
        .map(|(name, as_path)| {
            let src = std::fs::read_to_string(
                Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("tests/fixtures/propagation")
                    .join(name),
            )
            .expect("fixture exists");
            analyze_source(Path::new(as_path), &src, FileRole::Lint)
        })
        .collect();
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "mocktails-lint-prop-{}-{}",
        path.replace('/', "_"),
        std::process::id()
    ));
    let opts = CrossFileOptions {
        baselines_dir: &dir,
        update_baselines: true,
        parallelism: Parallelism::sequential(),
    };
    let diags = cross_file(&files, &opts).expect("cross-file pass");
    let _ = std::fs::remove_dir_all(&dir);
    let mut per_file: Vec<_> = files
        .iter()
        .flat_map(|f| f.diagnostics.iter().cloned())
        .chain(diags)
        .filter(|d| d.file == path && matches!(d.rule, "L008" | "L013" | "L018"))
        .map(|d| (d.line, d.rule, d.message))
        .collect();
    per_file.sort();
    per_file
}

const TAINT: &str =
    "which transitively performs `env::var`; the synthesis path must be deterministic";
const GUARD: &str = "while holding guard `g` on `fix::queue` (acquired line 12); release the guard before blocking or allowlist with a reason";

#[test]
fn l008_taint_names_the_smallest_tainted_callee() {
    let expected: Vec<(usize, &str, String)> = [
        (6, "pick_seed", "alpha"),
        (7, "zeta", "read_seed"),
        (8, "alpha", "beta"),
        (9, "beta", "read_seed"),
        (12, "blend", "left_arm"),
        (13, "left_arm", "mix"),
        (14, "right_arm", "mix"),
        (15, "mix", "read_seed"),
        (18, "ping", "pong"),
        (19, "pong", "read_seed"),
    ]
    .iter()
    .map(|(line, caller, callee)| {
        (
            *line,
            "L008",
            format!("fn `{caller}` calls `{callee}`, {TAINT}"),
        )
    })
    .collect();
    assert_eq!(findings("crates/core/src/synth/taint.rs"), expected);
    let direct = "`env::var` on the synthesis path is nondeterministic; use a BTree collection or thread the value through explicitly";
    assert_eq!(
        findings("crates/core/src/sinks.rs"),
        vec![(7, "L008", direct.to_string())]
    );
}

#[test]
fn l013_hops_name_the_smallest_blocking_callee() {
    let msg = |callee: &str, hop: &str| {
        format!("call to `{callee}` reaches blocking `sleep` through `{hop}` {GUARD}")
    };
    assert_eq!(
        findings("crates/fix/src/locks.rs"),
        vec![
            (13, "L013", msg("settle", "aa_wait")),
            (14, "L013", msg("fan_out", "left_wait")),
            (15, "L013", msg("spin", "spun")),
        ]
    );
}

#[test]
fn l018_chains_follow_the_smallest_allocating_callee() {
    // Each chain: the call lines in alloc.rs, then the site in sinks.rs.
    let msg = |callee: &str, lines: &[usize]| {
        let mut steps: Vec<String> = lines
            .iter()
            .map(|l| format!("crates/core/src/synth/alloc.rs:{l}"))
            .collect();
        steps.push("crates/core/src/sinks.rs:11 (`Vec::new`)".to_string());
        format!(
            "call to `{callee}` inside a hot loop of `render_all` transitively allocates: {}; hoist a reusable buffer or waive with a reason",
            steps.join(" \u{2192} ")
        )
    };
    assert_eq!(
        findings("crates/core/src/synth/alloc.rs"),
        vec![
            (7, "L018", msg("pick_buf", &[16, 18, 19])),
            (8, "L018", msg("layout", &[22, 23])),
            (9, "L018", msg("cycle_a", &[27, 28])),
        ]
    );
}
