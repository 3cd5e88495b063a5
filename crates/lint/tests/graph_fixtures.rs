//! Cross-file rule fixtures: L009 dead-surface detection over a two-file
//! crate, L010 baseline snapshots (render pinned to a committed `.api`
//! fixture, then round-tripped and broken), and the L012–L014
//! lock-discipline rules over seeded failing and clean fixtures.

use std::path::{Path, PathBuf};

use mocktails_lint::graph::{analyze_source, cross_file, CrossFileOptions, FileRole};
use mocktails_pool::Parallelism;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(p).expect("fixture exists")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocktails-lint-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Lints one fixture as if it lived at `scope` inside the workspace and
/// returns the `(line, rule, message)` of every lock-rule diagnostic.
fn lock_diags(fixture_name: &str, scope: &str, tag: &str) -> Vec<(usize, &'static str, String)> {
    let files = vec![analyze_source(
        Path::new(scope),
        &fixture(fixture_name),
        FileRole::Lint,
    )];
    let dir = temp_dir(tag);
    let opts = CrossFileOptions {
        baselines_dir: &dir,
        update_baselines: true,
        parallelism: Parallelism::sequential(),
    };
    let diags = cross_file(&files, &opts).expect("cross-file pass");
    let _ = std::fs::remove_dir_all(&dir);
    diags
        .into_iter()
        .filter(|d| matches!(d.rule, "L012" | "L013" | "L014"))
        .map(|d| (d.line, d.rule, d.message))
        .collect()
}

#[test]
fn l012_fixture_reports_the_opposite_order_cycle() {
    let got = lock_diags("locks/l012_cycle.rs", "crates/fix/src/locks.rs", "l012");
    assert_eq!(got.len(), 1, "{got:?}");
    let (line, rule, msg) = &got[0];
    assert_eq!((*line, *rule), (15, "L012"), "{got:?}");
    assert!(
        msg.contains("`fix::alpha` -> `fix::beta`") && msg.contains("crates/fix/src/locks.rs:15"),
        "cycle lists the forward edge with its site: {msg}"
    );
    assert!(
        msg.contains("`fix::beta` -> `fix::alpha`") && msg.contains("crates/fix/src/locks.rs:22"),
        "cycle lists the reverse edge with its site: {msg}"
    );
}

#[test]
fn l012_fixture_consistent_order_and_loop_rebinds_are_clean() {
    // `pump` is the pool's worker-loop shape: the guard is rebound every
    // iteration, so the back edge must not smuggle it into the next one
    // (that false self-cycle is exactly what the back-edge scope kill
    // prevents).
    let got = lock_diags("locks/l012_ordered.rs", "crates/fix/src/locks.rs", "l012ok");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn l013_fixture_reports_direct_and_transitive_blocking() {
    let got = lock_diags("locks/l013_blocking.rs", "crates/fix/src/net.rs", "l013");
    let lines: Vec<(usize, &str)> = got.iter().map(|(l, r, _)| (*l, *r)).collect();
    assert_eq!(lines, vec![(9, "L013"), (15, "L013")], "{got:?}");
    assert!(
        got[0].2.contains("blocking call `recv`") && got[0].2.contains("`fix::queue`"),
        "direct finding names the marker and the lock: {}",
        got[0].2
    );
    assert!(
        got[1].2.contains("call to `fetch` reaches blocking `recv`"),
        "transitive finding names the call chain's root: {}",
        got[1].2
    );
}

#[test]
fn l013_fixture_release_first_and_condvar_wait_are_clean() {
    let got = lock_diags("locks/l013_clean.rs", "crates/fix/src/net.rs", "l013ok");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn l013_fixture_scopes_a_guard_to_its_match_arm() {
    let got = lock_diags(
        "locks/l013_match_arm.rs",
        "crates/fix/src/store.rs",
        "l013arm",
    );
    let lines: Vec<(usize, &str)> = got.iter().map(|(l, r, _)| (*l, *r)).collect();
    assert_eq!(lines, vec![(27, "L013")], "{got:?}");
    assert!(
        got[0].2.contains("blocking call `recv`") && got[0].2.contains("`fix::log`"),
        "the blocking call inside the guard's own arm is still reported: {}",
        got[0].2
    );
}

#[test]
fn l014_fixture_reports_guards_pinned_across_iterations() {
    let got = lock_diags("locks/l014_loop.rs", "crates/core/src/fixture.rs", "l014");
    let lines: Vec<(usize, &str)> = got.iter().map(|(l, r, _)| (*l, *r)).collect();
    assert_eq!(lines, vec![(7, "L014"), (19, "L014")], "{got:?}");
    assert!(
        got[0].2.contains("guard `g`") && got[0].2.contains("`sum_rounds`"),
        "named-binding form: {}",
        got[0].2
    );
    assert!(
        got[1].2.contains("`<temporary>`") && got[1].2.contains("`drain_pinned`"),
        "iterator-temporary form: {}",
        got[1].2
    );
}

#[test]
fn l014_fixture_collect_then_iterate_and_per_iteration_guards_are_clean() {
    let got = lock_diags(
        "locks/l014_clean.rs",
        "crates/core/src/fixture.rs",
        "l014ok",
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn l014_fixture_is_silent_off_the_policed_crates() {
    // The same pinned-guard fixture relinted as a dram file: the rule
    // only polices the streaming/synthesis crates.
    let got = lock_diags(
        "locks/l014_loop.rs",
        "crates/dram/src/fixture.rs",
        "l014off",
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn allow_file_directive_waives_lock_rules_module_wide() {
    let got = lock_diags("locks/allow_file.rs", "crates/fix/src/waived.rs", "l0af");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn l009_fixture_flags_dead_surface_only() {
    let files = vec![
        analyze_source(
            Path::new("crates/fix/src/surface.rs"),
            &fixture("l009/surface.rs"),
            FileRole::Lint,
        ),
        analyze_source(
            Path::new("crates/fix/src/consumer.rs"),
            &fixture("l009/consumer.rs"),
            FileRole::Lint,
        ),
    ];
    let dir = temp_dir("l009");
    let opts = CrossFileOptions {
        baselines_dir: &dir,
        update_baselines: true,
        parallelism: Parallelism::sequential(),
    };
    let diags = cross_file(&files, &opts).expect("cross-file pass");
    let l009: Vec<String> = diags
        .iter()
        .filter(|d| d.rule == "L009")
        .map(|d| d.message.clone())
        .collect();
    assert!(
        l009.iter().any(|m| m.contains("`pub fn orphan_entry`")),
        "unreferenced item must be dead: {l009:?}"
    );
    assert!(
        l009.iter().any(|m| m.contains("`pub fn self_caller`")),
        "recursion is not a reference: {l009:?}"
    );
    assert!(
        !l009.iter().any(|m| m.contains("`pub fn shared_entry`")),
        "a cross-file call keeps the item alive: {l009:?}"
    );
    assert!(
        !l009.iter().any(|m| m.contains("`pub fn total`")),
        "a same-file test reference keeps the item alive: {l009:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn l010_fixture_render_is_pinned_and_breaks_are_caught() {
    let src = fixture("l010/lib.rs");
    let lint = |source: &str, dir: &Path, update: bool| {
        let files = vec![analyze_source(
            Path::new("crates/fixcrate/src/lib.rs"),
            source,
            FileRole::Lint,
        )];
        let opts = CrossFileOptions {
            baselines_dir: dir,
            update_baselines: update,
            parallelism: Parallelism::sequential(),
        };
        cross_file(&files, &opts).expect("cross-file pass")
    };
    let dir = temp_dir("l010");

    // Update mode writes the baseline, whose exact rendering is pinned
    // by the committed fixture.
    lint(&src, &dir, true);
    let written = std::fs::read_to_string(dir.join("fixcrate.api")).expect("baseline written");
    assert_eq!(written, fixture("l010/expected.api"));
    assert!(
        written.contains("[deprecated]"),
        "the deprecated shim is pinned"
    );
    assert!(
        !written.contains("Internal") && !written.contains("private_helper"),
        "private items stay out of the surface"
    );

    // Diff mode against the fresh baseline: clean.
    let diags = lint(&src, &dir, false);
    assert!(diags.iter().all(|d| d.rule != "L010"), "{diags:?}");

    // An undeclared addition fails the gate at the new item's site.
    let grown = format!("{src}\n/// New.\npub fn undeclared_addition() -> u64 {{ 2 }}\n");
    let diags = lint(&grown, &dir, false);
    assert!(diags.iter().any(|d| d.rule == "L010"
        && d.message.contains("addition")
        && d.message.contains("undeclared_addition")
        && d.file == "crates/fixcrate/src/lib.rs"));

    // A removal fails it at the baseline line that disappeared.
    let shrunk = src.replace("pub const BLOCK_BYTES: u64 = 64;", "");
    let diags = lint(&shrunk, &dir, false);
    assert!(diags.iter().any(|d| d.rule == "L010"
        && d.message.contains("removal")
        && d.message.contains("BLOCK_BYTES")));
    let _ = std::fs::remove_dir_all(&dir);
}
