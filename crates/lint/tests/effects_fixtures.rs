//! Effect-rule fixtures: a three-hop L016 panic chain out of the
//! synthesis iterator, L017 blocking two calls behind the reactor sweep,
//! an L018 allocation in a nested hot loop and a per-service `.collect()`
//! in the DRAM crate, and an L019 capped-vs-uncapped growth pair. Each
//! failing fixture carries a clean sibling in the same file, so every test
//! pins both the hit and the non-hit.

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
    let dir = std::env::temp_dir().join(format!("mocktails-lint-eff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Lints one fixture as if it lived at `scope` inside the workspace and
/// returns the `(line, rule, message)` of every effect-rule diagnostic.
fn effect_diags(fixture_name: &str, scope: &str, tag: &str) -> Vec<(usize, &'static str, String)> {
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
        .filter(|d| matches!(d.rule, "L016" | "L017" | "L018" | "L019"))
        .map(|d| (d.line, d.rule, d.message))
        .collect()
}

#[test]
fn l016_fixture_reports_the_three_hop_panic_chain() {
    let scope = "crates/core/src/synth/mod.rs";
    let got = effect_diags("effects/l016_chain.rs", scope, "l016");
    assert_eq!(got.len(), 1, "{got:?}");
    let (line, rule, msg) = &got[0];
    assert_eq!((*line, *rule), (19, "L016"), "{got:?}");
    assert!(
        msg.contains("Synthesizer::next"),
        "chain names the synthesis entry: {msg}"
    );
    // Entry declaration, both intermediate call sites, then the panic
    // site itself — the full hop-by-hop provenance.
    for step in [
        &format!("{scope}:8"),
        &format!("{scope}:9"),
        &format!("{scope}:14"),
        &format!("{scope}:19"),
    ] {
        assert!(msg.contains(step.as_str()), "chain lists {step}: {msg}");
    }
    assert!(msg.contains("unwrap"), "names the panic source: {msg}");
}

#[test]
fn l016_reports_integer_division_but_not_division_after_a_float_cast() {
    let scope = "crates/core/src/synth/mod.rs";
    let got = effect_diags("effects/l016_float_div.rs", scope, "l016-float");
    assert_eq!(got.len(), 1, "{got:?}");
    let (line, rule, msg) = &got[0];
    assert_eq!((*line, *rule), (17, "L016"), "{got:?}");
    assert!(msg.contains("non-constant divisor"), "{msg}");
}

#[test]
fn l017_fixture_reports_blocking_behind_the_sweep() {
    let scope = "crates/serve/src/reactor.rs";
    let got = effect_diags("effects/l017_block.rs", scope, "l017");
    assert_eq!(got.len(), 1, "{got:?}");
    let (line, rule, msg) = &got[0];
    assert_eq!((*line, *rule), (12, "L017"), "{got:?}");
    assert!(msg.contains("sleep"), "names the blocking op: {msg}");
    // run:3 declares the entry, run:4 calls pump, pump:8 calls fetch,
    // fetch:12 blocks.
    for step in [
        &format!("{scope}:3"),
        &format!("{scope}:4"),
        &format!("{scope}:8"),
        &format!("{scope}:12"),
    ] {
        assert!(msg.contains(step.as_str()), "chain lists {step}: {msg}");
    }
}

#[test]
fn l018_fixture_flags_only_the_nested_loop_allocation() {
    let got = effect_diags(
        "effects/l018_loop.rs",
        "crates/core/src/model/render.rs",
        "l018",
    );
    // `render_once` allocates outside any loop and the `Vec::new` seed
    // sits before the loop head: exactly one hit, the nested `format!`.
    assert_eq!(got.len(), 1, "{got:?}");
    let (line, rule, msg) = &got[0];
    assert_eq!((*line, *rule), (8, "L018"), "{got:?}");
    assert!(
        msg.contains("format!") && msg.contains("render_rows"),
        "{msg}"
    );
}

#[test]
fn l018_fixture_flags_a_collect_per_service_in_the_dram_crate() {
    let got = effect_diags(
        "effects/l018_collect.rs",
        "crates/dram/src/channel.rs",
        "l018-collect",
    );
    // The counting sibling allocates nothing: one hit, the `.collect()`.
    assert_eq!(got.len(), 1, "{got:?}");
    let (line, rule, msg) = &got[0];
    assert_eq!((*line, *rule), (7, "L018"), "{got:?}");
    assert!(
        msg.contains("`.collect()`") && msg.contains("precharges_collected"),
        "{msg}"
    );
    // Outside the hot-path crates the same loop is not policed.
    let cold = effect_diags(
        "effects/l018_collect.rs",
        "crates/cli/src/report.rs",
        "l018-cold",
    );
    assert!(cold.is_empty(), "{cold:?}");
}

#[test]
fn l019_fixture_flags_the_uncapped_field_and_spares_the_capped_one() {
    let got = effect_diags(
        "effects/l019_growth.rs",
        "crates/serve/src/queue.rs",
        "l019",
    );
    // `queue` is truncated in the same file, so only `log` trips the rule.
    assert_eq!(got.len(), 1, "{got:?}");
    let (line, rule, msg) = &got[0];
    assert_eq!((*line, *rule), (14, "L019"), "{got:?}");
    assert!(msg.contains("`self.log.push(..)`"), "{msg}");
}

#[test]
fn effects_fixtures_honour_allow_directives() {
    // The same three-hop chain with a waiver on the panic site must come
    // back clean: effect rules flow through the shared directive filter.
    let src = fixture("effects/l016_chain.rs").replace(
        "Some(bonus.unwrap() + cursor)",
        "// lint: allow(L016, fixture waiver)\n    Some(bonus.unwrap() + cursor)",
    );
    let files = vec![analyze_source(
        Path::new("crates/core/src/synth/mod.rs"),
        &src,
        FileRole::Lint,
    )];
    let dir = temp_dir("l016-waived");
    let opts = CrossFileOptions {
        baselines_dir: &dir,
        update_baselines: true,
        parallelism: Parallelism::sequential(),
    };
    let diags = cross_file(&files, &opts).expect("cross-file pass");
    let _ = std::fs::remove_dir_all(&dir);
    let effect: Vec<_> = diags.iter().filter(|d| d.rule == "L016").collect();
    assert!(effect.is_empty(), "{effect:?}");
}
