//! `mocktails-lint` — the workspace's dependency-free static-analysis
//! gate.
//!
//! A reproduction of a memory-behaviour paper lives or dies on two
//! properties: *determinism* (every fit/synthesize run must replay
//! bit-identically from a seed) and *hermeticity* (the workspace must
//! build offline, forever, with no registry access). Both are invariants
//! the type system cannot see, so this crate enforces them the way a
//! compiler would: a hand-rolled lexer ([`lexer`]) turns every source
//! file into a token skeleton, an item parser ([`parser`]) recovers the
//! AST the cross-file analyses need, a rule engine ([`rules`]) walks each
//! file, and a workspace symbol graph ([`graph`]) runs the cross-file
//! rules.
//!
//! The rules:
//!
//! * **L001** — no `unwrap()`/`expect()`/`panic!`/`todo!`/
//!   `unimplemented!` in non-test library code.
//! * **L002** — no external-crate imports; the dependency graph is std +
//!   path-only workspace members, which is what keeps offline builds
//!   possible.
//! * **L003** — every `pub` item in the foundational crates (`core`,
//!   `trace`, `dram`, `cache`) carries a doc comment.
//! * **L004** — no float-literal `==`/`!=` in model/similarity code.
//! * **L005** — no `SystemTime`/`Instant` on the synthesis path; model
//!   time comes from the fitted profile, never the wall clock.
//! * **L006** — no `io::Error::{new,other,from}` construction outside
//!   `fault.rs`; codec paths propagate real faults, never forge them.
//! * **L007** — no `std::thread`/`std::net` outside `crates/pool` and
//!   `crates/serve`; all parallelism goes through
//!   `mocktails_pool::Parallelism`, whose fixed work partitioning keeps
//!   results bit-identical at any thread count, and all networking stays
//!   behind the serving layer.
//! * **L008** — determinism taint: no `HashMap`/`HashSet` iteration or
//!   `env::var` on the fit/synthesize/codec path, nor any transitive call
//!   into a function that does; the seeded-PRNG modules are the only
//!   sanctioned randomness.
//! * **L009** — no dead `pub` surface: every exported item is referenced
//!   somewhere else in the workspace (code or cross-crate import).
//! * **L010** — public-API snapshots: each crate's exported surface is
//!   pinned in `crates/lint/baselines/<crate>.api`; undeclared drift
//!   fails the gate (`scripts/update-api-baselines.sh` declares it).
//! * **L011** — escape-hatch audit: every `unsafe` and blanket
//!   `#[allow(...)]` carries a reasoned `// lint: allow(L011, ...)`
//!   companion.
//! * **L012** — lock-order cycles: two code paths that acquire the same
//!   locks in opposite orders are a potential deadlock; the diagnostic
//!   lists every acquisition edge of the cycle with its `file:line`.
//! * **L013** — no blocking call (I/O, channel `recv`, `thread::sleep`,
//!   `WorkerPool::submit`/`join`/`drain`) while holding a lock guard,
//!   directly or through any name-resolved call chain.
//! * **L014** — no guard held across a loop back-edge on the
//!   streaming/synthesis crates; collect under the lock, release, then
//!   iterate.
//! * **L015** — no `.unwrap()`/`.expect(..)` directly on a
//!   `lock()`/`read()`/`write()` result; recover poisoned locks with
//!   `unwrap_or_else(PoisonError::into_inner)`.
//! * **L016** — panic-reachability: no panic source (unwrap/expect,
//!   panic-family macros, non-constant indexing, division by a
//!   non-constant divisor) reachable from `Synthesizer::next`, the codec
//!   decode paths, or the reactor sweep loop; findings carry the full
//!   `file:line → file:line` call chain.
//! * **L017** — reactor-blocking: no blocking effect reachable from the
//!   reactor sweep loop except the allowlisted nonblocking-socket
//!   helpers and the `WakeFlag` idle park.
//! * **L018** — hot-loop allocation: no allocation effect (direct or
//!   via a resolved call, `.collect()` included) inside a loop on the
//!   synthesis, codec, DRAM (`dram/src`) or cache (`cache/src`) hot path.
//! * **L019** — unbounded growth: no `self`-rooted collection growth in
//!   the serve crate without same-file cap/evict/truncate evidence.
//!
//! L012–L014 are body-level: [`cfg`] lowers every non-test function into
//! a control-flow graph, [`dataflow`] runs a guard-region analysis over
//! it, and the lock pass combines both with the symbol graph's call
//! edges. The CFGs double as the workspace function table, which
//! [`graph`] builds once with one call resolver. L008 taint, L013
//! transitive blocking and L018 allocation chains each ask one shared
//! bottom-up propagation over the call graph's strongly connected
//! components which callee reaches the effect; L016/L017 search the
//! call graph breadth-first from their entry points.
//!
//! Escape hatch: `// lint: allow(L001, reason)` on the violating line or
//! the line above. The reason is mandatory and is itself reviewed. Rule
//! lists and ranges (`allow(L012-L014, reason)`) and a file-scoped form
//! (`// lint: allow-file(L013, reason)`) are accepted.
//!
//! The binary exits 0 on a clean tree, 1 on violations, 2 on I/O errors:
//!
//! ```text
//! cargo run -p mocktails-lint -- crates/
//! cargo run -p mocktails-lint -- --format json crates/
//! ```

pub mod cfg;
pub mod dataflow;
mod effects;
pub mod explain;
pub mod graph;
pub mod lexer;
mod locks;
pub mod parser;
pub mod report;
pub mod rules;
pub mod walk;

pub use report::Report;
pub use rules::{lint_source, Diagnostic};

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use mocktails_pool::Parallelism;

use graph::{CrossFileOptions, FileRole};

/// Options for a full workspace run.
#[derive(Debug)]
pub struct RunOptions {
    /// Thread configuration for the per-file analysis. Work is split into
    /// fixed contiguous chunks and merged in submission order, so the
    /// report is byte-identical at any thread count.
    pub parallelism: Parallelism,
    /// When true, L010 rewrites the API baselines instead of diffing them.
    pub update_baselines: bool,
    /// When set, only diagnostics of these rules are reported.
    pub rules: Option<BTreeSet<String>>,
    /// Where the `<crate>.api` baselines live; defaults to
    /// `<crates_root>/lint/baselines`.
    pub baselines_dir: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            parallelism: Parallelism::current(),
            update_baselines: false,
            rules: None,
            baselines_dir: None,
        }
    }
}

/// Lints every `crates/*/src/**/*.rs` file under `crates_root` with the
/// process-wide parallelism and default options.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn run(crates_root: &Path) -> io::Result<Report> {
    run_with(crates_root, &RunOptions::default())
}

/// Lints the workspace under `crates_root` with explicit options.
///
/// The per-file stage (lex, parse, per-file rules, CFG lowering) runs on
/// the configured [`Parallelism`]; the cross-file stage (L008 taint,
/// L009, L010, the L012–L014 lock pass, the L016–L019 effect rules) is a
/// pure function of the per-file results. Both stages are deterministic,
/// so the returned report is byte-identical across runs and thread
/// counts. A `--rules` filter only narrows the report; every pass runs.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree, and from
/// reading (or, in update mode, writing) the API baselines.
pub fn run_with(crates_root: &Path, options: &RunOptions) -> io::Result<Report> {
    let mut inputs: Vec<(PathBuf, String, FileRole)> = Vec::new();
    for path in walk::workspace_files(crates_root)? {
        let src = std::fs::read_to_string(&path)?;
        inputs.push((path, src, FileRole::Lint));
    }
    for path in walk::reference_files(crates_root)? {
        let src = std::fs::read_to_string(&path)?;
        inputs.push((path, src, FileRole::Reference));
    }

    let analyses = options.parallelism.map(&inputs, |(path, src, role)| {
        graph::analyze_source(path, src, *role)
    });

    let files_checked = analyses.iter().filter(|a| a.role == FileRole::Lint).count();
    let mut diagnostics: Vec<Diagnostic> = analyses
        .iter()
        .flat_map(|a| a.diagnostics.iter().cloned())
        .collect();

    let default_dir = crates_root.join("lint").join("baselines");
    let baselines_dir = options.baselines_dir.as_deref().unwrap_or(&default_dir);
    diagnostics.extend(graph::cross_file(
        &analyses,
        &CrossFileOptions {
            baselines_dir,
            update_baselines: options.update_baselines,
            parallelism: options.parallelism,
        },
    )?);

    if let Some(filter) = &options.rules {
        diagnostics.retain(|d| filter.contains(d.rule));
    }
    diagnostics.sort();
    diagnostics.dedup();
    Ok(Report {
        diagnostics,
        files_checked,
    })
}
