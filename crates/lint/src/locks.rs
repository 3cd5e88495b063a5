//! The workspace lock-discipline analysis: rules L012–L014.
//!
//! Three layers stack up to make these rules cheap and deterministic:
//!
//! * [`crate::cfg`] gives every non-test function a control-flow graph
//!   with marked loop back-edges and a lexical scope tree.
//! * [`crate::dataflow`] iterates a guard-region analysis over it: which
//!   lock guards are live at each statement, where they were acquired,
//!   and whether a condvar `wait` sanctions them.
//! * The shared [`crate::graph::FnTable`] and its conservative call
//!   resolver turn bare, qualified and method calls into workspace call
//!   edges, so blocking behaviour and lock acquisitions propagate through
//!   real call chains only — ambiguity never produces an edge.
//!   Transitive blocking goes through [`crate::graph::propagate`], the
//!   engine L008 taint and L018 allocation chains use too.
//!
//! The rules:
//!
//! * **L012** — a cycle in the workspace lock-order graph (lock A held
//!   while B is acquired, and elsewhere B while A) is a potential
//!   deadlock; the diagnostic lists every acquisition edge of the cycle
//!   with its `file:line` site.
//! * **L013** — a blocking call (socket/file I/O, channel `recv`,
//!   `thread::sleep`, `WorkerPool::submit`/`join`/`drain`) while holding
//!   a guard, directly or through any resolved call chain, stalls every
//!   thread behind that lock.
//! * **L014** — a guard held across a loop back-edge on the
//!   streaming/synthesis crates pins the lock for the whole iteration;
//!   collect under the lock, release, then iterate.
//!
//! Deliberate approximations (see DESIGN.md "Static analysis v3"):
//!
//! * A lock's identity is `{crate}::{receiver}` where the receiver is
//!   the last field/variable name before `.lock()`/`.read()`/`.write()`.
//!   That identifies locks by their storage site, which is how this
//!   workspace names them consistently; two different fields with one
//!   name in one crate would alias.
//! * Methods *named* `lock`/`read`/`write`/`wait`/`wait_timeout` are
//!   always treated as the std primitives, even when a workspace type
//!   wraps them (the pool's `Shared::lock` does); the wrapper's callers
//!   then acquire under the wrapper's receiver name, which stays
//!   consistent per crate.
//! * A `let` binds a guard only when everything after the acquisition is
//!   a poison adapter (`unwrap`/`expect`/`unwrap_or_else`) or `?`; any
//!   other adaptor chain is assumed to consume the guard. Guards that
//!   escape through returns or closures are not tracked — wrapper
//!   functions whose signature names a guard type are resolved to the
//!   lock they acquire instead.
//! * Condvar `wait(guard)` sanctions the guard: it is the one legitimate
//!   way to sleep holding a lock, so a sanctioned guard is exempt from
//!   L013 and L014 (the wait releases the lock while sleeping).

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{Cfg, CfgStmt, CfgStmtKind, ScopeId};
use crate::dataflow::{fixpoint, Analysis};
use crate::graph::{
    propagate, tarjan_sccs, witness_root, CallResolver, FileAnalysis, FnTable, Func, Reach,
};
use crate::lexer::{Token, TokenKind};
use crate::parser;
use crate::rules::Diagnostic;

/// Crates whose loops L014 polices: the streaming/synthesis path, where
/// holding a lock across an iteration stalls the pipeline. The pool is
/// exempt by design — its condvar loops are the implementation of
/// waiting, and its guards are wait-sanctioned anyway.
const L014_CRATES: [&str; 6] = ["core", "trace", "workloads", "baselines", "serve", "store"];

/// Call names treated as blocking regardless of argument shape. Shared
/// with the L016–L019 effects pass, so "blocking" means the same thing to
/// both analyses.
pub(crate) const BLOCKING_ANY: [&str; 10] = [
    "sleep",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "read_exact",
    "read_to_end",
    "write_all",
    "flush",
    "submit",
];

/// Method names treated as blocking only with an empty argument list:
/// `handle.join()` and `pool.drain()` block, `Vec::drain(..)` and
/// `Path::join(x)` do not. Shared with the effects pass like
/// [`BLOCKING_ANY`].
pub(crate) const BLOCKING_EMPTY: [&str; 2] = ["join", "drain"];

/// Guard type names whose appearance in a signature marks a function as
/// guard-returning (a lock-acquisition wrapper).
const GUARD_TYPES: [&str; 3] = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Adapters that keep a lock guard alive when chained onto the
/// acquisition call.
const POISON_ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// One live guard in the dataflow state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Guard {
    /// The `{crate}::{receiver}` lock identity.
    lock: String,
    /// 1-based source line of the acquisition.
    line: usize,
    /// Lexical scope the binding lives in (killed on scope exit).
    scope: ScopeId,
    /// True once a condvar `wait(guard)` has blessed this guard.
    sanctioned: bool,
}

/// One lock-relevant event inside a statement, in token order.
#[derive(Debug)]
enum Event {
    /// A std `.lock()`/`.read()`/`.write()` or a resolved call to a
    /// guard-returning wrapper.
    Acquire {
        /// The acquired lock's identity.
        lock: String,
        /// Token index of the call name (keys the bind table).
        tok: usize,
        /// 1-based line of the acquisition.
        line: usize,
    },
    /// `drop(name)` — kills the named guard.
    Drop {
        /// The dropped binding.
        name: String,
    },
    /// The end of a statement or block nested inside this statement's
    /// range, where a guard acquired inside it dies.
    Release {
        /// The statement temporary that dies.
        name: String,
    },
    /// `cv.wait(name)` / `cv.wait_timeout(name, ..)` — sanctions `name`.
    Wait {
        /// The guard passed to the condvar.
        name: String,
    },
    /// A direct blocking call by marker name.
    Blocking {
        /// The marker (`flush`, `recv`, ...), for the diagnostic.
        what: &'static str,
        /// 1-based line of the call.
        line: usize,
    },
    /// A name-resolved call to another workspace function.
    Call {
        /// Index into the function table.
        callee: usize,
        /// 1-based line of the call.
        line: usize,
    },
}

/// The precomputed event script of one statement: the dataflow transfer
/// and the reporting walk replay exactly this, so their states agree.
#[derive(Debug, Default)]
struct StmtFacts {
    /// Events in token order.
    events: Vec<Event>,
    /// Acquire token index → binding name, for acquisitions whose guard
    /// outlives the statement (`let` bindings and `for`-iterator
    /// temporaries).
    binds: BTreeMap<usize, String>,
    /// Acquire token index → temporary name, for acquisitions inside an
    /// inner `let`: their guards die at that statement's end or, when it
    /// binds them, at its block's end (see [`scope_to_inner_let`]).
    scoped: BTreeMap<usize, String>,
}

/// Runs the whole lock-discipline analysis over the analyzed workspace.
/// Returned diagnostics are sorted and deduplicated; directive filtering
/// happens in [`crate::graph::cross_file`] like every cross-file rule.
pub(crate) fn lock_analysis(files: &[FileAnalysis], table: &FnTable<'_>) -> Vec<Diagnostic> {
    let fns = &table.fns;

    // 1. Guard-returning wrappers: a signature naming a guard type plus
    // the first direct acquisition in the body gives the lock the
    // wrapper hands out.
    let wrapper_lock: Vec<Option<String>> = fns
        .iter()
        .map(|info| {
            let f = &files[info.file];
            let sig = parser::render(&f.tokens, info.fc.sig);
            if !GUARD_TYPES.iter().any(|g| sig.contains(g)) {
                return None;
            }
            first_direct_acquire(&f.tokens, info.fc.body, &f.crate_name)
        })
        .collect();

    // 2. Per-statement event scripts plus each function's direct facts.
    let mut all_facts: Vec<BTreeMap<(usize, usize), StmtFacts>> = Vec::with_capacity(fns.len());
    let mut direct_block: Vec<Option<&'static str>> = vec![None; fns.len()];
    let mut acq_all: Vec<BTreeSet<String>> = vec![BTreeSet::new(); fns.len()];
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (id, info) in fns.iter().enumerate() {
        let f = &files[info.file];
        let mut facts: BTreeMap<(usize, usize), StmtFacts> = BTreeMap::new();
        let mut first_marker: Option<(usize, &'static str)> = None;
        for (b, block) in info.fc.cfg.blocks.iter().enumerate() {
            for (i, stmt) in block.stmts.iter().enumerate() {
                let sf = stmt_facts(
                    &f.tokens,
                    stmt,
                    id,
                    info.file,
                    &f.crate_name,
                    &table.resolver,
                    &wrapper_lock,
                );
                for ev in &sf.events {
                    match ev {
                        Event::Acquire { lock, .. } => {
                            acq_all[id].insert(lock.clone());
                        }
                        Event::Blocking { what, line } => {
                            let key = (*line, *what);
                            if first_marker.map(|m| key < m).unwrap_or(true) {
                                first_marker = Some(key);
                            }
                        }
                        Event::Call { callee, .. } => callees[id].push(*callee),
                        _ => {}
                    }
                }
                facts.insert((b, i), sf);
            }
        }
        direct_block[id] = first_marker.map(|(_, what)| what);
        callees[id].sort_unstable();
        callees[id].dedup();
        all_facts.push(facts);
    }

    // 3a. Transitive acquisition sets, to a fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..fns.len() {
            for &c in &callees[id] {
                let extra: Vec<String> = acq_all[c]
                    .iter()
                    .filter(|l| !acq_all[id].contains(*l))
                    .cloned()
                    .collect();
                for l in extra {
                    acq_all[id].insert(l);
                    changed = true;
                }
            }
        }
    }

    // 3b. Transitive blocking: each blocking function's root marker and,
    // when it blocks through a callee, that first hop.
    let reach = propagate(&callees, &direct_block, |c| fns[c].qual.as_str());
    let blocking: Vec<Option<(&'static str, Option<usize>)>> = (0..fns.len())
        .map(|id| {
            let hop = match reach[id]? {
                Reach::Direct => None,
                Reach::Via(next) => Some(next),
            };
            Some((direct_block[witness_root(&reach, id)]?, hop))
        })
        .collect();

    // 4. The reporting walk: per-function dataflow, then per-statement
    // replay collecting observations, then the global cycle check.
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for (id, info) in fns.iter().enumerate() {
        let f = &files[info.file];
        let analysis = GuardAnalysis {
            cfg: &info.fc.cfg,
            facts: &all_facts[id],
        };
        let entries = fixpoint(&info.fc.cfg, &analysis);
        for (b, entry) in entries.iter().enumerate() {
            let Some(entry) = entry else {
                continue;
            };
            let mut state = entry.clone();
            for (i, stmt) in info.fc.cfg.blocks[b].stmts.iter().enumerate() {
                let mut obs = Vec::new();
                step(
                    &info.fc.cfg,
                    stmt,
                    all_facts[id].get(&(b, i)),
                    &mut state,
                    Some(&mut obs),
                );
                for o in obs {
                    report(o, f, fns, &acq_all, &blocking, &mut diags, &mut edges);
                }
            }
            // L014: a guard live at a loop back-edge whose scope strictly
            // encloses the loop body was acquired outside the iteration.
            if !L014_CRATES.contains(&f.crate_name.as_str()) {
                continue;
            }
            for edge in &info.fc.cfg.blocks[b].succs {
                let Some(body_scope) = edge.back else {
                    continue;
                };
                for (name, g) in &state {
                    if g.sanctioned
                        || g.scope == body_scope
                        || !info.fc.cfg.scope_contains(g.scope, body_scope)
                    {
                        continue;
                    }
                    diags.push(Diagnostic {
                        file: f.path.clone(),
                        line: g.line,
                        rule: "L014",
                        message: format!(
                            "guard `{}` on `{}` (acquired line {}) is held across a loop back-edge in `{}`; collect under the lock, release it, then iterate",
                            display_name(name), g.lock, g.line, info.qual
                        ),
                    });
                }
            }
        }
    }
    diags.extend(cycle_diagnostics(&edges));
    diags.sort();
    diags.dedup();
    diags
}

/// Converts one observation into diagnostics and lock-order edges.
fn report(
    o: Obs,
    f: &FileAnalysis,
    fns: &[Func<'_>],
    acq_all: &[BTreeSet<String>],
    blocking: &[Option<(&'static str, Option<usize>)>],
    diags: &mut Vec<Diagnostic>,
    edges: &mut BTreeMap<(String, String), (String, usize)>,
) {
    match o {
        Obs::Acquire { lock, line, held } => {
            for (_, g) in &held {
                edges
                    .entry((g.lock.clone(), lock.clone()))
                    .or_insert_with(|| (f.path.clone(), line));
            }
        }
        Obs::Blocking { what, line, held } => {
            if let Some((name, g)) = held.iter().find(|(_, g)| !g.sanctioned) {
                diags.push(Diagnostic {
                    file: f.path.clone(),
                    line,
                    rule: "L013",
                    message: format!(
                        "blocking call `{what}` while holding guard `{}` on `{}` (acquired line {}); release the guard before blocking or allowlist with a reason",
                        display_name(name), g.lock, g.line
                    ),
                });
            }
        }
        Obs::Call { callee, line, held } => {
            for (_, g) in &held {
                for lock in &acq_all[callee] {
                    edges
                        .entry((g.lock.clone(), lock.clone()))
                        .or_insert_with(|| (f.path.clone(), line));
                }
            }
            if let Some((name, g)) = held.iter().find(|(_, g)| !g.sanctioned) {
                if let Some((root, next)) = blocking[callee] {
                    let hop = next
                        .map(|n| format!(" through `{}`", fns[n].qual))
                        .unwrap_or_default();
                    diags.push(Diagnostic {
                        file: f.path.clone(),
                        line,
                        rule: "L013",
                        message: format!(
                            "call to `{}` reaches blocking `{root}`{hop} while holding guard `{}` on `{}` (acquired line {}); release the guard before blocking or allowlist with a reason",
                            fns[callee].qual, display_name(name), g.lock, g.line
                        ),
                    });
                }
            }
        }
    }
}

/// L012: strongly-connected components of the lock-order graph. Two
/// locks in one component (or a self-edge) mean two code paths acquire
/// them in opposite orders.
fn cycle_diagnostics(edges: &BTreeMap<(String, String), (String, usize)>) -> Vec<Diagnostic> {
    let nodes: Vec<&str> = edges
        .keys()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    // Every edge endpoint is in `nodes`, so the search always hits.
    let id = |lock: &str| nodes.binary_search(&lock).unwrap_or_default();
    // Edge keys are sorted, so each successor list comes out sorted.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        succs[id(a)].push(id(b));
    }

    let mut out = Vec::new();
    for group in tarjan_sccs(&succs) {
        let cyclic = group.len() > 1 || succs[group[0]].contains(&group[0]);
        if !cyclic {
            continue;
        }
        let cycle_edges: Vec<_> = edges
            .iter()
            .filter(|((a, b), _)| {
                group.binary_search(&id(a)).is_ok() && group.binary_search(&id(b)).is_ok()
            })
            .collect();
        let segs: Vec<String> = cycle_edges
            .iter()
            .map(|((a, b), (file, line))| format!("`{a}` -> `{b}` ({file}:{line})"))
            .collect();
        let Some((_, (file, line))) = cycle_edges.first() else {
            continue;
        };
        out.push(Diagnostic {
            file: file.clone(),
            line: *line,
            rule: "L012",
            message: format!(
                "lock-order cycle (potential deadlock): {}; acquire locks in one global order",
                segs.join(", ")
            ),
        });
    }
    out
}

/// What the reporting walk observed while replaying one statement. Each
/// observation snapshots the guards live at that exact event, in
/// deterministic (bound names first, then temporaries) order.
enum Obs {
    /// A lock was acquired with `held` guards live.
    Acquire {
        /// The acquired lock.
        lock: String,
        /// 1-based line of the acquisition.
        line: usize,
        /// Live guards at the event.
        held: Vec<(String, Guard)>,
    },
    /// A direct blocking marker ran with `held` guards live.
    Blocking {
        /// The marker name.
        what: &'static str,
        /// 1-based line of the call.
        line: usize,
        /// Live guards at the event.
        held: Vec<(String, Guard)>,
    },
    /// A resolved workspace call ran with `held` guards live.
    Call {
        /// Index into the function table.
        callee: usize,
        /// 1-based line of the call.
        line: usize,
        /// Live guards at the event.
        held: Vec<(String, Guard)>,
    },
}

/// The guard-region dataflow: state maps binding name → [`Guard`].
struct GuardAnalysis<'a> {
    cfg: &'a Cfg,
    facts: &'a BTreeMap<(usize, usize), StmtFacts>,
}

impl Analysis for GuardAnalysis<'_> {
    type State = BTreeMap<String, Guard>;

    fn boundary(&self) -> Self::State {
        BTreeMap::new()
    }

    fn transfer(&self, stmt: &CfgStmt, block: usize, idx: usize, state: &mut Self::State) {
        step(self.cfg, stmt, self.facts.get(&(block, idx)), state, None);
    }

    fn edge(&self, edge: &crate::cfg::Edge, state: &mut Self::State) {
        // A back edge ends the iteration: bindings made inside the loop
        // body die at its closing brace before control re-enters the
        // head, so only guards from enclosing scopes (the L014 targets)
        // survive the trip around.
        if let Some(body_scope) = edge.back {
            state.retain(|_, g| !self.cfg.scope_contains(body_scope, g.scope));
        }
    }

    fn join(&self, into: &mut Self::State, other: &Self::State) -> bool {
        let mut changed = false;
        for (k, g) in other {
            match into.get_mut(k) {
                None => {
                    into.insert(k.clone(), g.clone());
                    changed = true;
                }
                Some(cur) => {
                    // Keep the smaller Guard: deterministic, and since
                    // `sanctioned: false < true`, a guard unsanctioned on
                    // any path joins as unsanctioned (pessimistic).
                    if *g < *cur {
                        *cur = g.clone();
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

/// Applies one statement to the guard state; with `obs` set, also records
/// what the lock rules need to see. Used by both the dataflow transfer
/// (silently) and the reporting walk, so their states evolve identically.
fn step(
    cfg: &Cfg,
    stmt: &CfgStmt,
    facts: Option<&StmtFacts>,
    state: &mut BTreeMap<String, Guard>,
    mut obs: Option<&mut Vec<Obs>>,
) {
    // Lexical death: a binding made in a scope that does not enclose this
    // statement has been dropped on the way here.
    state.retain(|_, g| cfg.scope_contains(g.scope, stmt.scope));
    let Some(facts) = facts else {
        return;
    };
    // Temporaries live to the end of their statement only.
    let mut temps: BTreeMap<String, Guard> = BTreeMap::new();
    for ev in &facts.events {
        match ev {
            Event::Acquire { lock, tok, line } => {
                if let Some(out) = obs.as_deref_mut() {
                    out.push(Obs::Acquire {
                        lock: lock.clone(),
                        line: *line,
                        held: snapshot(state, &temps),
                    });
                }
                let guard = Guard {
                    lock: lock.clone(),
                    line: *line,
                    scope: stmt.scope,
                    sanctioned: false,
                };
                match facts.binds.get(tok) {
                    Some(name) => {
                        state.insert(name.clone(), guard);
                    }
                    None => {
                        let name = facts.scoped.get(tok).cloned();
                        temps.insert(name.unwrap_or_else(|| format!("<temporary@{tok}>")), guard);
                    }
                }
            }
            Event::Drop { name } => {
                state.remove(name);
                temps.remove(name);
            }
            Event::Release { name } => {
                temps.remove(name);
            }
            Event::Wait { name } => {
                if let Some(g) = state.get_mut(name) {
                    g.sanctioned = true;
                }
            }
            Event::Blocking { what, line } => {
                if let Some(out) = obs.as_deref_mut() {
                    out.push(Obs::Blocking {
                        what,
                        line: *line,
                        held: snapshot(state, &temps),
                    });
                }
            }
            Event::Call { callee, line } => {
                if let Some(out) = obs.as_deref_mut() {
                    out.push(Obs::Call {
                        callee: *callee,
                        line: *line,
                        held: snapshot(state, &temps),
                    });
                }
            }
        }
    }
}

/// How a binding name reads in a diagnostic: `for`-iterator temporaries
/// carry a token index internally (to stay unique per acquisition) that
/// would only confuse the reader.
fn display_name(name: &str) -> &str {
    if name.starts_with("<temporary@") {
        "<temporary>"
    } else {
        name
    }
}

/// The live guards at an event: bound guards, then statement-local
/// temporaries, each in name order.
fn snapshot(
    state: &BTreeMap<String, Guard>,
    temps: &BTreeMap<String, Guard>,
) -> Vec<(String, Guard)> {
    let mut held: Vec<(String, Guard)> =
        state.iter().map(|(n, g)| (n.clone(), g.clone())).collect();
    held.extend(
        temps
            .values()
            .map(|g| ("<temporary>".to_string(), g.clone())),
    );
    held
}

/// Extracts one statement's event script.
fn stmt_facts(
    tokens: &[Token],
    stmt: &CfgStmt,
    self_id: usize,
    file: usize,
    crate_name: &str,
    resolver: &CallResolver<'_>,
    wrapper_lock: &[Option<String>],
) -> StmtFacts {
    let mut facts = StmtFacts::default();
    let (start, end) = stmt.range;
    let end = end.min(tokens.len());
    let inner = inner_lets(tokens, start, end);
    // Token index → the temporaries that die there, for guards acquired
    // inside an inner `let`.
    let mut releases: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut i = start;
    while i < end {
        for name in releases.remove(&i).unwrap_or_default() {
            facts.events.push(Event::Release { name });
        }
        let Some(name) = tokens[i].kind.ident() else {
            i += 1;
            continue;
        };
        if !matches!(tokens.get(i + 1).map(|t| &t.kind), Some(k) if k.is_punct('(')) {
            i += 1;
            continue;
        }
        let line = tokens[i].line;
        let prev = i.checked_sub(1).map(|j| &tokens[j].kind);
        let is_method = matches!(prev, Some(k) if k.is_punct('.'));
        let empty = matches!(tokens.get(i + 2).map(|t| &t.kind), Some(k) if k.is_punct(')'));

        // The std lock vocabulary always means std, never a workspace
        // wrapper — resolving `self.cache.lock()` to some unrelated
        // method named `lock` would mis-seed every rule downstream.
        if is_method && matches!(name, "lock" | "read" | "write") {
            if empty {
                facts.events.push(Event::Acquire {
                    lock: lock_identity(tokens, i, crate_name),
                    tok: i,
                    line,
                });
                scope_to_inner_let(tokens, &inner, i, &mut facts, &mut releases);
            }
            // `.read(buf)` and friends are I/O calls; the explicit
            // markers (`read_exact`, ...) cover the blocking ones.
            i += 1;
            continue;
        }
        if is_method && matches!(name, "wait" | "wait_timeout") {
            if let Some(arg) = tokens.get(i + 2).and_then(|t| t.kind.ident()) {
                facts.events.push(Event::Wait {
                    name: arg.to_string(),
                });
            }
            i += 1;
            continue;
        }
        if name == "drop"
            && !is_method
            && !matches!(prev, Some(k) if k.is_op("::"))
            && matches!(tokens.get(i + 3).map(|t| &t.kind), Some(k) if k.is_punct(')'))
        {
            if let Some(arg) = tokens.get(i + 2).and_then(|t| t.kind.ident()) {
                facts.events.push(Event::Drop {
                    name: arg.to_string(),
                });
                i += 1;
                continue;
            }
        }
        if matches!(prev, Some(TokenKind::Ident(kw)) if kw == "fn") {
            i += 1;
            continue; // a nested definition, not a call
        }
        if let Some(what) = BLOCKING_ANY.iter().copied().find(|m| *m == name) {
            facts.events.push(Event::Blocking { what, line });
        } else if is_method && empty {
            if let Some(what) = BLOCKING_EMPTY.iter().copied().find(|m| *m == name) {
                facts.events.push(Event::Blocking { what, line });
            }
        }
        for callee in resolver.resolve_callees(tokens, i, name, file) {
            if let Some(lock) = &wrapper_lock[callee] {
                // Calling a guard-returning wrapper IS acquiring its lock.
                facts.events.push(Event::Acquire {
                    lock: lock.clone(),
                    tok: i,
                    line,
                });
                scope_to_inner_let(tokens, &inner, i, &mut facts, &mut releases);
            } else if callee != self_id {
                facts.events.push(Event::Call { callee, line });
            }
        }
        i += 1;
    }

    // Which acquisitions bind a guard that outlives the statement? Those
    // inside an inner `let` are already scoped to it.
    let mut outer_acquires = facts.events.iter().filter_map(|e| match e {
        Event::Acquire { tok, .. } if !facts.scoped.contains_key(tok) => Some(*tok),
        _ => None,
    });
    match &stmt.kind {
        CfgStmtKind::Let { name } => {
            let last_acquire = outer_acquires.next_back();
            if let Some(tok) = last_acquire {
                let after = skip_call(tokens, tok);
                if guard_survives(tokens, after, end) {
                    facts.binds.insert(tok, name.clone());
                }
            }
        }
        CfgStmtKind::ForIter => {
            // Every temporary born in a `for` iterator expression lives
            // until the loop ends (Rust extends their lifetime), so every
            // acquisition here binds an anonymous loop-scoped guard.
            let toks: Vec<usize> = outer_acquires.collect();
            for tok in toks {
                facts.binds.insert(tok, format!("<temporary@{tok}>"));
            }
        }
        CfgStmtKind::Expr => {}
    }
    facts
}

/// A `let` statement nested in a block inside another statement's range
/// (a match arm or a closure body in a `let x = match … { … };`
/// initializer, say), as token indices.
struct InnerLet {
    /// The `let` keyword.
    start: usize,
    /// The binding name, when it is a plain identifier.
    name: Option<String>,
    /// The `;` that ends it.
    end: usize,
    /// The `}` that closes its block.
    block_end: Option<usize>,
}

/// The `let` statements nested in blocks within `[start, end)`: a `let`
/// at a brace depth of at least one that begins a statement (so not
/// `if let` or `while let`).
fn inner_lets(tokens: &[Token], start: usize, end: usize) -> Vec<InnerLet> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    for i in start..end {
        let kind = &tokens[i].kind;
        if kind.is_punct('{') {
            depth += 1;
        } else if kind.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth > 0 && kind.ident() == Some("let") {
            let begins_statement = i.checked_sub(1).is_some_and(|j| {
                let prev = &tokens[j].kind;
                prev.is_punct('{') || prev.is_punct('}') || prev.is_punct(';')
            });
            if begins_statement {
                out.push(inner_let(tokens, i, end));
            }
        }
    }
    out
}

/// The extent of the `let` statement at token `at`, within `..end`.
fn inner_let(tokens: &[Token], at: usize, end: usize) -> InnerLet {
    let mut name_at = at + 1;
    if tokens.get(name_at).and_then(|t| t.kind.ident()) == Some("mut") {
        name_at += 1;
    }
    let plain = tokens
        .get(name_at + 1)
        .is_some_and(|t| t.kind.is_punct('=') || t.kind.is_op("=") || t.kind.is_punct(':'));
    let name = tokens
        .get(name_at)
        .and_then(|t| t.kind.ident())
        .filter(|_| plain)
        .map(str::to_string);
    let (mut depth, mut semi, mut block_end) = (0usize, end, None);
    for (j, token) in tokens.iter().enumerate().take(end).skip(at + 1) {
        let kind = &token.kind;
        if kind.is_punct('{') {
            depth += 1;
        } else if kind.is_punct('}') {
            if depth == 0 {
                block_end = Some(j);
                break;
            }
            depth -= 1;
        } else if depth == 0 && kind.is_punct(';') && semi == end {
            semi = j;
        }
    }
    InnerLet {
        start: at,
        name,
        end: semi,
        block_end,
    }
}

/// Scopes the acquisition at token `tok` to the innermost inner `let`
/// whose initializer holds it: a guard that `let` binds dies at the end
/// of its block (or at a `drop` of its name), any other at the end of the
/// `let` statement.
fn scope_to_inner_let(
    tokens: &[Token],
    inner: &[InnerLet],
    tok: usize,
    facts: &mut StmtFacts,
    releases: &mut BTreeMap<usize, Vec<String>>,
) {
    let Some(stmt) = inner
        .iter()
        .filter(|l| l.start < tok && tok < l.end)
        .max_by_key(|l| l.start)
    else {
        return;
    };
    let bound = stmt.name.as_ref().filter(|_| {
        let after = skip_call(tokens, tok);
        guard_survives(tokens, after, stmt.end)
    });
    let (name, at) = match bound {
        Some(name) => (name.clone(), stmt.block_end),
        None => (format!("<temporary@{tok}>"), Some(stmt.end)),
    };
    facts.scoped.insert(tok, name.clone());
    if let Some(at) = at {
        releases.entry(at).or_default().push(name);
    }
}

/// The `{crate}::{receiver}` identity of the lock acquired at token `i`
/// (the `lock`/`read`/`write` name). The receiver is the identifier
/// directly before the dot — the field or variable storing the lock —
/// or `<expr>` when the receiver is a computed expression.
fn lock_identity(tokens: &[Token], i: usize, crate_name: &str) -> String {
    let recv = i
        .checked_sub(2)
        .and_then(|j| tokens[j].kind.ident())
        .unwrap_or("<expr>");
    let krate = if crate_name.is_empty() {
        "ws"
    } else {
        crate_name
    };
    format!("{krate}::{recv}")
}

/// The first direct std lock acquisition in a body's token range, as a
/// lock identity — how a guard-returning wrapper declares which lock its
/// guard protects.
fn first_direct_acquire(
    tokens: &[Token],
    body: (usize, usize),
    crate_name: &str,
) -> Option<String> {
    let end = body.1.min(tokens.len());
    for i in body.0..end {
        let Some(name) = tokens[i].kind.ident() else {
            continue;
        };
        if !matches!(name, "lock" | "read" | "write") {
            continue;
        }
        let is_method = i
            .checked_sub(1)
            .map(|j| tokens[j].kind.is_punct('.'))
            .unwrap_or(false);
        let empty = matches!(tokens.get(i + 1).map(|t| &t.kind), Some(k) if k.is_punct('('))
            && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(k) if k.is_punct(')'));
        if is_method && empty {
            return Some(lock_identity(tokens, i, crate_name));
        }
    }
    None
}

/// Index just past the call's closing parenthesis, where the call name is
/// at `i` and its argument list opens at `i + 1`.
fn skip_call(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < tokens.len() {
        if tokens[j].kind.is_punct('(') {
            depth += 1;
        } else if tokens[j].kind.is_punct(')') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// True when everything from `i` to `end` is a guard-preserving adapter
/// chain: `?` and `.unwrap()`/`.expect(..)`/`.unwrap_or_else(..)` only.
/// Anything else (a field projection, a map, a method on the protected
/// data) consumes the guard expression into some other value.
fn guard_survives(tokens: &[Token], mut i: usize, end: usize) -> bool {
    let end = end.min(tokens.len());
    while i < end {
        let k = &tokens[i].kind;
        if k.is_punct('?') || k.is_op("?") {
            i += 1;
            continue;
        }
        if k.is_punct('.') {
            let adapter = tokens.get(i + 1).and_then(|t| t.kind.ident());
            if !matches!(adapter, Some(a) if POISON_ADAPTERS.contains(&a)) {
                return false;
            }
            if !matches!(tokens.get(i + 2).map(|t| &t.kind), Some(k) if k.is_punct('(')) {
                return false;
            }
            i = skip_call(tokens, i + 1);
            continue;
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn lock_identity_uses_the_last_receiver_segment() {
        let toks = lex("self.shared.conns.lock()").tokens;
        let at = toks
            .iter()
            .position(|t| t.kind.ident() == Some("lock"))
            .expect("lock token");
        assert_eq!(lock_identity(&toks, at, "serve"), "serve::conns");
    }

    #[test]
    fn guard_survives_poison_adapters_only() {
        let ok = lex("m.lock().unwrap_or_else(PoisonError::into_inner)").tokens;
        let at = ok
            .iter()
            .position(|t| t.kind.ident() == Some("lock"))
            .expect("lock token");
        let after = skip_call(&ok, at);
        assert!(guard_survives(&ok, after, ok.len()));

        let consumed = lex("m.lock().unwrap().clone()").tokens;
        let at = consumed
            .iter()
            .position(|t| t.kind.ident() == Some("lock"))
            .expect("lock token");
        let after = skip_call(&consumed, at);
        assert!(!guard_survives(&consumed, after, consumed.len()));
    }

    #[test]
    fn wrapper_bodies_reveal_their_lock() {
        let toks =
            lex("fn cache(&self) { self.cache.lock().unwrap_or_else(PoisonError::into_inner) }")
                .tokens;
        assert_eq!(
            first_direct_acquire(&toks, (0, toks.len()), "serve"),
            Some("serve::cache".to_string())
        );
    }
}
