//! Interprocedural effect rules: L016–L019.
//!
//! Every function body is scanned for direct sites of three effect kinds:
//!
//! * **panic** — `.unwrap()`/`.expect(..)`, the panic-family macros,
//!   non-constant indexing `x[i]`, and division/remainder by a
//!   non-literal divisor;
//! * **blocking** — the same marker vocabulary the lock rules use
//!   ([`crate::locks::BLOCKING_ANY`]/[`BLOCKING_EMPTY`]), plus condvar
//!   `wait`/`wait_timeout`, the `fsync` family (`sync_all`/`sync_data`)
//!   and std lock acquisitions;
//! * **alloc** — `Vec`/`VecDeque`/`String`/`Box` construction, `vec!` /
//!   `format!`, and `.clone()`/`.to_vec()`/`.to_string()`/`.to_owned()`.
//!
//! The scan is one independent token walk per function, fanned out over
//! [`mocktails_pool::Parallelism`] and merged in submission order. Call
//! edges come from the shared [`crate::graph::FnTable`] through this
//! pass's own resolution policy ([`effect_callees`]). Every tie (which
//! direct site, which callee) breaks on a total order (line, message
//! text, callee qualified name), so reports are byte-identical across
//! runs and thread counts.
//!
//! The rules on top:
//!
//! * **L016** — no panic source reachable from `Synthesizer::next`, the
//!   codec decode paths, or the reactor sweep loop; each finding is
//!   anchored at the panic site and carries the full `file:line →
//!   file:line` call chain from the entry point (breadth-first search
//!   over the raw sites).
//! * **L017** — no blocking effect reachable from the reactor sweep
//!   loop, by the same search. Allowlisted by construction: the
//!   `WakeFlag` idle park and the nonblocking-socket accept/read/write
//!   helpers. Plain `.lock()` acquisitions are scanned but not reported
//!   here — brief mutex hops (a cache lookup, an outbox push) are part
//!   of the serve design, and blocking *while holding* one is already
//!   L013's job.
//! * **L018** — allocation effects (direct, or through a resolved call
//!   whose callee transitively allocates per
//!   [`crate::graph::propagate`]) inside a CFG loop back-edge scope on
//!   the synthesis, codec, DRAM and cache hot paths: the machine-readable
//!   worklist for the buffer-reuse campaign. `.collect()` counts as an
//!   allocation, so a per-burst scratch `Vec` cannot come back.
//! * **L019** — `self`-rooted collection growth in the serve crate with
//!   no same-file shrink (`pop`/`remove`/`truncate`/`clear`/`drain`/
//!   `mem::take`/...) of the same field: an unbounded queue on the serve
//!   path.
//!
//! All four honour the `// lint: allow(L016-L019, reason)` directive
//! grammar; filtering happens in [`crate::graph::cross_file`] like every
//! cross-file rule.

use std::collections::{BTreeMap, BTreeSet};

use mocktails_pool::Parallelism;

use crate::graph::{call_sites, propagate, Call, FileAnalysis, FnTable, Func, Reach};
use crate::lexer::{Token, TokenKind};
use crate::locks::{BLOCKING_ANY, BLOCKING_EMPTY};
use crate::rules::Diagnostic;

/// Macros that unwind.
const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// `fsync`-family calls: durability barriers that stall on the disk.
const SYNC_CALLS: [&str; 2] = ["sync_all", "sync_data"];

/// Empty-arg method calls that allocate.
const ALLOC_METHODS: [&str; 5] = ["clone", "collect", "to_vec", "to_string", "to_owned"];

/// Allocating constructors, as `Type::name` pairs.
const ALLOC_TYPES: [&str; 4] = ["Vec", "VecDeque", "String", "Box"];
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// Collection-growth method names (L019).
const GROWTH_METHODS: [&str; 7] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
];

/// Same-file evidence that a collection is bounded: any of these applied
/// to the same field name caps, evicts or truncates it.
const SHRINK_METHODS: [&str; 9] = [
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "truncate",
    "clear",
    "drain",
    "evict",
    "retain",
];

/// Method names the effects pass refuses to resolve through the
/// conservative unique-impl rule, because they collide with std
/// prelude/container/iterator methods: a workspace type that happens to
/// be the *only* local impl of `map` or `shutdown` would otherwise
/// capture every `iter().map(..)` and `TcpStream::shutdown(..)` call in
/// the workspace and drag its effects into unrelated chains. Skipping
/// these edges loses a little recall on genuine local calls spelled the
/// same way; the direct-site scan still sees their bodies' own effects.
const STD_METHOD_COLLISIONS: [&str; 30] = [
    "clear", "clone", "contains", "count", "drain", "extend", "filter", "find", "fold", "get",
    "insert", "iter", "last", "len", "map", "max", "min", "next", "pop", "position", "push",
    "read", "remove", "retain", "rev", "send", "shutdown", "skip", "take", "write",
];

/// Functions the reactor-blocking rule never descends into: the
/// `WakeFlag` idle park (a deliberate, bounded `wait_timeout`) and the
/// nonblocking-socket helpers (`accept`/`read`/`write` on sockets the
/// reactor has put into nonblocking mode; `WouldBlock` returns
/// immediately).
const L017_ALLOWLIST: [(Option<&str>, &str); 4] = [
    (Some("WakeFlag"), "wait_for"),
    (Some("Conn"), "pump_read"),
    (Some("WriteQueue"), "write_to"),
    (None, "accept_burst"),
];

/// The three effect kinds a direct site can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EffectKind {
    Panic,
    Blocking,
    Alloc,
}

/// One direct effect site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Site {
    /// 1-based source line.
    line: usize,
    /// Token index of the site, for in-loop containment checks.
    tok: usize,
    /// Which effect.
    kind: EffectKind,
    /// Human-readable description, e.g. "indexing `buf[..]`".
    what: String,
}

/// Runs the four effect rules over the analyzed workspace. Returned
/// diagnostics are sorted and deduplicated; directive filtering happens
/// in [`crate::graph::cross_file`].
pub(crate) fn effects_analysis(
    files: &[FileAnalysis],
    table: &FnTable<'_>,
    parallelism: Parallelism,
) -> Vec<Diagnostic> {
    let fns = &table.fns;
    // Call edges, keeping the first call line per (caller, callee) edge
    // for chain rendering.
    let mut edges: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); fns.len()];
    for (id, func) in fns.iter().enumerate() {
        let tokens = &files[func.file].tokens;
        for (i, name) in call_sites(tokens, func.fc.body) {
            for c in effect_callees(table, tokens, i, name, func) {
                if c != id {
                    edges[id].entry(c).or_insert(tokens[i].line);
                }
            }
        }
    }

    // Direct effect sites, one independent token scan per function — the
    // expensive part, fanned out over the pool.
    let ids: Vec<usize> = (0..fns.len()).collect();
    let sites: Vec<Vec<Site>> = parallelism.map(&ids, |&id| {
        let func = &fns[id];
        direct_sites(&files[func.file], func.fc.body)
    });

    let mut diags = Vec::new();
    diags.extend(l016_panic_reachability(files, fns, &edges, &sites));
    diags.extend(l017_reactor_blocking(files, fns, &edges, &sites));
    diags.extend(l018_hot_loop_alloc(files, table, &edges, &sites));
    diags.extend(l019_unbounded_growth(files, fns));
    diags.sort();
    diags.dedup();
    diags
}

/// The effects pass's call resolution: the shared
/// [`crate::graph::CallResolver`] policy, minus method names that collide
/// with std ([`STD_METHOD_COLLISIONS`]), plus `Self::name` paths rebound
/// to the caller's impl type (the shared resolver sees the literal `Self`
/// and finds nothing).
fn effect_callees(
    table: &FnTable<'_>,
    tokens: &[Token],
    i: usize,
    name: &str,
    caller: &Func<'_>,
) -> Vec<usize> {
    let resolver = &table.resolver;
    let prev = |n: usize| i.checked_sub(n).map(|j| &tokens[j].kind);
    if matches!(prev(1), Some(k) if k.is_op("::"))
        && matches!(prev(2), Some(TokenKind::Ident(ty)) if ty == "Self")
    {
        return match caller.fc.self_type.as_deref() {
            Some(ty) => resolver.resolve(
                &Call::Qualified(ty.to_string(), name.to_string()),
                caller.file,
            ),
            None => Vec::new(),
        };
    }
    let is_method = matches!(prev(1), Some(k) if k.is_punct('.'));
    if is_method && STD_METHOD_COLLISIONS.contains(&name) {
        return Vec::new();
    }
    resolver.resolve_callees(tokens, i, name, caller.file)
}

// ---------------------------------------------------------------------------
// Direct effect extraction
// ---------------------------------------------------------------------------

/// Scans one body token range for direct effect sites, skipping
/// test-scoped tokens.
fn direct_sites(f: &FileAnalysis, body: (usize, usize)) -> Vec<Site> {
    let tokens = &f.tokens;
    let mut out = Vec::new();
    let end = body.1.min(tokens.len());
    for i in body.0..end {
        if f.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &tokens[i];
        let line = t.line;
        let prev = i.checked_sub(1).map(|j| &tokens[j].kind);
        let next = tokens.get(i + 1).map(|t| &t.kind);
        match &t.kind {
            TokenKind::Ident(name) => {
                let is_method = matches!(prev, Some(k) if k.is_punct('.'));
                let is_call = matches!(next, Some(k) if k.is_punct('('));
                let is_macro = matches!(next, Some(k) if k.is_punct('!'));
                let empty = is_call
                    && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(k) if k.is_punct(')'));
                let defines = matches!(prev, Some(TokenKind::Ident(kw)) if kw == "fn");
                if defines {
                    continue;
                }

                // Panic sources.
                if is_method && is_call && (name == "unwrap" || name == "expect") {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Panic,
                        what: format!("`.{name}()`"),
                    });
                } else if is_macro && PANIC_MACROS.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Panic,
                        what: format!("`{name}!`"),
                    });
                }

                // Blocking markers (the lock rules' vocabulary, plus
                // condvar waits, fsync and std lock acquisitions).
                if is_call && BLOCKING_ANY.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("`{name}`"),
                    });
                } else if is_method && is_call && empty && BLOCKING_EMPTY.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("`{name}()`"),
                    });
                } else if is_method && is_call && SYNC_CALLS.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("`{name}` (fsync)"),
                    });
                } else if is_method
                    && is_call
                    && !empty
                    && (name == "wait" || name == "wait_timeout")
                {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("condvar `{name}`"),
                    });
                } else if is_method
                    && is_call
                    && empty
                    && matches!(name.as_str(), "lock" | "read" | "write")
                {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("`.{name}()` acquisition"),
                    });
                }

                // Allocation sites.
                if is_method && is_call && empty && ALLOC_METHODS.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Alloc,
                        what: format!("`.{name}()`"),
                    });
                } else if is_macro && (name == "vec" || name == "format") {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Alloc,
                        what: format!("`{name}!`"),
                    });
                } else if is_call
                    && ALLOC_CTORS.contains(&name.as_str())
                    && matches!(prev, Some(k) if k.is_op("::"))
                {
                    if let Some(TokenKind::Ident(ty)) = i.checked_sub(2).map(|j| &tokens[j].kind) {
                        if ALLOC_TYPES.contains(&ty.as_str()) {
                            out.push(Site {
                                line,
                                tok: i,
                                kind: EffectKind::Alloc,
                                what: format!("`{ty}::{name}`"),
                            });
                        }
                    }
                }
            }
            // Non-constant indexing `x[i]`: a postfix `[` (receiver is an
            // identifier, `)` or `]`) whose bracket holds neither a range
            // nor a lone literal.
            TokenKind::Punct('[') => {
                let postfix = matches!(
                    prev,
                    Some(TokenKind::Ident(_)) | Some(TokenKind::Punct(')' | ']'))
                );
                if postfix && indexes_non_constant(tokens, i) {
                    let recv = match prev {
                        Some(TokenKind::Ident(name)) => name.as_str(),
                        _ => "<expr>",
                    };
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Panic,
                        what: format!("indexing `{recv}[..]`"),
                    });
                }
            }
            // Division / remainder by a non-literal divisor panics on
            // zero even in release builds.
            TokenKind::Punct(c @ ('/' | '%')) => {
                let binary = matches!(
                    prev,
                    Some(TokenKind::Ident(_))
                        | Some(TokenKind::Lit(_))
                        | Some(TokenKind::Punct(')' | ']'))
                );
                // A float literal on either side, or a left operand cast
                // `as f64`/`as f32`, makes a float division, which
                // yields an infinity or NaN instead of panicking.
                let cast_to_float = matches!(prev, Some(TokenKind::Ident(ty)) if ty == "f64" || ty == "f32")
                    && matches!(i.checked_sub(2).map(|j| &tokens[j].kind), Some(TokenKind::Ident(kw)) if kw == "as");
                let float = matches!(prev, Some(TokenKind::FloatLit(_)))
                    || matches!(next, Some(TokenKind::FloatLit(_)))
                    || cast_to_float;
                let literal_divisor = matches!(next, Some(TokenKind::Lit(_)));
                if binary && !float && !literal_divisor {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Panic,
                        what: format!("`{c}` by a non-constant divisor"),
                    });
                }
            }
            _ => {}
        }
    }
    out.sort();
    out
}

/// True if the bracket group opening at `tokens[i]` is an index that can
/// panic: not a range (`[..]`, `[a..b]` slices are a different shape of
/// risk, tracked separately if ever needed) and not a lone literal
/// (`[0]` — a constant index the surrounding code pins).
fn indexes_non_constant(tokens: &[Token], i: usize) -> bool {
    let mut depth = 0usize;
    let mut j = i;
    let mut content = 0usize;
    let mut lone_literal = false;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('[' | '(' | '{') => depth += 1,
            TokenKind::Punct(']' | ')' | '}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Op(".." | "..=") if depth == 1 => return false,
            kind if depth == 1 => {
                content += 1;
                lone_literal = content == 1 && kind.is_lit();
            }
            _ => {}
        }
        j += 1;
    }
    content > 0 && !lone_literal
}

// ---------------------------------------------------------------------------
// Entry points and chains
// ---------------------------------------------------------------------------

/// Files whose decoders read untrusted bytes through the shared byte
/// cursor: their `read*`, `decode` and `scan_frames` functions are L016
/// entry points.
const DECODE_FILES: [&str; 6] = [
    "trace/src/codec.rs",
    "core/src/profile/codec.rs",
    "core/src/profile/record.rs",
    "serve/src/protocol.rs",
    "store/src/wal.rs",
    "store/src/checkpoint.rs",
];

/// The L016 entry points: the synthesis iterator, the decoders of
/// untrusted bytes, and the reactor sweep loop (which drives the whole
/// conn state machine).
fn l016_entries(files: &[FileAnalysis], fns: &[Func<'_>]) -> Vec<usize> {
    let mut out = Vec::new();
    for (id, info) in fns.iter().enumerate() {
        let path = files[info.file].path.as_str();
        let name = info.fc.name.as_str();
        let synth = info.fc.self_type.as_deref() == Some("Synthesizer")
            && (name == "next" || name == "next_request");
        let decode = DECODE_FILES.iter().any(|p| path.contains(p))
            && (name.starts_with("read") || name == "decode" || name == "scan_frames");
        if synth || decode || is_reactor_sweep(path, name) {
            out.push(id);
        }
    }
    out
}

fn is_reactor_sweep(path: &str, name: &str) -> bool {
    path.contains("serve/src/reactor.rs") && name == "run"
}

/// Breadth-first reachability from `entry` over the call edges, skipping
/// `pruned` functions. Returns the BFS parent of each reached function,
/// with `entry` mapped to itself.
fn reach_from(
    entry: usize,
    edges: &[BTreeMap<usize, usize>],
    pruned: &BTreeSet<usize>,
) -> BTreeMap<usize, usize> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    parent.insert(entry, entry);
    let mut queue = std::collections::VecDeque::from([entry]);
    while let Some(v) = queue.pop_front() {
        for &c in edges[v].keys() {
            if pruned.contains(&c) || parent.contains_key(&c) {
                continue;
            }
            parent.insert(c, v);
            queue.push_back(c);
        }
    }
    parent
}

/// Renders the `file:line → file:line` chain from `entry` to a site in
/// `target`, using BFS parents: the entry's declaration line, each call
/// site along the path, then the site itself.
fn chain_string(
    entry: usize,
    target: usize,
    site_line: usize,
    parent: &BTreeMap<usize, usize>,
    edges: &[BTreeMap<usize, usize>],
    fns: &[Func<'_>],
    files: &[FileAnalysis],
) -> String {
    let mut path_ids = vec![target];
    let mut v = target;
    while v != entry {
        v = parent[&v];
        path_ids.push(v);
    }
    path_ids.reverse();
    let mut steps = vec![format!(
        "{}:{}",
        files[fns[entry].file].path, fns[entry].fc.line
    )];
    for pair in path_ids.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        steps.push(format!("{}:{}", files[fns[a].file].path, edges[a][&b]));
    }
    steps.push(format!("{}:{}", files[fns[target].file].path, site_line));
    steps.dedup();
    steps.join(" \u{2192} ")
}

// ---------------------------------------------------------------------------
// L016: panic reachability
// ---------------------------------------------------------------------------

fn l016_panic_reachability(
    files: &[FileAnalysis],
    fns: &[Func<'_>],
    edges: &[BTreeMap<usize, usize>],
    sites: &[Vec<Site>],
) -> Vec<Diagnostic> {
    let mut entries = l016_entries(files, fns);
    entries.sort_by(|&a, &b| (&fns[a].qual, a).cmp(&(&fns[b].qual, b)));
    let pruned = BTreeSet::new();
    // One diagnostic per distinct panic site; the first (smallest-qual)
    // entry that reaches it supplies the chain.
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for &entry in &entries {
        let parent = reach_from(entry, edges, &pruned);
        for &target in parent.keys() {
            for site in sites[target].iter().filter(|s| s.kind == EffectKind::Panic) {
                let key = (fns[target].file, site.line, site.what.clone());
                if !seen.insert(key) {
                    continue;
                }
                let chain = chain_string(entry, target, site.line, &parent, edges, fns, files);
                out.push(Diagnostic {
                    file: files[fns[target].file].path.clone(),
                    line: site.line,
                    rule: "L016",
                    message: format!(
                        "panic source {} reachable from `{}`: {chain}; return a typed error or waive with the invariant that makes it impossible",
                        site.what, fns[entry].qual
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L017: reactor blocking
// ---------------------------------------------------------------------------

fn l017_reactor_blocking(
    files: &[FileAnalysis],
    fns: &[Func<'_>],
    edges: &[BTreeMap<usize, usize>],
    sites: &[Vec<Site>],
) -> Vec<Diagnostic> {
    let entries: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, i)| is_reactor_sweep(&files[i.file].path, &i.fc.name))
        .map(|(id, _)| id)
        .collect();
    let pruned: BTreeSet<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, i)| {
            L017_ALLOWLIST
                .iter()
                .any(|(ty, name)| *ty == i.fc.self_type.as_deref() && *name == i.fc.name)
        })
        .map(|(id, _)| id)
        .collect();
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for &entry in &entries {
        let parent = reach_from(entry, edges, &pruned);
        for &target in parent.keys() {
            for site in sites[target]
                .iter()
                .filter(|s| s.kind == EffectKind::Blocking)
            {
                // Plain lock acquisitions are scanned but not
                // reported: brief bounded hops are the design, and
                // holding one while blocking is L013's finding.
                if site.what.ends_with("acquisition") {
                    continue;
                }
                let key = (fns[target].file, site.line, site.what.clone());
                if !seen.insert(key) {
                    continue;
                }
                let chain = chain_string(entry, target, site.line, &parent, edges, fns, files);
                out.push(Diagnostic {
                    file: files[fns[target].file].path.clone(),
                    line: site.line,
                    rule: "L017",
                    message: format!(
                        "blocking {} reachable from the reactor sweep: {chain}; the event thread must stay nonblocking — hand the work to the pool or waive with a reason",
                        site.what
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L018: hot-loop allocation
// ---------------------------------------------------------------------------

/// Files on the fit, synthesis, codec and DRAM/cache simulation hot
/// paths whose loops L018 polices.
fn l018_path(path: &str) -> bool {
    [
        "core/src/synth",
        "core/src/model",
        "core/src/partition",
        "core/src/profile/mod",
        "core/src/profile/codec",
        "trace/src/codec",
        "trace/src/fingerprint",
        "dram/src",
        "cache/src",
    ]
    .iter()
    .any(|p| path.contains(p))
}

fn l018_hot_loop_alloc(
    files: &[FileAnalysis],
    table: &FnTable<'_>,
    edges: &[BTreeMap<usize, usize>],
    sites: &[Vec<Site>],
) -> Vec<Diagnostic> {
    let fns = &table.fns;
    // Which functions transitively allocate: the first direct site, or
    // the smallest-named allocating callee.
    let alloc_site: Vec<Option<&Site>> = sites
        .iter()
        .map(|s| s.iter().find(|s| s.kind == EffectKind::Alloc))
        .collect();
    let callees: Vec<Vec<usize>> = edges.iter().map(|e| e.keys().copied().collect()).collect();
    let alloc = propagate(&callees, &alloc_site, |c| fns[c].qual.as_str());

    let mut out = Vec::new();
    for (id, func) in fns.iter().enumerate() {
        let f = &files[func.file];
        if !l018_path(&f.path) {
            continue;
        }
        // Statement token ranges inside any loop-body scope.
        let cfg = &func.fc.cfg;
        let loop_scopes: BTreeSet<_> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter().filter_map(|e| e.back))
            .collect();
        if loop_scopes.is_empty() {
            continue;
        }
        let mut in_loop: Vec<(usize, usize)> = Vec::new();
        for block in &cfg.blocks {
            for stmt in &block.stmts {
                if loop_scopes
                    .iter()
                    .any(|&ls| cfg.scope_contains(ls, stmt.scope))
                {
                    in_loop.push(stmt.range);
                }
            }
        }
        let contained = |tok: usize| in_loop.iter().any(|&(s, e)| tok >= s && tok < e);

        // Direct allocation sites inside a loop.
        for site in sites[id].iter().filter(|s| s.kind == EffectKind::Alloc) {
            if contained(site.tok) {
                out.push(Diagnostic {
                    file: f.path.clone(),
                    line: site.line,
                    rule: "L018",
                    message: format!(
                        "allocation {} inside a hot loop of `{}`; hoist a reusable buffer out of the loop or waive with a reason",
                        site.what, func.qual
                    ),
                });
            }
        }

        // Calls inside a loop to functions that transitively allocate.
        for &(start, end) in &in_loop {
            for (i, name) in call_sites(&f.tokens, (start, end)) {
                for c in effect_callees(table, &f.tokens, i, name, func) {
                    if c == id || alloc[c].is_none() {
                        continue;
                    }
                    let chain = alloc_chain(c, &alloc, &alloc_site, edges, fns, files);
                    out.push(Diagnostic {
                        file: f.path.clone(),
                        line: f.tokens[i].line,
                        rule: "L018",
                        message: format!(
                            "call to `{}` inside a hot loop of `{}` transitively allocates: {chain}; hoist a reusable buffer or waive with a reason",
                            fns[c].qual, func.qual
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Renders the `file:line → file:line` witness chain from `start` to its
/// allocation site: each call site along the `Via` links, then the site.
fn alloc_chain(
    start: usize,
    alloc: &[Option<Reach>],
    alloc_site: &[Option<&Site>],
    edges: &[BTreeMap<usize, usize>],
    fns: &[Func<'_>],
    files: &[FileAnalysis],
) -> String {
    let path = |id: usize| files[fns[id].file].path.as_str();
    let mut steps = Vec::new();
    let mut cur = start;
    while let Some(Reach::Via(next)) = alloc[cur] {
        steps.push(format!("{}:{}", path(cur), edges[cur][&next]));
        cur = next;
    }
    if let Some(site) = alloc_site[cur] {
        steps.push(format!("{}:{} ({})", path(cur), site.line, site.what));
    }
    steps.join(" \u{2192} ")
}

// ---------------------------------------------------------------------------
// L019: unbounded growth on the serve path
// ---------------------------------------------------------------------------

fn l019_unbounded_growth(files: &[FileAnalysis], fns: &[Func<'_>]) -> Vec<Diagnostic> {
    // Same-file shrink evidence: field names that are ever capped.
    let mut shrunk: Vec<BTreeSet<String>> = vec![BTreeSet::new(); files.len()];
    for (fi, f) in files.iter().enumerate() {
        if f.crate_name != "serve" {
            continue;
        }
        for (i, t) in f.tokens.iter().enumerate() {
            let Some(name) = t.kind.ident() else { continue };
            // `field.pop_front(...)` and friends.
            if SHRINK_METHODS.contains(&name)
                && matches!(i.checked_sub(1).map(|j| &f.tokens[j].kind), Some(k) if k.is_punct('.'))
            {
                if let Some(TokenKind::Ident(field)) = i.checked_sub(2).map(|j| &f.tokens[j].kind) {
                    shrunk[fi].insert(field.clone());
                }
            }
            // `mem::take(&mut self.field)` / `take(&mut inner.field)`.
            if name == "take"
                && matches!(f.tokens.get(i + 1).map(|t| &t.kind), Some(k) if k.is_punct('('))
            {
                for j in i + 2..(i + 8).min(f.tokens.len()) {
                    if let TokenKind::Ident(field) = &f.tokens[j].kind {
                        if field != "mut" && field != "self" {
                            shrunk[fi].insert(field.clone());
                        }
                    }
                    if f.tokens[j].kind.is_punct(')') {
                        break;
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    for info in fns {
        let f = &files[info.file];
        if f.crate_name != "serve" {
            continue;
        }
        let (start, end) = info.fc.body;
        for i in start..end.min(f.tokens.len()) {
            if f.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(name) = f.tokens[i].kind.ident() else {
                continue;
            };
            if !GROWTH_METHODS.contains(&name)
                || !matches!(f.tokens.get(i + 1).map(|t| &t.kind), Some(k) if k.is_punct('('))
            {
                continue;
            }
            // Walk the receiver chain back; only `self`-rooted fields are
            // collections the type owns long-term.
            let Some((root, field)) = self_rooted_receiver(&f.tokens, i) else {
                continue;
            };
            if shrunk[info.file].contains(&field) {
                continue;
            }
            out.push(Diagnostic {
                file: f.path.clone(),
                line: f.tokens[i].line,
                rule: "L019",
                message: format!(
                    "`{root}.{field}.{name}(..)` grows on the serve path with no same-file cap/evict/truncate of `{field}`; bound it or waive with the mechanism that does",
                ),
            });
        }
    }
    out
}

/// If the call at `tokens[i]` is a method on a `self`-rooted field chain
/// (`self.a.b.push(..)`), returns ("self", last field name).
fn self_rooted_receiver(tokens: &[Token], i: usize) -> Option<(String, String)> {
    // tokens[i] is the method name; walk `.field` pairs leftwards.
    let mut j = i;
    let mut last_field: Option<String> = None;
    loop {
        if !matches!(j.checked_sub(1).map(|k| &tokens[k].kind), Some(k) if k.is_punct('.')) {
            return None;
        }
        let prev = j.checked_sub(2).map(|k| &tokens[k].kind)?;
        match prev {
            TokenKind::Ident(name) if name == "self" => {
                return last_field.map(|f| ("self".to_string(), f));
            }
            TokenKind::Ident(name) => {
                if last_field.is_none() {
                    last_field = Some(name.clone());
                }
                j -= 2;
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_constant_index_detection() {
        let lexed = crate::lexer::lex("fn f() { a[i]; b[0]; c[..]; d[1..n]; e[x + 1]; }");
        let hits: Vec<usize> = (0..lexed.tokens.len())
            .filter(|&i| {
                lexed.tokens[i].kind.is_punct('[') && indexes_non_constant(&lexed.tokens, i)
            })
            .collect();
        // `a[i]` and `e[x + 1]` only.
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn self_rooted_receiver_walks_chains() {
        let lexed =
            crate::lexer::lex("fn f(&mut self) { self.q.push(x); self.a.b.push(y); q.push(z); }");
        let mut found = Vec::new();
        for (i, t) in lexed.tokens.iter().enumerate() {
            if t.kind.ident() == Some("push") {
                found.push(self_rooted_receiver(&lexed.tokens, i));
            }
        }
        assert_eq!(
            found,
            vec![
                Some(("self".into(), "q".into())),
                Some(("self".into(), "b".into())),
                None
            ]
        );
    }
}
