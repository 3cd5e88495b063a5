//! The workspace-wide symbol graph and the cross-file analyses.
//!
//! Per-file rules see one token stream at a time; the properties this
//! module checks only exist at workspace scope:
//!
//! * **L008 (transitive)** — determinism taint. A function whose body
//!   contains a direct nondeterminism site ([`crate::rules`] finds those)
//!   taints every transitive caller on the fit/synthesize/codec path. The
//!   call graph is name-resolved conservatively: `Type::method` calls bind
//!   to that type's impl, bare calls prefer the defining file and
//!   otherwise require a unique workspace definition, and `.method(...)`
//!   calls bind only when exactly one impl defines the name — ambiguity
//!   never produces an edge, so taint spreads through real call chains
//!   only.
//! * **The shared call graph** — the function table (`FnTable`), call
//!   resolution (`CallResolver`) and the bottom-up propagation engine
//!   (`propagate`) that L008 taint, L013 transitive blocking and L018
//!   allocation chains all run on.
//! * **L009** — dead `pub` surface: a `pub` item nothing references
//!   outside its own definition — in any file, including its own
//!   (same-crate `pub use` re-exports do not count as references — a
//!   re-export of a dead item is just a dead re-export).
//! * **L010** — public-API snapshots: each crate's exported surface is
//!   rendered to a sorted, deterministic `.api` file and diffed against
//!   the checked-in baseline under `crates/lint/baselines/`; undeclared
//!   additions and removals fail the gate until the baseline is
//!   regenerated (`scripts/update-api-baselines.sh`).
//!
//! Everything here is a pure function of the analyzed files, so reports
//! are byte-identical across runs and thread counts.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use mocktails_pool::Parallelism;

use crate::cfg::FnCfg;
use crate::lexer::{lex, Directive, Token, TokenKind};
use crate::parser::{self, Ast, Item, ItemKind, Visibility};
use crate::rules::{self, Diagnostic, L008Site};

/// How a file participates in the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// A `crates/*/src` file: linted by every rule and part of the API
    /// surface.
    Lint,
    /// A test, example or root-crate file: lexed and parsed only as a
    /// reference source, so that items used solely by tests are not dead.
    Reference,
}

/// One analyzed source file: tokens, AST, per-file diagnostics and the
/// data the cross-file passes need.
#[derive(Debug)]
pub struct FileAnalysis {
    /// The file path, `/`-normalized, as given to the linter.
    pub path: String,
    /// How the file participates.
    pub role: FileRole,
    /// The `crates/<name>/` the file belongs to, or `""` outside `crates/`.
    pub crate_name: String,
    /// True for binary targets (`main.rs`, `src/bin/`).
    pub is_bin: bool,
    /// The token skeleton.
    pub tokens: Vec<Token>,
    /// `// lint: allow` directives by line.
    pub directives: BTreeMap<usize, Vec<Directive>>,
    /// File-scoped `// lint: allow-file` directives.
    pub file_directives: Vec<Directive>,
    /// The item AST.
    pub ast: Ast,
    /// Per-token test-scope flags.
    pub in_test: Vec<bool>,
    /// Per-file diagnostics (L001–L008 direct, L011, L015),
    /// directive-filtered.
    pub diagnostics: Vec<Diagnostic>,
    /// Surviving (unsuppressed) L008 direct sites, for taint seeding.
    pub l008_sites: Vec<L008Site>,
    /// Per-function control-flow graphs: the workspace function table
    /// every interprocedural pass shares. Empty for reference files.
    pub fn_cfgs: Vec<FnCfg>,
}

/// Lexes, parses, per-file-lints and (for lint files) lowers every
/// function body of one source file to its control-flow graph.
pub fn analyze_source(path: &Path, src: &str, role: FileRole) -> FileAnalysis {
    let lexed = lex(src);
    let ast = parser::parse(&lexed.tokens);
    let in_test = rules::test_flags(&lexed.tokens);
    let norm = path.to_string_lossy().replace('\\', "/");
    let scope = rules::Scope::of(path);

    let mut diagnostics = Vec::new();
    let mut l008_sites = Vec::new();
    if role == FileRole::Lint {
        diagnostics = rules::file_diagnostics(path, &lexed);
        rules::apply_directives(&mut diagnostics, &lexed.directives, &lexed.file_directives);
        diagnostics.sort();
        if scope.wants_determinism() {
            l008_sites = rules::l008_sites(&lexed.tokens, &in_test)
                .into_iter()
                .filter(|s| !suppressed(&lexed.directives, &lexed.file_directives, s.line, "L008"))
                .collect();
        }
    }

    let fn_cfgs = if role == FileRole::Lint {
        crate::cfg::build_fn_cfgs(&lexed.tokens, &ast)
    } else {
        Vec::new()
    };

    FileAnalysis {
        crate_name: crate_of(&norm),
        is_bin: norm.ends_with("/main.rs") || norm == "main.rs" || norm.contains("/src/bin/"),
        path: norm,
        role,
        tokens: lexed.tokens,
        directives: lexed.directives,
        file_directives: lexed.file_directives,
        ast,
        in_test,
        diagnostics,
        l008_sites,
        fn_cfgs,
    }
}

/// Options for the cross-file pass.
#[derive(Debug)]
pub struct CrossFileOptions<'a> {
    /// Where the `<crate>.api` baselines live.
    pub baselines_dir: &'a Path,
    /// When true, L010 rewrites the baselines instead of diffing them.
    pub update_baselines: bool,
    /// Thread configuration for the effects pass's per-function
    /// direct-site scan. The merge is in submission order, so the report
    /// stays byte-identical at any thread count.
    pub parallelism: Parallelism,
}

/// Runs the cross-file analyses (L008 transitive, L009, L010, the
/// L012–L014 lock discipline and the L016–L019 effect rules) over the
/// analyzed workspace. Returned diagnostics are directive-filtered and
/// sorted.
///
/// # Errors
///
/// Propagates I/O errors from reading or (in update mode) writing the API
/// baseline files.
pub fn cross_file(
    files: &[FileAnalysis],
    opts: &CrossFileOptions<'_>,
) -> io::Result<Vec<Diagnostic>> {
    let table = FnTable::new(files);
    let mut diags = Vec::new();
    diags.extend(taint_analysis(files, &table));
    diags.extend(dead_pub_surface(files));
    diags.extend(api_snapshots(files, opts)?);
    diags.extend(crate::locks::lock_analysis(files, &table));
    diags.extend(crate::effects::effects_analysis(
        files,
        &table,
        opts.parallelism,
    ));

    // Cross-file diagnostics honor the same `// lint: allow` directives at
    // the line they point at.
    let directives: BTreeMap<&str, &FileAnalysis> =
        files.iter().map(|f| (f.path.as_str(), f)).collect();
    diags.retain(|d| {
        directives
            .get(d.file.as_str())
            .map(|f| !suppressed(&f.directives, &f.file_directives, d.line, d.rule))
            .unwrap_or(true)
    });
    diags.sort();
    Ok(diags)
}

fn suppressed(
    directives: &BTreeMap<usize, Vec<Directive>>,
    file_directives: &[Directive],
    line: usize,
    rule: &str,
) -> bool {
    if file_directives.iter().any(|dir| dir.covers(rule)) {
        return true;
    }
    [line, line.saturating_sub(1)].iter().any(|l| {
        directives
            .get(l)
            .map(|ds| ds.iter().any(|dir| dir.covers(rule)))
            .unwrap_or(false)
    })
}

/// The `crates/<name>/` a normalized path belongs to.
fn crate_of(path: &str) -> String {
    match path.split_once("crates/") {
        Some((_, rest)) => rest.split('/').next().unwrap_or("").to_string(),
        None => String::new(),
    }
}

// ---------------------------------------------------------------------------
// The shared call graph: function table, resolution, propagation
// ---------------------------------------------------------------------------

/// One non-test function with a body.
pub(crate) struct Func<'a> {
    /// Index of the defining file in the analyzed slice.
    pub(crate) file: usize,
    /// The function's CFG and token ranges.
    pub(crate) fc: &'a FnCfg,
    /// Display name: `Type::name` or `name`.
    pub(crate) qual: String,
}

/// The workspace function table every interprocedural pass (L008 taint,
/// L012–L014 locks, L016–L019 effects) shares, built once from the
/// per-file CFGs. A function's id is its index; the order is (file, body
/// start), so ids are a pure function of the analyzed files.
pub(crate) struct FnTable<'a> {
    /// The functions, by id.
    pub(crate) fns: Vec<Func<'a>>,
    /// Call resolution over [`FnTable::fns`].
    pub(crate) resolver: CallResolver<'a>,
}

impl<'a> FnTable<'a> {
    pub(crate) fn new(files: &'a [FileAnalysis]) -> Self {
        let mut fns: Vec<Func<'a>> = Vec::new();
        for (file, f) in files.iter().enumerate() {
            for fc in &f.fn_cfgs {
                let qual = match &fc.self_type {
                    Some(ty) => format!("{ty}::{}", fc.name),
                    None => fc.name.clone(),
                };
                fns.push(Func { file, fc, qual });
            }
        }
        fns.sort_by_key(|f| (f.file, f.fc.body.0));
        let resolver = CallResolver::new(
            fns.iter()
                .map(|f| (f.fc.name.as_str(), f.fc.self_type.as_deref(), f.file)),
        );
        FnTable { fns, resolver }
    }
}

/// How a function reaches an effect, as computed by [`propagate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reach {
    /// Its own body contains a direct site.
    Direct,
    /// It calls this function id, which reaches the effect.
    Via(usize),
}

/// Propagates an effect from the functions with a `direct` site to every
/// transitive caller over `edges` (each caller's sorted callee ids).
///
/// Bottom-up over [`tarjan_sccs`]: every callee outside a component is
/// final before the component's members are read. A caller's witness is
/// its reaching callee with the smallest `(qual(id), id)`. Inside a
/// component, members take turns in id order until none changes, and a
/// `Via` link only ever names a callee that already reaches the effect,
/// so following the links always ends at a `Direct` function.
pub(crate) fn propagate<T, K: Ord>(
    edges: &[Vec<usize>],
    direct: &[Option<T>],
    qual: impl Fn(usize) -> K,
) -> Vec<Option<Reach>> {
    let mut reach: Vec<Option<Reach>> = direct
        .iter()
        .map(|d| d.as_ref().map(|_| Reach::Direct))
        .collect();
    for component in tarjan_sccs(edges) {
        let mut changed = true;
        while changed {
            changed = false;
            for &m in &component {
                if reach[m].is_some() {
                    continue;
                }
                let witness = edges[m]
                    .iter()
                    .copied()
                    .filter(|&c| reach[c].is_some())
                    .min_by_key(|&c| (qual(c), c));
                if let Some(c) = witness {
                    reach[m] = Some(Reach::Via(c));
                    changed = true;
                }
            }
        }
    }
    reach
}

/// The function at the end of `id`'s witness chain: the one whose own
/// body holds the direct site (`id` itself when it reaches nothing).
pub(crate) fn witness_root(reach: &[Option<Reach>], mut id: usize) -> usize {
    while let Some(Reach::Via(next)) = reach[id] {
        id = next;
    }
    id
}

/// Iterative Tarjan over `edges` (each node's sorted successor ids).
/// Deterministic: nodes are visited in index order and successors in
/// list order, so the component list — in reverse topological order,
/// successors first, each component sorted — is a pure function of the
/// graph.
pub(crate) fn tarjan_sccs(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, position in its successor list).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = edges[v].get(*pos) {
                *pos += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    sccs.push(component);
                }
            }
        }
    }
    sccs
}

/// Conservative name resolution over the [`FnTable`], shared by every
/// interprocedural pass so the rules start from one call graph.
///
/// The resolution policy:
///
/// * `Type::name(...)` binds to the functions the named type's impls (or
///   the trait of that name) define.
/// * `name(...)` bare calls prefer same-file definitions and otherwise
///   require a unique workspace definition.
/// * `.name(...)` method calls bind only when exactly one impl anywhere
///   defines the name.
///
/// Ambiguity never produces an edge, so the passes only follow call
/// chains they can actually prove. Results are memoised per (call shape,
/// caller file), which makes repeated resolution of the same hot names —
/// every pass re-walks the same bodies — a map lookup.
///
/// The passes do not all resolve the same way. The L016–L019 effects
/// pass (`effects::effect_callees`) adds two rules of its own on top:
/// `Self::name` rebinds to the caller's impl type (this resolver sees the
/// literal `Self` and finds nothing), and method calls whose name
/// collides with a std method (`map`, `next`, `shutdown`, ...) are never
/// resolved. L008 and L013 use this resolver as is; the lock pass only
/// keeps std lock vocabulary (`lock`, `wait`, `drop`, ...) away from it.
pub(crate) struct CallResolver<'a> {
    /// Free functions by name.
    free_by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Methods by bare name, across all impls.
    method_by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Methods by (self type, name).
    by_qual: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// Defining file of each function id, for same-file preference.
    files: Vec<usize>,
    /// Memoised resolutions. Interior mutability keeps the public surface
    /// `&self`; resolution runs on the sequential cross-file stage, so a
    /// `RefCell` suffices.
    memo: RefCell<BTreeMap<MemoKey, Vec<usize>>>,
}

/// A memo key: the call shape plus (for bare calls) the caller's file.
type MemoKey = (u8, String, String, usize);

/// A call site, as specifically as the tokens identify the callee.
#[derive(Debug)]
pub(crate) enum Call {
    /// `name(...)` — a bare call.
    Bare(String),
    /// `Type::name(...)` — a qualified call.
    Qualified(String, String),
    /// `.name(...)` — a method call with unknown receiver type.
    Method(String),
}

impl<'a> CallResolver<'a> {
    /// Builds the resolver over `(name, self_type, file)` triples in
    /// function-id order — the id of a triple is its position.
    pub(crate) fn new(fns: impl Iterator<Item = (&'a str, Option<&'a str>, usize)>) -> Self {
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut method_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut files = Vec::new();
        for (id, (name, self_type, file)) in fns.enumerate() {
            match self_type {
                Some(ty) => {
                    method_by_name.entry(name).or_default().push(id);
                    by_qual.entry((ty, name)).or_default().push(id);
                }
                None => free_by_name.entry(name).or_default().push(id),
            }
            files.push(file);
        }
        CallResolver {
            free_by_name,
            method_by_name,
            by_qual,
            files,
            memo: RefCell::new(BTreeMap::new()),
        }
    }

    /// Classifies the call at token `i` (an identifier followed by `(`)
    /// from its token context and resolves it. Returns no ids for nested
    /// `fn` definitions and for qualified calls whose type token is not a
    /// plain identifier.
    pub(crate) fn resolve_callees(
        &self,
        tokens: &[Token],
        i: usize,
        name: &str,
        caller_file: usize,
    ) -> Vec<usize> {
        let prev = i.checked_sub(1).map(|j| &tokens[j].kind);
        let call = match prev {
            Some(TokenKind::Punct('.')) => Call::Method(name.to_string()),
            Some(k) if k.is_op("::") => match i.checked_sub(2).map(|j| &tokens[j].kind) {
                Some(TokenKind::Ident(ty)) => Call::Qualified(ty.clone(), name.to_string()),
                _ => return Vec::new(),
            },
            Some(TokenKind::Ident(kw)) if kw == "fn" => return Vec::new(), // a definition
            _ => Call::Bare(name.to_string()),
        };
        self.resolve(&call, caller_file)
    }

    /// Resolves a classified call from `caller_file` to function ids.
    pub(crate) fn resolve(&self, call: &Call, caller_file: usize) -> Vec<usize> {
        let key: MemoKey = match call {
            Call::Bare(name) => (0, String::new(), name.clone(), caller_file),
            Call::Qualified(ty, name) => (1, ty.clone(), name.clone(), 0),
            Call::Method(name) => (2, String::new(), name.clone(), 0),
        };
        if let Some(hit) = self.memo.borrow().get(&key) {
            return hit.clone();
        }
        let resolved = match call {
            Call::Qualified(ty, name) => self
                .by_qual
                .get(&(ty.as_str(), name.as_str()))
                .cloned()
                .unwrap_or_default(),
            Call::Bare(name) => {
                let all = self
                    .free_by_name
                    .get(name.as_str())
                    .cloned()
                    .unwrap_or_default();
                let same_file: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&c| self.files[c] == caller_file)
                    .collect();
                if !same_file.is_empty() {
                    same_file
                } else if all.len() == 1 {
                    all
                } else {
                    Vec::new()
                }
            }
            Call::Method(name) => {
                let all = self
                    .method_by_name
                    .get(name.as_str())
                    .cloned()
                    .unwrap_or_default();
                if all.len() == 1 {
                    all
                } else {
                    Vec::new()
                }
            }
        };
        self.memo.borrow_mut().insert(key, resolved.clone());
        resolved
    }
}

/// The call sites of a body token range: each `(token index, name)` where
/// an identifier is followed by `(`.
pub(crate) fn call_sites(tokens: &[Token], body: (usize, usize)) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for i in body.0..body.1.min(tokens.len()) {
        let name = match tokens[i].kind.ident() {
            Some(s) => s,
            None => continue,
        };
        if matches!(tokens.get(i + 1).map(|t| &t.kind), Some(k) if k.is_punct('(')) {
            out.push((i, name));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L008: determinism taint
// ---------------------------------------------------------------------------

fn taint_analysis(files: &[FileAnalysis], table: &FnTable<'_>) -> Vec<Diagnostic> {
    let fns = &table.fns;
    // Seed taint from the first surviving direct site in each body.
    let direct: Vec<Option<&str>> = fns
        .iter()
        .map(|f| {
            let (start, end) = f.fc.body;
            files[f.file]
                .l008_sites
                .iter()
                .find(|s| s.tok >= start && s.tok < end)
                .map(|s| s.what.as_str())
        })
        .collect();

    let edges: Vec<Vec<usize>> = fns
        .iter()
        .map(|f| {
            let tokens = &files[f.file].tokens;
            let mut callees: Vec<usize> = call_sites(tokens, f.fc.body)
                .into_iter()
                .flat_map(|(i, name)| table.resolver.resolve_callees(tokens, i, name, f.file))
                .collect();
            callees.sort_unstable();
            callees.dedup();
            callees
        })
        .collect();
    let reach = propagate(&edges, &direct, |c| fns[c].qual.as_str());

    // Report transitive taint for functions on the synthesis path. Direct
    // sites already carry their own per-file L008 diagnostics.
    let mut out = Vec::new();
    for (id, func) in fns.iter().enumerate() {
        let Some(Reach::Via(callee)) = reach[id] else {
            continue;
        };
        let Some(root) = direct[witness_root(&reach, id)] else {
            continue;
        };
        let f = &files[func.file];
        if !rules::Scope::of(Path::new(&f.path)).wants_determinism() {
            continue;
        }
        out.push(Diagnostic {
            file: f.path.clone(),
            line: func.fc.line,
            rule: "L008",
            message: format!(
                "fn `{}` calls `{}`, which transitively performs {root}; the synthesis path must be deterministic",
                func.qual, fns[callee].qual
            ),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L009: dead pub surface
// ---------------------------------------------------------------------------

/// Item kinds L009 considers part of the exported surface.
fn is_surface_kind(kind: ItemKind) -> bool {
    matches!(
        kind,
        ItemKind::Fn
            | ItemKind::Struct
            | ItemKind::Enum
            | ItemKind::Union
            | ItemKind::Trait
            | ItemKind::Const
            | ItemKind::Static
            | ItemKind::TypeAlias
    )
}

fn kind_word(kind: ItemKind) -> &'static str {
    match kind {
        ItemKind::Fn => "fn",
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Union => "union",
        ItemKind::Trait => "trait",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::TypeAlias => "type",
        ItemKind::Mod => "mod",
        _ => "item",
    }
}

fn dead_pub_surface(files: &[FileAnalysis]) -> Vec<Diagnostic> {
    // Candidates: pub items of library files, at the top level or nested in
    // pub mods. Impl methods and re-exports are not candidates.
    struct Candidate {
        file: usize,
        name: String,
        line: usize,
        kind: ItemKind,
        /// The item's own token range (signature through body), whose
        /// mentions of the name do not count as references.
        def_range: (usize, usize),
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    fn collect(items: &[Item], file: usize, out: &mut Vec<Candidate>) {
        for item in items {
            if item.in_test || item.vis != Visibility::Public {
                continue;
            }
            if is_surface_kind(item.kind) && !item.name.is_empty() && item.name != "main" {
                let end = item.body.map(|(_, e)| e + 1).unwrap_or(item.sig.1 + 1);
                out.push(Candidate {
                    file,
                    name: item.name.clone(),
                    line: item.line,
                    kind: item.kind,
                    def_range: (item.sig.0, end),
                });
            }
            if item.kind == ItemKind::Mod {
                collect(&item.children, file, out);
            }
        }
    }
    for (fi, f) in files.iter().enumerate() {
        if f.role == FileRole::Lint && !f.is_bin {
            collect(&f.ast.items, fi, &mut candidates);
        }
    }

    // Reference index: per file, idents outside `use` ranges (with the
    // token index of each occurrence, so a candidate can exclude its own
    // definition) and idents inside them. Use-statement idents count only
    // cross-crate — a same-crate `pub use` of a dead item is just a dead
    // re-export, not a reference.
    struct Refs {
        crate_name: String,
        code_idents: BTreeMap<String, Vec<usize>>,
        use_idents: BTreeSet<String>,
    }
    let refs: Vec<Refs> = files
        .iter()
        .map(|f| {
            let mut use_ranges: Vec<(usize, usize)> = Vec::new();
            collect_use_ranges(&f.ast.items, &mut use_ranges);
            let mut code_idents: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            let mut use_idents = BTreeSet::new();
            for (i, t) in f.tokens.iter().enumerate() {
                if let Some(id) = t.kind.ident() {
                    if use_ranges.iter().any(|&(s, e)| i >= s && i < e) {
                        use_idents.insert(id.to_string());
                    } else {
                        code_idents.entry(id.to_string()).or_default().push(i);
                    }
                }
            }
            Refs {
                crate_name: f.crate_name.clone(),
                code_idents,
                use_idents,
            }
        })
        .collect();

    let mut out = Vec::new();
    for c in &candidates {
        let def_crate = &files[c.file].crate_name;
        let referenced = refs.iter().enumerate().any(|(fi, r)| {
            let code_hit = r.code_idents.get(&c.name).is_some_and(|occurrences| {
                // A mention inside the candidate's own definition is not a
                // reference; any other mention — same file or not — is.
                fi != c.file
                    || occurrences
                        .iter()
                        .any(|&i| i < c.def_range.0 || i >= c.def_range.1)
            });
            code_hit || (r.crate_name != *def_crate && r.use_idents.contains(&c.name))
        });
        if !referenced {
            out.push(Diagnostic {
                file: files[c.file].path.clone(),
                line: c.line,
                rule: "L009",
                message: format!(
                    "`pub {} {}` is never referenced outside its own definition; reduce its visibility or allowlist with a reason",
                    kind_word(c.kind),
                    c.name
                ),
            });
        }
    }
    out
}

fn collect_use_ranges(items: &[Item], out: &mut Vec<(usize, usize)>) {
    for item in items {
        if item.kind == ItemKind::Use {
            out.push(item.sig);
        }
        if !item.children.is_empty() {
            collect_use_ranges(&item.children, out);
        }
    }
}

// ---------------------------------------------------------------------------
// L010: public-API snapshots
// ---------------------------------------------------------------------------

/// The rendered API surface of one crate: sorted unique lines, plus the
/// definition site of each line for addition diagnostics.
pub struct ApiSurface {
    /// Sorted, deduplicated surface lines.
    pub lines: Vec<String>,
    /// `line text -> (file path, source line)` for diagnostics.
    pub sites: BTreeMap<String, (String, usize)>,
}

impl ApiSurface {
    /// The baseline file content: the lines joined with `\n`, with a
    /// trailing newline when non-empty.
    pub fn render(&self) -> String {
        if self.lines.is_empty() {
            String::new()
        } else {
            let mut s = self.lines.join("\n");
            s.push('\n');
            s
        }
    }
}

/// Computes the exported API surface of `crate_name` from its analyzed
/// library files.
pub fn crate_api_surface(files: &[FileAnalysis], crate_name: &str) -> ApiSurface {
    // Out-of-line module visibility: `mod m;` declarations name the module
    // files of the crate. A file's items are exported only if every module
    // segment on its path is declared `pub`.
    let mut decl_vis: BTreeMap<Vec<String>, Visibility> = BTreeMap::new();
    let lib_files: Vec<&FileAnalysis> = files
        .iter()
        .filter(|f| f.role == FileRole::Lint && f.crate_name == crate_name && !f.is_bin)
        .collect();
    for f in &lib_files {
        let base = module_path_of(&f.path);
        collect_mod_decls(&f.ast.items, &base, &mut decl_vis);
    }
    let exported_file = |path: &str| -> bool {
        let mp = module_path_of(path);
        (1..=mp.len()).all(|n| {
            decl_vis
                .get(&mp[..n])
                .map(|v| *v == Visibility::Public)
                // An undeclared module segment (e.g. a path target of a
                // `#[path]` attr we cannot see) is assumed exported, which
                // errs toward pinning too much rather than too little.
                .unwrap_or(true)
        })
    };

    // Public type names of the crate, to filter impl lines.
    let mut public_types: BTreeSet<String> = BTreeSet::new();
    for f in &lib_files {
        collect_public_type_names(&f.ast.items, &mut public_types);
    }

    let mut lines: BTreeSet<String> = BTreeSet::new();
    let mut sites: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for f in &lib_files {
        if !exported_file(&f.path) {
            continue;
        }
        let base = module_path_of(&f.path);
        surface_of_items(
            &f.ast.items,
            f,
            &base,
            &public_types,
            &mut lines,
            &mut sites,
        );
    }
    ApiSurface {
        lines: lines.into_iter().collect(),
        sites,
    }
}

/// The module path of a crate source file: `src/lib.rs` is the root,
/// `src/a/b.rs` is `a::b`, `src/a/mod.rs` is `a`.
fn module_path_of(path: &str) -> Vec<String> {
    let rel = match path.split_once("/src/") {
        Some((_, rel)) => rel,
        None => return Vec::new(),
    };
    let rel = rel.strip_suffix(".rs").unwrap_or(rel);
    let mut segs: Vec<String> = rel.split('/').map(str::to_string).collect();
    if segs.last().is_some_and(|s| s == "mod") {
        segs.pop();
    }
    if segs.len() == 1 && segs[0] == "lib" {
        segs.clear();
    }
    segs
}

/// Records the visibility of every out-of-line `mod m;` declaration.
fn collect_mod_decls(items: &[Item], base: &[String], out: &mut BTreeMap<Vec<String>, Visibility>) {
    for item in items {
        if item.in_test {
            continue;
        }
        if item.kind == ItemKind::Mod {
            if item.body.is_none() {
                let mut path = base.to_vec();
                path.push(item.name.clone());
                out.insert(path, item.vis);
            } else {
                let mut path = base.to_vec();
                path.push(item.name.clone());
                collect_mod_decls(&item.children, &path, out);
            }
        }
    }
}

/// Collects the names of `pub` type-like items (for impl-line filtering).
fn collect_public_type_names(items: &[Item], out: &mut BTreeSet<String>) {
    for item in items {
        if item.in_test {
            continue;
        }
        match item.kind {
            ItemKind::Struct | ItemKind::Enum | ItemKind::Union | ItemKind::TypeAlias
                if item.vis == Visibility::Public =>
            {
                out.insert(item.name.clone());
            }
            ItemKind::Mod => collect_public_type_names(&item.children, out),
            _ => {}
        }
    }
}

/// Renders the surface lines of one item list (recursing through pub mods
/// and impls).
fn surface_of_items(
    items: &[Item],
    f: &FileAnalysis,
    mod_path: &[String],
    public_types: &BTreeSet<String>,
    lines: &mut BTreeSet<String>,
    sites: &mut BTreeMap<String, (String, usize)>,
) {
    let prefix = if mod_path.is_empty() {
        "crate".to_string()
    } else {
        format!("crate::{}", mod_path.join("::"))
    };
    for item in items {
        if item.in_test {
            continue;
        }
        match item.kind {
            ItemKind::Impl => {
                let ty = match &item.self_type {
                    Some(t) if public_types.contains(t) => t.clone(),
                    _ => continue,
                };
                match &item.trait_name {
                    Some(tr) => {
                        let line = format!("{prefix} impl {tr} for {ty}");
                        sites
                            .entry(line.clone())
                            .or_insert((f.path.clone(), item.line));
                        lines.insert(line);
                    }
                    None => {
                        for m in &item.children {
                            if m.kind != ItemKind::Fn || m.vis != Visibility::Public || m.in_test {
                                continue;
                            }
                            let line = format!(
                                "{prefix} impl {ty} pub {}{}{}",
                                if m.is_unsafe { "unsafe " } else { "" },
                                parser::render(&f.tokens, m.sig),
                                deprecated_marker(m),
                            );
                            sites
                                .entry(line.clone())
                                .or_insert((f.path.clone(), m.line));
                            lines.insert(line);
                        }
                    }
                }
            }
            ItemKind::Mod if item.vis == Visibility::Public && item.body.is_some() => {
                let mut nested = mod_path.to_vec();
                nested.push(item.name.clone());
                surface_of_items(&item.children, f, &nested, public_types, lines, sites);
            }
            ItemKind::Use if item.vis == Visibility::Public => {
                for u in &item.uses {
                    let mut line = format!("{prefix} pub use {}", u.segments.join("::"));
                    if u.glob {
                        line.push_str("::*");
                    }
                    if let Some(a) = &u.alias {
                        line.push_str(&format!(" as {a}"));
                    }
                    sites
                        .entry(line.clone())
                        .or_insert((f.path.clone(), item.line));
                    lines.insert(line);
                }
            }
            kind if is_surface_kind(kind) && item.vis == Visibility::Public => {
                let mut sig = parser::render(&f.tokens, item.sig);
                // Initializers are not API surface: cut consts/statics at
                // the `=`.
                if matches!(
                    kind,
                    ItemKind::Const | ItemKind::Static | ItemKind::TypeAlias
                ) {
                    if let Some(pos) = sig.find(" = ") {
                        sig.truncate(pos);
                    }
                }
                let line = format!(
                    "{prefix} pub {}{sig}{}",
                    if item.is_unsafe { "unsafe " } else { "" },
                    deprecated_marker(item),
                );
                sites
                    .entry(line.clone())
                    .or_insert((f.path.clone(), item.line));
                lines.insert(line);
            }
            _ => {}
        }
    }
}

fn deprecated_marker(item: &Item) -> &'static str {
    if item.has_attr("deprecated") {
        " [deprecated]"
    } else {
        ""
    }
}

fn api_snapshots(
    files: &[FileAnalysis],
    opts: &CrossFileOptions<'_>,
) -> io::Result<Vec<Diagnostic>> {
    let crates: BTreeSet<&str> = files
        .iter()
        .filter(|f| f.role == FileRole::Lint && !f.crate_name.is_empty())
        .map(|f| f.crate_name.as_str())
        .collect();

    let mut out = Vec::new();
    for name in crates {
        let surface = crate_api_surface(files, name);
        let baseline_path = opts.baselines_dir.join(format!("{name}.api"));
        let display = baseline_path.to_string_lossy().replace('\\', "/");
        if opts.update_baselines {
            std::fs::create_dir_all(opts.baselines_dir)?;
            std::fs::write(&baseline_path, surface.render())?;
            continue;
        }
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                out.push(Diagnostic {
                    file: display,
                    line: 1,
                    rule: "L010",
                    message: format!(
                        "missing API baseline for crate `{name}`; run scripts/update-api-baselines.sh and commit the result"
                    ),
                });
                continue;
            }
            Err(e) => return Err(e),
        };
        let baseline_lines: Vec<&str> = baseline.lines().collect();
        let baseline_set: BTreeSet<&str> = baseline_lines.iter().copied().collect();
        let current_set: BTreeSet<&str> = surface.lines.iter().map(String::as_str).collect();
        for added in current_set.difference(&baseline_set) {
            let (file, line) = surface
                .sites
                .get(*added)
                .cloned()
                .unwrap_or_else(|| (display.clone(), 1));
            out.push(Diagnostic {
                file,
                line,
                rule: "L010",
                message: format!(
                    "public API addition not in baseline: `{added}`; run scripts/update-api-baselines.sh to declare the change"
                ),
            });
        }
        for (idx, line) in baseline_lines.iter().enumerate() {
            if !current_set.contains(line) {
                out.push(Diagnostic {
                    file: display.clone(),
                    line: idx + 1,
                    rule: "L010",
                    message: format!(
                        "public API removal: `{line}` is no longer exported; declared breaks require regenerating the baseline"
                    ),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn analyze(path: &str, src: &str) -> FileAnalysis {
        analyze_source(&PathBuf::from(path), src, FileRole::Lint)
    }

    fn cross(files: &[FileAnalysis]) -> Vec<Diagnostic> {
        let dir = std::env::temp_dir().join(format!("mocktails-lint-none-{}", std::process::id()));
        // Point baselines at a directory that stays absent so L010 yields
        // only per-crate "missing baseline" diags, filtered out here.
        let opts = CrossFileOptions {
            baselines_dir: &dir,
            update_baselines: false,
            parallelism: Parallelism::sequential(),
        };
        cross_file(files, &opts)
            .expect("cross-file pass")
            .into_iter()
            .filter(|d| d.rule != "L010")
            .collect()
    }

    #[test]
    fn resolver_pins_two_impl_ambiguity() {
        // Two impls defining the same method name: `.step()` must resolve
        // to nothing (ambiguous), `A::step` / `B::step` to exactly their
        // impl, and a bare call must prefer the same file before falling
        // back to a unique workspace definition.
        let table = [
            ("step", Some("A"), 0), // 0: A::step in file 0
            ("step", Some("B"), 1), // 1: B::step in file 1
            ("only", Some("A"), 0), // 2: A::only — the one impl of `only`
            ("helper", None, 0),    // 3: free helper in file 0
            ("helper", None, 1),    // 4: free helper in file 1
            ("unique_fn", None, 0), // 5: the only free fn of that name
        ];
        let r = CallResolver::new(table.iter().map(|&(n, t, f)| (n, t, f)));

        assert_eq!(
            r.resolve(&Call::Method("step".into()), 0),
            Vec::<usize>::new()
        );
        assert_eq!(r.resolve(&Call::Method("only".into()), 1), vec![2]);
        assert_eq!(
            r.resolve(&Call::Qualified("A".into(), "step".into()), 1),
            vec![0]
        );
        assert_eq!(
            r.resolve(&Call::Qualified("B".into(), "step".into()), 0),
            vec![1]
        );
        assert_eq!(
            r.resolve(&Call::Qualified("C".into(), "step".into()), 0),
            Vec::<usize>::new()
        );
        // Bare calls: same file wins; ambiguity across files yields nothing
        // unless the definition is unique workspace-wide.
        assert_eq!(r.resolve(&Call::Bare("helper".into()), 0), vec![3]);
        assert_eq!(r.resolve(&Call::Bare("helper".into()), 1), vec![4]);
        assert_eq!(
            r.resolve(&Call::Bare("helper".into()), 2),
            Vec::<usize>::new()
        );
        assert_eq!(r.resolve(&Call::Bare("unique_fn".into()), 2), vec![5]);
        // Memoised: a second identical query returns the same answer.
        assert_eq!(r.resolve(&Call::Bare("helper".into()), 0), vec![3]);
    }

    #[test]
    fn tarjan_orders_callees_first() {
        // 0 -> 1 -> 2, with 1 <-> 3 a cycle.
        let edges = vec![vec![1], vec![2, 3], vec![], vec![1]];
        assert_eq!(tarjan_sccs(&edges), vec![vec![2], vec![1, 3], vec![0]]);
    }

    #[test]
    fn propagate_names_the_smallest_reaching_callee() {
        // 0 calls 1 ("z", direct) and 2 ("a"), which reaches 3 (direct).
        // 2 reaches the effect only through a higher id, yet 0 must see
        // it and name "a".
        let names = ["top", "z", "a", "leaf"];
        let edges = vec![vec![1, 2], vec![], vec![3], vec![]];
        let direct = [None, Some(()), None, Some(())];
        let reach = propagate(&edges, &direct, |c| names[c]);
        assert_eq!(
            reach,
            vec![
                Some(Reach::Via(2)),
                Some(Reach::Direct),
                Some(Reach::Via(3)),
                Some(Reach::Direct)
            ]
        );
        assert_eq!(witness_root(&reach, 0), 3);
    }

    #[test]
    fn propagate_chains_through_a_cycle_end_at_a_direct_site() {
        // 0 <-> 1 is a cycle; only 1 reaches 2 (direct). 0's witness must
        // be 1, never a link back into itself.
        let names = ["a", "b", "c", "d"];
        let edges = vec![vec![1], vec![0, 2], vec![], vec![]];
        let direct = [None, None, Some(()), None];
        let reach = propagate(&edges, &direct, |c| names[c]);
        assert_eq!(reach[0], Some(Reach::Via(1)));
        assert_eq!(reach[1], Some(Reach::Via(2)));
        assert_eq!(reach[3], None);
        assert_eq!(witness_root(&reach, 0), 2);
        assert_eq!(witness_root(&reach, 3), 3);
    }

    #[test]
    fn transitive_taint_reaches_callers_across_files() {
        let a = analyze(
            "crates/core/src/value.rs",
            "use std::collections::HashMap;\n\
             pub fn entropy() -> f64 {\n\
                 let counts: HashMap<u64, u64> = HashMap::new();\n\
                 counts.values().count() as f64\n\
             }\n",
        );
        let b = analyze(
            "crates/core/src/model/leaf.rs",
            "pub fn fit_leaf() -> f64 { entropy() }\n\
             pub fn unrelated() -> u64 { 7 }\n",
        );
        let diags = cross(&[a, b]);
        let l008: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "L008").collect();
        // entropy() itself is flagged per-file (direct); fit_leaf is the
        // transitive caller the graph pass adds.
        assert!(
            l008.iter()
                .any(|d| d.file.contains("leaf.rs") && d.message.contains("fit_leaf")),
            "expected a transitive diagnostic, got: {l008:?}"
        );
        assert!(!l008.iter().any(|d| d.message.contains("unrelated")));
    }

    #[test]
    fn allowed_direct_site_does_not_seed_taint() {
        let a = analyze(
            "crates/core/src/value.rs",
            "use std::collections::HashMap;\n\
             pub fn entropy() -> f64 {\n\
                 let counts: HashMap<u64, u64> = HashMap::new();\n\
                 // lint: allow(L008, order-insensitive count, not a sum)\n\
                 counts.values().count() as f64\n\
             }\n",
        );
        let b = analyze(
            "crates/core/src/model/leaf.rs",
            "pub fn fit_leaf() -> f64 { entropy() }\n",
        );
        let diags = cross(&[a, b]);
        assert!(
            diags.iter().all(|d| d.rule != "L008"),
            "sanctioned site must not taint: {diags:?}"
        );
    }

    #[test]
    fn taint_does_not_leave_the_synthesis_scope() {
        let a = analyze(
            "crates/core/src/value.rs",
            "use std::collections::HashMap;\n\
             pub fn entropy() -> f64 {\n\
                 let counts: HashMap<u64, u64> = HashMap::new();\n\
                 counts.values().count() as f64\n\
             }\n",
        );
        // The bench crate is off the synthesis path: its callers stay quiet.
        let b = analyze(
            "crates/bench/src/lib.rs",
            "pub fn bench_entropy() -> f64 { entropy() }\n",
        );
        let diags = cross(&[a, b]);
        assert!(!diags
            .iter()
            .any(|d| d.rule == "L008" && d.file.contains("bench")));
    }

    #[test]
    fn ambiguous_method_calls_do_not_taint() {
        let a = analyze(
            "crates/core/src/value.rs",
            "use std::collections::HashMap;\n\
             pub struct A;\n\
             impl A { pub fn sample(&self) { let m: HashMap<u64,u64> = HashMap::new(); for v in m { let _ = v; } } }\n\
             pub struct B;\n\
             impl B { pub fn sample(&self) {} }\n",
        );
        let b = analyze(
            "crates/core/src/synth.rs",
            "pub fn run(x: &X) { x.sample() }\n",
        );
        let diags = cross(&[a, b]);
        assert!(
            !diags
                .iter()
                .any(|d| d.rule == "L008" && d.file.contains("synth.rs")),
            "two impls define `sample`: no edge, no taint: {diags:?}"
        );
    }

    #[test]
    fn dead_pub_item_is_flagged_and_used_one_is_not() {
        let a = analyze(
            "crates/sim/src/lib.rs",
            "pub fn used_helper() -> u64 { 1 }\npub fn dead_helper() -> u64 { 2 }\n",
        );
        let b = analyze(
            "crates/dram/src/lib.rs",
            "pub fn consumer() -> u64 { used_helper() }\n",
        );
        let diags = cross(&[a, b]);
        let l009: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "L009").collect();
        assert!(l009.iter().any(|d| d.message.contains("dead_helper")));
        assert!(!l009.iter().any(|d| d.message.contains("used_helper")));
        // `consumer` is itself unreferenced — also dead.
        assert!(l009.iter().any(|d| d.message.contains("consumer")));
    }

    #[test]
    fn same_crate_reexport_does_not_launder_deadness() {
        let a = analyze("crates/sim/src/inner.rs", "pub fn orphan() -> u64 { 3 }\n");
        let b = analyze(
            "crates/sim/src/lib.rs",
            "pub mod inner;\npub use inner::orphan;\n",
        );
        let diags = cross(&[a, b]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "L009" && d.message.contains("orphan")),
            "a same-crate re-export alone must not keep `orphan` alive: {diags:?}"
        );
    }

    #[test]
    fn cross_crate_import_keeps_an_item_alive() {
        let a = analyze("crates/sim/src/lib.rs", "pub fn exported() -> u64 { 4 }\n");
        let b = analyze("crates/dram/src/lib.rs", "use mocktails_sim::exported;\n");
        let diags = cross(&[a, b]);
        assert!(!diags
            .iter()
            .any(|d| d.rule == "L009" && d.message.contains("exported")));
    }

    #[test]
    fn test_references_keep_items_alive() {
        let a = analyze(
            "crates/sim/src/lib.rs",
            "pub fn test_only_api() -> u64 { 5 }\n",
        );
        let t = analyze_source(
            &PathBuf::from("crates/sim/tests/integration.rs"),
            "#[test]\nfn covers() { assert_eq!(test_only_api(), 5); }\n",
            FileRole::Reference,
        );
        let diags = cross(&[a, t]);
        assert!(!diags
            .iter()
            .any(|d| d.rule == "L009" && d.message.contains("test_only_api")));
    }

    #[test]
    fn api_surface_is_sorted_and_respects_module_visibility() {
        let lib = analyze(
            "crates/cache/src/lib.rs",
            "mod private_impl;\npub mod config;\npub use private_impl::Cache;\npub fn top() {}\n",
        );
        let hidden = analyze(
            "crates/cache/src/private_impl.rs",
            "pub struct Cache;\nimpl Cache { pub fn lookup(&self) {} }\n",
        );
        let cfg = analyze(
            "crates/cache/src/config.rs",
            "pub struct Config { pub ways: usize }\n",
        );
        let files = [lib, hidden, cfg];
        let surface = crate_api_surface(&files, "cache");
        let mut sorted = surface.lines.clone();
        sorted.sort();
        assert_eq!(surface.lines, sorted);
        // Items of the private module are not surface; the re-export is.
        assert!(surface
            .lines
            .iter()
            .any(|l| l.contains("pub use private_impl::Cache")));
        assert!(!surface.lines.iter().any(|l| l.contains("pub struct Cache")));
        assert!(surface
            .lines
            .iter()
            .any(|l| l == "crate::config pub struct Config"));
        assert!(surface.lines.iter().any(|l| l == "crate pub fn top()"));
    }

    #[test]
    fn api_baseline_diffs_and_update_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mocktails-lint-l010-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let files = [analyze(
            "crates/sim/src/lib.rs",
            "pub fn alpha() {}\npub fn beta() {}\n",
        )];
        let update = CrossFileOptions {
            baselines_dir: &dir,
            update_baselines: true,
            parallelism: Parallelism::sequential(),
        };
        cross_file(&files, &update).expect("baseline write");
        let check = CrossFileOptions {
            baselines_dir: &dir,
            update_baselines: false,
            parallelism: Parallelism::sequential(),
        };
        // Unchanged surface: clean.
        let diags = cross_file(&files, &check).expect("diff");
        assert!(diags.iter().all(|d| d.rule != "L010"), "{diags:?}");
        // A new export is an undeclared addition; a removed one a break.
        let changed = [analyze(
            "crates/sim/src/lib.rs",
            "pub fn alpha() {}\npub fn gamma() {}\n",
        )];
        let diags = cross_file(&changed, &check).expect("diff");
        assert!(diags.iter().any(|d| d.rule == "L010"
            && d.message.contains("addition")
            && d.message.contains("gamma")));
        assert!(diags.iter().any(|d| d.rule == "L010"
            && d.message.contains("removal")
            && d.message.contains("beta")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deprecated_items_are_marked_in_the_surface() {
        let files = [analyze(
            "crates/trace/src/lib.rs",
            "#[deprecated(since = \"0.2.0\", note = \"x\")]\npub fn old_api() {}\n",
        )];
        let surface = crate_api_surface(&files, "trace");
        assert!(surface
            .lines
            .iter()
            .any(|l| l.contains("old_api") && l.ends_with("[deprecated]")));
    }
}
