//! The rule documentation table behind `mocktails-lint --explain L0NN`.
//!
//! One entry per rule, and exactly one place where a rule's prose lives:
//! the CLI prints from this table, and a drift test pins the README's
//! rule table to the same identifier set, so a rule cannot ship
//! undocumented or documented in two diverging voices.

/// Everything `--explain` knows about one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// The rule identifier, e.g. `"L016"`.
    pub id: &'static str,
    /// One-line statement of the invariant, matching the README table.
    pub summary: &'static str,
    /// Why the workspace enforces it — what goes wrong without it.
    pub rationale: &'static str,
    /// The shape of a finding, as the CLI renders it.
    pub example: &'static str,
    /// What a sanctioned waiver looks like, when one is legitimate.
    pub waiver: &'static str,
}

/// The full rule vocabulary, ordered by identifier.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: "L001",
        summary: "no unwrap()/expect()/panic!/todo!/unimplemented! in non-test library code",
        rationale: "Profiles cross trust boundaries; a reachable panic is a denial of service \
                    on every consumer of a shared profile.",
        example: "crates/core/src/x.rs:10: [L001] `unwrap()` in non-test code",
        waiver: "// lint: allow(L001, why this cannot fail) on the line or the line above",
    },
    RuleDoc {
        id: "L002",
        summary: "no external-crate imports (std + workspace only)",
        rationale: "The reproduction is dependency-free by design: hermetic offline builds, \
                    no supply-chain surface, every algorithm legible in-tree.",
        example: "crates/core/src/x.rs:3: [L002] external import `rand`",
        waiver: "none sanctioned: vendor the algorithm instead",
    },
    RuleDoc {
        id: "L003",
        summary: "every pub item in core/trace/dram/cache is documented",
        rationale: "The model crates are the paper-facing API; an undocumented export is \
                    unreviewable against the paper.",
        example: "crates/core/src/x.rs:7: [L003] undocumented pub item `fit`",
        waiver: "none sanctioned: write the doc comment",
    },
    RuleDoc {
        id: "L004",
        summary: "no float-literal ==/!= in model/similarity code",
        rationale: "Exact float comparison silently diverges across optimization levels and \
                    platforms, breaking byte-reproducible synthesis.",
        example: "crates/core/src/x.rs:22: [L004] float `==` comparison",
        waiver:
            "// lint: allow(L004, reason) when comparing against a sentinel the code itself wrote",
    },
    RuleDoc {
        id: "L005",
        summary: "no SystemTime/Instant on the synthesis path",
        rationale: "Wall-clock reads make synthesis output depend on when it ran; model time \
                    must come from the profile.",
        example: "crates/core/src/x.rs:31: [L005] `Instant::now()` on the synthesis path",
        waiver: "none sanctioned on the synthesis path; benches and servers may read clocks",
    },
    RuleDoc {
        id: "L006",
        summary: "no io::Error construction outside the fault-injection module (fault.rs)",
        rationale: "Hand-built I/O errors masquerade as environment failures and defeat the \
                    fault-injection tests that prove recovery paths.",
        example: "crates/store/src/x.rs:14: [L006] `io::Error::new` outside fault.rs",
        waiver: "none sanctioned: return a typed domain error instead",
    },
    RuleDoc {
        id: "L007",
        summary: "no std::thread outside crates/pool; parallelism flows through Parallelism::map",
        rationale: "One audited fan-out primitive keeps every parallel artifact byte-identical \
                    at any MOCKTAILS_THREADS value.",
        example: "crates/core/src/x.rs:9: [L007] `std::thread::spawn` outside crates/pool",
        waiver: "none sanctioned: route the work through mocktails-pool",
    },
    RuleDoc {
        id: "L008",
        summary: "no nondeterminism on the synthesis path - hash-order iteration and env::var, \
                  direct or via transitive callees (determinism taint)",
        rationale: "HashMap iteration order and environment reads are run-to-run \
                    nondeterministic; one tainted callee poisons every caller's output.",
        example: "crates/core/src/x.rs:40: [L008] `HashMap` iteration reaches the synthesis path",
        waiver: "// lint: allow(L008, reason) when order provably cannot reach any artifact",
    },
    RuleDoc {
        id: "L009",
        summary: "no dead pub surface: every exported item is referenced somewhere beyond its \
                  own definition",
        rationale: "Unused exports are untested API the workspace must nonetheless keep \
                    stable; delete them or use them.",
        example: "crates/trace/src/x.rs:55: [L009] `pub fn unused_helper` has no references",
        waiver: "// lint: allow(L009, reason) for surface consumed only by downstream users",
    },
    RuleDoc {
        id: "L010",
        summary:
            "each crate's public API matches its checked-in crates/lint/baselines/<crate>.api \
                  snapshot (scripts/update-api-baselines.sh regenerates)",
        rationale: "API breaks must be declared in the diff, not discovered by consumers; the \
                    snapshot makes the surface change reviewable.",
        example: "crates/core: [L010] public surface drifted from baselines/core.api",
        waiver: "none sanctioned: regenerate the baseline and commit the diff",
    },
    RuleDoc {
        id: "L011",
        summary: "every unsafe and blanket #[allow(...)] carries a reasoned companion comment",
        rationale: "An unexplained escape hatch cannot be audited; the reason is the review \
                    artifact.",
        example: "crates/pool/src/x.rs:12: [L011] `#[allow(dead_code)]` without a reason",
        waiver: "the reasoned comment IS the compliance; there is nothing further to waive",
    },
    RuleDoc {
        id: "L012",
        summary: "no lock-order cycles: opposite-order acquisitions fail with every edge of \
                  the cycle listed (file:line)",
        rationale: "Two paths taking the same locks in opposite orders is a deadlock waiting \
                    for the right interleaving.",
        example: "crates/serve/src/x.rs:15: [L012] `a` -> `b` here, `b` -> `a` at x.rs:22",
        waiver: "// lint: allow(L012, reason) when a runtime invariant serializes the paths",
    },
    RuleDoc {
        id: "L013",
        summary: "no blocking call (I/O, channel recv, thread::sleep, pool submit/join/drain) \
                  while holding a lock guard, directly or through any resolved call chain",
        rationale: "Blocking under a guard stalls every thread that wants the lock; under \
                    load that is a convoy, at worst a deadlock.",
        example: "crates/serve/src/x.rs:9: [L013] `recv` while holding guard `state`",
        waiver:
            "// lint: allow(L013, reason) when the blocked-on side provably never takes the lock",
    },
    RuleDoc {
        id: "L014",
        summary: "no guard held across a loop back-edge on the streaming/synthesis crates - \
                  collect under the lock, release, then iterate",
        rationale: "A guard pinned across iterations turns one slow element into a lock hold \
                    proportional to the whole collection.",
        example: "crates/serve/src/x.rs:18: [L014] guard `queue` live across the loop back-edge",
        waiver: "// lint: allow(L014, reason) when the loop body is O(1) and lock-free",
    },
    RuleDoc {
        id: "L015",
        summary: "no .unwrap()/.expect(..) directly on a lock()/read()/write() result; recover \
                  poison with unwrap_or_else(PoisonError::into_inner)",
        rationale: "A panic on one thread must not cascade through poisoned mutexes into a \
                    workspace-wide abort.",
        example: "crates/serve/src/x.rs:27: [L015] `.unwrap()` on a `lock()` result",
        waiver: "none sanctioned: the into_inner recovery is always available",
    },
    RuleDoc {
        id: "L016",
        summary: "no panic source reachable from Synthesizer::next, the codec decode surface, \
                  or the reactor entry - findings carry the full file:line call chain",
        rationale: "These entries process untrusted input end-to-end; a transitively reachable \
                    unwrap, assert, bare index, or division is a remote denial of service.",
        example: "crates/serve/src/x.rs:381: [L016] panic source indexing `counters[..]` \
                  reachable from `run`: a.rs:46 -> a.rs:61 -> x.rs:381",
        waiver: "// lint: allow(L016, the invariant that makes the panic impossible)",
    },
    RuleDoc {
        id: "L017",
        summary: "no blocking operation reachable from the reactor sweep - the event thread \
                  stays nonblocking apart from the allowlisted socket pump and park",
        rationale: "The sweep multiplexes every connection; one blocking call behind it stalls \
                    all of them at once.",
        example: "crates/serve/src/x.rs:150: [L017] blocking `drain()` reachable from the \
                  reactor sweep: a.rs:46 -> a.rs:61 -> x.rs:150",
        waiver: "// lint: allow(L017, why the call cannot actually block the sweep)",
    },
    RuleDoc {
        id: "L018",
        summary: "no allocation (including `.collect()`) inside a hot loop on the synthesis, \
                  codec, DRAM or cache path, directly or through transitive callees",
        rationale: "The paper's core loop emits millions of records and its validation \
                    services every one as DRAM bursts or cache blocks; a per-iteration \
                    allocation dominates their throughput.",
        example: "crates/core/src/x.rs:105: [L018] allocation `format!` inside a hot loop of \
                  `validate`",
        waiver:
            "// lint: allow(L018, reason) for cold error branches and decode output construction",
    },
    RuleDoc {
        id: "L019",
        summary: "no self-rooted collection growth on the serve path without same-file \
                  cap/evict/truncate evidence for the same field",
        rationale: "An unbounded queue fed by remote peers is a memory-exhaustion denial of \
                    service under slow-consumer load.",
        example: "crates/serve/src/x.rs:502: [L019] `self.inbound.push(..)` grows with no \
                  same-file cap of `inbound`",
        waiver: "// lint: allow(L019, the mechanism that bounds the field)",
    },
];

/// Looks up one rule's documentation by identifier.
pub fn rule_doc(id: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.id == id)
}

/// Renders one rule's documentation as the CLI prints it.
pub fn render(doc: &RuleDoc) -> String {
    format!(
        "{} — {}\n\nWhy:\n  {}\n\nExample finding:\n  {}\n\nWaiver:\n  {}\n",
        doc.id, doc.summary, doc.rationale, doc.example, doc.waiver
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_unique_and_contiguous() {
        let ids: Vec<&str> = RULE_DOCS.iter().map(|d| d.id).collect();
        let want: Vec<String> = (1..=19).map(|n| format!("L{n:03}")).collect();
        assert_eq!(ids, want, "one entry per rule, in order");
        for doc in RULE_DOCS {
            assert!(!doc.summary.is_empty() && !doc.rationale.is_empty());
            assert!(!doc.example.is_empty() && !doc.waiver.is_empty());
        }
    }

    #[test]
    fn lookup_and_render_round_trip() {
        let doc = rule_doc("L016").expect("L016 is documented");
        let text = render(doc);
        assert!(text.starts_with("L016 — "), "{text}");
        assert!(text.contains("call chain"), "{text}");
        assert!(rule_doc("L099").is_none());
        assert!(rule_doc("l016").is_none(), "lookup is exact");
    }

    /// The README's rule table and this table must list the same rules:
    /// a rule added in one place but not the other is documentation
    /// drift, caught here rather than by a reader.
    #[test]
    fn readme_rule_table_matches_rule_docs() {
        let readme = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
        let text = std::fs::read_to_string(readme).expect("README.md at the repo root");
        let mut in_readme: Vec<&str> = Vec::new();
        for line in text.lines() {
            let Some(rest) = line.trim_start().strip_prefix("| L0") else {
                continue;
            };
            if let Some(id) = rest.split_whitespace().next() {
                // `| L016 | ...` rows only; flag columns like `--rules`
                // prose lines never match the `| L0` prefix.
                in_readme.push(&line.trim_start()[2..4 + id.len()]);
            }
        }
        let doc_ids: Vec<&str> = RULE_DOCS.iter().map(|d| d.id).collect();
        assert_eq!(
            in_readme, doc_ids,
            "README rule table and RULE_DOCS list different rules"
        );
    }
}
