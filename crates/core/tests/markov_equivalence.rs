//! Equivalence of the flat Markov table — its sort-based fit, its
//! sampler and its encoding — with a straightforward reference: a
//! nested-map fit, a sampler that walks a `BTreeMap` of remaining counts
//! and an encoder that writes the map row by row. Same table, same seed,
//! same values and same bytes — on fitted chains and on hand-built tables
//! with terminal states, empty rows and extreme state values.

use std::collections::BTreeMap;

use mocktails_core::{HierarchyConfig, LeafModel, MarkovChain, McC, Profile};
use mocktails_trace::codec::{write_i64, write_u64};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::AddrRange;

const SEQUENCES: u64 = 1200;

type Table = BTreeMap<i64, Vec<(i64, u64)>>;

/// Reference fit: one nested count map per source state.
fn reference_fit(sequence: &[i64]) -> (i64, Table) {
    let mut counts: BTreeMap<i64, BTreeMap<i64, u64>> = BTreeMap::new();
    for w in sequence.windows(2) {
        *counts.entry(w[0]).or_default().entry(w[1]).or_insert(0) += 1;
    }
    let table = counts
        .into_iter()
        .map(|(from, tos)| (from, tos.into_iter().collect()))
        .collect();
    (sequence[0], table)
}

/// How often each rare branch of the reference sampler ran.
#[derive(Debug, Default)]
struct Branches {
    /// Strict draws whose current row had no count left.
    dead_ends: u64,
    /// Strict draws after every count was spent.
    exhausted: u64,
    /// Stationary draws from a state without out-edges.
    terminal: u64,
    /// Stationary draws from a chain without any transition.
    no_transitions: u64,
}

/// Reference sampler: map lookups and full re-sums on every draw.
struct ReferenceSampler {
    initial: i64,
    table: Table,
    remaining: Option<Table>,
    current: Option<i64>,
}

impl ReferenceSampler {
    fn new(initial: i64, table: &Table, strict: bool) -> Self {
        Self {
            initial,
            table: table.clone(),
            remaining: strict.then(|| table.clone()),
            current: None,
        }
    }

    fn next_state(&mut self, rng: &mut Prng, seen: &mut Branches) -> i64 {
        let Some(current) = self.current else {
            self.current = Some(self.initial);
            return self.initial;
        };
        let next = match &mut self.remaining {
            Some(remaining) => {
                Self::strict_step(self.initial, &self.table, remaining, current, rng, seen)
            }
            None => Self::stationary_step(self.initial, &self.table, current, rng, seen),
        };
        self.current = Some(next);
        next
    }

    fn strict_step(
        initial: i64,
        table: &Table,
        remaining: &mut Table,
        current: i64,
        rng: &mut Prng,
        seen: &mut Branches,
    ) -> i64 {
        if let Some(edges) = remaining.get_mut(&current) {
            let total: u64 = edges.iter().map(|&(_, c)| c).sum();
            if total > 0 {
                return take(edges.iter_mut(), rng.gen_range(0..total));
            }
        }
        let total: u64 = remaining.values().flatten().map(|&(_, c)| c).sum();
        if total == 0 {
            seen.exhausted += 1;
            return Self::stationary_step(initial, table, current, rng, seen);
        }
        seen.dead_ends += 1;
        take(remaining.values_mut().flatten(), rng.gen_range(0..total))
    }

    fn stationary_step(
        initial: i64,
        table: &Table,
        current: i64,
        rng: &mut Prng,
        seen: &mut Branches,
    ) -> i64 {
        let edges = table.get(&current).map(Vec::as_slice).unwrap_or(&[]);
        let total: u64 = edges.iter().map(|&(_, c)| c).sum();
        if total > 0 {
            return pick(edges.iter(), rng.gen_range(0..total));
        }
        seen.terminal += 1;
        let total: u64 = table.values().flatten().map(|&(_, c)| c).sum();
        if total == 0 {
            seen.no_transitions += 1;
            return initial;
        }
        pick(table.values().flatten(), rng.gen_range(0..total))
    }
}

fn pick<'a>(edges: impl Iterator<Item = &'a (i64, u64)>, mut target: u64) -> i64 {
    for &(to, c) in edges {
        if target < c {
            return to;
        }
        target -= c;
    }
    panic!("weighted selection stays within total")
}

fn take<'a>(edges: impl Iterator<Item = &'a mut (i64, u64)>, mut target: u64) -> i64 {
    for entry in edges {
        if target < entry.1 {
            entry.1 -= 1;
            return entry.0;
        }
        target -= entry.1;
    }
    panic!("weighted selection stays within total")
}

/// A value alphabet mixing small states with the `i64` extremes.
fn alphabet(rng: &mut Prng) -> Vec<i64> {
    let palette = [
        i64::MIN,
        i64::MAX,
        i64::MIN + 1,
        i64::MAX - 1,
        0,
        -1,
        1,
        64,
        -264,
    ];
    let n = rng.gen_range(1..=6usize);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.6) {
                palette[rng.gen_range(0..palette.len())]
            } else {
                rng.gen_range(-1000..1000i64)
            }
        })
        .collect()
}

fn random_sequence(rng: &mut Prng) -> Vec<i64> {
    let values = alphabet(rng);
    let len = rng.gen_range(1..=64usize);
    (0..len)
        .map(|_| values[rng.gen_range(0..values.len())])
        .collect()
}

/// A hand-built table: rows may be empty, successors may be terminal,
/// and the initial state may have no row at all.
fn random_table(rng: &mut Prng) -> (i64, Table) {
    let values = alphabet(rng);
    let mut table = Table::new();
    for &from in &values {
        if rng.gen_bool(0.3) {
            continue;
        }
        let mut edges: Vec<(i64, u64)> = Vec::new();
        for _ in 0..rng.gen_range(0..4usize) {
            let to = if rng.gen_bool(0.2) {
                rng.gen_range(5000..6000i64)
            } else {
                values[rng.gen_range(0..values.len())]
            };
            edges.push((to, rng.gen_range(1..5u64)));
        }
        edges.sort_unstable();
        edges.dedup_by_key(|e| e.0);
        table.insert(from, edges);
    }
    let initial = if rng.gen_bool(0.2) {
        7777
    } else {
        values[rng.gen_range(0..values.len())]
    };
    (initial, table)
}

/// The chain's rows, gathered back into a map.
fn table_of(chain: &MarkovChain) -> Table {
    chain
        .rows()
        .map(|(from, edges)| (from, edges.to_vec()))
        .collect()
}

/// Asserts the flat sampler of `chain` and the map walk over `table`
/// emit the same values under `seed`, drawing well past the chain's
/// transition count.
fn assert_same_values(chain: &MarkovChain, table: &Table, seed: u64, seen: &mut Branches) {
    let draws = 2 * chain.num_transitions() as usize + 8;
    for strict in [true, false] {
        let mut reference = ReferenceSampler::new(chain.initial(), table, strict);
        let mut sampler = chain.sampler(strict);
        let mut want_rng = Prng::seed_from_u64(seed);
        let mut got_rng = Prng::seed_from_u64(seed);
        for i in 0..draws {
            let want = reference.next_state(&mut want_rng, seen);
            let got = sampler.next_state(&mut got_rng);
            assert_eq!(
                got, want,
                "draw {i} of {chain:?} (strict {strict}, seed {seed})"
            );
        }
        // The two must also have consumed the same random stream.
        assert_eq!(got_rng.next_u64(), want_rng.next_u64());
    }
}

/// The profile codec's Markov record, written from the map: tag 1,
/// zigzag initial, state count, then per row the zigzag state, edge count
/// and `(zigzag to, count)` edges.
fn reference_encoding(initial: i64, table: &Table) -> Vec<u8> {
    let mut buf = vec![1];
    write_i64(&mut buf, initial);
    write_u64(&mut buf, table.len() as u64);
    for (&from, edges) in table {
        write_i64(&mut buf, from);
        write_u64(&mut buf, edges.len() as u64);
        for &(to, count) in edges {
            write_i64(&mut buf, to);
            write_u64(&mut buf, count);
        }
    }
    buf
}

/// Encodes a one-leaf profile whose size model (the last record of the
/// encoding) is `chain`.
fn encode_with(chain: &MarkovChain) -> Vec<u8> {
    let leaf = LeafModel::from_parts(
        0,
        0,
        AddrRange::new(0, 64),
        1,
        McC::Constant(0),
        McC::Constant(0),
        McC::Constant(0),
        McC::Markov(chain.clone()),
    );
    let profile = Profile::from_parts(HierarchyConfig::two_level_ts(100), vec![leaf]);
    let mut buf = Vec::new();
    profile.write(&mut buf).unwrap();
    buf
}

/// Asserts `chain` encodes exactly as the map encoder writes `table`,
/// and as the chain built from that map does.
fn assert_same_encoding(chain: &MarkovChain, initial: i64, table: &Table, case: u64) {
    let bytes = encode_with(chain);
    let want = reference_encoding(initial, table);
    assert!(bytes.ends_with(&want), "case {case}: {chain:?}");
    let from_map = MarkovChain::from_parts(initial, table.clone());
    assert_eq!(bytes, encode_with(&from_map), "case {case}");
}

#[test]
fn sort_based_fit_equals_nested_map_fit() {
    let mut rng = Prng::seed_from_u64(0xF17);
    for case in 0..SEQUENCES {
        let sequence = random_sequence(&mut rng);
        let chain = MarkovChain::fit(&sequence);
        let (initial, table) = reference_fit(&sequence);
        assert_eq!(chain.initial(), initial, "case {case}: {sequence:?}");
        assert_eq!(table_of(&chain), table, "case {case}: {sequence:?}");
        assert_eq!(chain, MarkovChain::from_parts(initial, table));
    }
}

#[test]
fn flat_sampler_replays_the_map_walk_on_fitted_chains() {
    let mut rng = Prng::seed_from_u64(0x5A3);
    let mut seen = Branches::default();
    for case in 0..SEQUENCES {
        let sequence = random_sequence(&mut rng);
        let (_, table) = reference_fit(&sequence);
        assert_same_values(&MarkovChain::fit(&sequence), &table, case, &mut seen);
    }
    // The corpus reaches every rare branch, not just the row walk.
    assert!(seen.dead_ends > 0, "{seen:?}");
    assert!(seen.exhausted > 0, "{seen:?}");
    assert!(seen.terminal > 0, "{seen:?}");
    assert!(seen.no_transitions > 0, "{seen:?}");
}

#[test]
fn flat_sampler_replays_the_map_walk_on_hand_built_tables() {
    let mut rng = Prng::seed_from_u64(0x7AB);
    let mut seen = Branches::default();
    for case in 0..SEQUENCES {
        let (initial, table) = random_table(&mut rng);
        let chain = MarkovChain::from_parts(initial, table.clone());
        assert_eq!(table_of(&chain), table, "case {case}");
        assert_same_values(&chain, &table, case, &mut seen);
    }
    assert!(seen.dead_ends > 0, "{seen:?}");
    assert!(seen.exhausted > 0, "{seen:?}");
    assert!(seen.terminal > 0, "{seen:?}");
    assert!(seen.no_transitions > 0, "{seen:?}");
}

#[test]
fn flat_tables_encode_like_the_map() {
    let mut rng = Prng::seed_from_u64(0xE1C);
    for case in 0..SEQUENCES {
        let sequence = random_sequence(&mut rng);
        let (initial, table) = reference_fit(&sequence);
        assert_same_encoding(&MarkovChain::fit(&sequence), initial, &table, case);
        let (initial, table) = random_table(&mut rng);
        let chain = MarkovChain::from_parts(initial, table.clone());
        assert_same_encoding(&chain, initial, &table, case);
    }
}
