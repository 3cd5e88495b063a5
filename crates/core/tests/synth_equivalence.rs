//! Equivalence of the plan-driven synthesizer — leaves compiled once into
//! a shared [`SynthPlan`], activated just in time and merged through a
//! heap of keys — with the eager merge it replaced: every leaf's
//! [`LeafModel::generator`] built up front and every first request queued
//! on a heap of whole requests. Same leaves, same seed, same delays: same
//! requests, and `remaining`/`size_hint` exact after every one.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use mocktails_core::{
    HierarchyConfig, LeafGenerator, LeafModel, MarkovChain, McC, ModelOptions, Profile, SynthPlan,
    Synthesizer,
};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{AddrRange, DecodeOptions, Request, Trace};

/// A queued request of the reference merge, ordered by `(timestamp,
/// leaf)`.
#[derive(Debug, PartialEq, Eq)]
struct Pending {
    leaf: usize,
    request: Request,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.request.timestamp, self.leaf).cmp(&(other.request.timestamp, other.leaf))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The eager merge: every generator built and every first request queued
/// before the first pull.
struct Reference {
    generators: Vec<LeafGenerator>,
    heap: BinaryHeap<Reverse<Pending>>,
    rng: Prng,
    delay: u64,
    last: u64,
}

impl Reference {
    fn new(leaves: &[LeafModel], strict: bool, seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let mut generators: Vec<LeafGenerator> =
            leaves.iter().map(|l| l.generator(strict)).collect();
        let mut heap = BinaryHeap::new();
        for (leaf, g) in generators.iter_mut().enumerate() {
            if let Some(request) = g.next_request(&mut rng) {
                heap.push(Reverse(Pending { leaf, request }));
            }
        }
        Self {
            generators,
            heap,
            rng,
            delay: 0,
            last: 0,
        }
    }

    fn next_request(&mut self) -> Option<Request> {
        let Reverse(Pending { leaf, mut request }) = self.heap.pop()?;
        if let Some(next) = self.generators[leaf].next_request(&mut self.rng) {
            self.heap.push(Reverse(Pending {
                leaf,
                request: next,
            }));
        }
        request.timestamp = request.timestamp.saturating_add(self.delay).max(self.last);
        self.last = request.timestamp;
        Some(request)
    }

    fn remaining(&self) -> u64 {
        self.generators
            .iter()
            .map(LeafGenerator::remaining)
            .sum::<u64>()
            + self.heap.len() as u64
    }
}

/// Pulls both synthesizers to the end, adding `delays[i % len]` before
/// pull `i`, and checks every request and every count on the way.
fn assert_same_stream(
    mut synth: Synthesizer,
    mut reference: Reference,
    delays: &[u64],
    what: &str,
) -> Vec<Request> {
    let mut out = Vec::new();
    loop {
        let remaining = reference.remaining();
        assert_eq!(
            synth.remaining(),
            remaining,
            "{what}: remaining at {}",
            out.len()
        );
        let exact = usize::try_from(remaining).unwrap();
        assert_eq!(
            synth.size_hint(),
            (exact.min(1 << 16), Some(exact)),
            "{what}: size_hint at {}",
            out.len()
        );
        let delay = delays[out.len() % delays.len()];
        synth.add_delay(delay);
        reference.delay += delay;
        let (got, want) = (synth.next_request(), reference.next_request());
        assert_eq!(got, want, "{what}: request {}", out.len());
        match got {
            Some(request) => out.push(request),
            None => break,
        }
    }
    assert_eq!(synth.emitted(), out.len() as u64, "{what}");
    assert!(synth.next_request().is_none(), "{what}: exhausted");
    out
}

/// A feature model: a constant, or a chain over a few values. Fitted
/// chains end in a state that may have no row (terminal); hand-built ones
/// carry counts unrelated to the leaf's request count, so strict sampling
/// hits dead ends and runs out of counts.
fn random_model(rng: &mut Prng, values: &[i64]) -> McC {
    match rng.gen_range(0..4u32) {
        0 => McC::Constant(values[rng.gen_range(0..values.len())]),
        1 | 2 => {
            let len = rng.gen_range(2..30usize);
            let sequence: Vec<i64> = (0..len)
                .map(|_| values[rng.gen_range(0..values.len())])
                .collect();
            McC::fit(&sequence)
        }
        _ => {
            let mut table = std::collections::BTreeMap::new();
            for &from in values {
                if !rng.gen_bool(0.7) {
                    continue;
                }
                let mut edges = Vec::new();
                for &to in values {
                    if rng.gen_bool(0.5) {
                        edges.push((to, rng.gen_range(1..6u64)));
                    }
                }
                if !edges.is_empty() {
                    table.insert(from, edges);
                }
            }
            let initial = values[rng.gen_range(0..values.len())];
            McC::Markov(MarkovChain::from_parts(initial, table))
        }
    }
}

/// A leaf with random metadata and feature models. Start times come from
/// a small set, so leaves tie on them.
fn random_leaf(rng: &mut Prng, max_count: u64) -> LeafModel {
    let start_time = rng.gen_range(0..8u64) * 50;
    let base = rng.gen_range(0..64u64) * 0x1000;
    let range = AddrRange::new(base, base + rng.gen_range(1..32u64) * 64);
    let start_address = base + rng.gen_range(0..range.len());
    LeafModel::from_parts(
        start_time,
        start_address,
        range,
        rng.gen_range(1..=max_count),
        random_model(rng, &[0, 1, 3, 7, 20, 64]),
        random_model(rng, &[-4096, -64, 0, 64, 128, 8192]),
        random_model(rng, &[0, 1]),
        random_model(rng, &[32, 64, 128]),
    )
}

fn random_leaves(rng: &mut Prng, n: usize, max_count: u64) -> Vec<LeafModel> {
    (0..n).map(|_| random_leaf(rng, max_count)).collect()
}

fn shuffle<T>(rng: &mut Prng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn check(leaves: &[LeafModel], strict: bool, seed: u64, delays: &[u64], what: &str) {
    let synth = Synthesizer::new(leaves, strict, seed);
    let reference = Reference::new(leaves, strict, seed);
    assert_same_stream(synth, reference, delays, what);
}

const DELAYS: [&[u64]; 3] = [&[0], &[0, 5, 0, 0, 1000, 1], &[3]];

#[test]
fn random_leaves_match_the_eager_merge() {
    let mut rng = Prng::seed_from_u64(0x5eed);
    for case in 0..150u64 {
        let leaves = {
            let n = rng.gen_range(0..40usize);
            random_leaves(&mut rng, n, 40)
        };
        for strict in [true, false] {
            for delays in DELAYS {
                let what = format!("case {case} strict {strict} delays {delays:?}");
                check(&leaves, strict, case, delays, &what);
            }
        }
    }
}

#[test]
fn fitted_profiles_match_the_eager_merge() {
    let mut rng = Prng::seed_from_u64(7);
    for case in 0..40u64 {
        let n = rng.gen_range(1..600u64);
        let mut t = 0u64;
        let requests: Vec<Request> = (0..n)
            .map(|i| {
                t += rng.gen_range(0..40u64);
                let address = 0x10_0000 * rng.gen_range(0..4u64) + rng.gen_range(0..64u64) * 64;
                if rng.gen_bool(0.3) {
                    Request::write(t, address, 64)
                } else {
                    Request::read(t, address, [32, 64][(i % 2) as usize])
                }
            })
            .collect();
        let trace = Trace::from_requests(requests);
        for strict in [true, false] {
            let config = HierarchyConfig::two_level_ts(rng.gen_range(50..2000u64)).with_options(
                ModelOptions {
                    strict_convergence: strict,
                    merge_lonely: true,
                    merge_similar: false,
                },
            );
            let profile = Profile::fit(&trace, &config);
            let reference = Reference::new(&profile.leaves().collect::<Vec<_>>(), strict, case);
            let what = format!("fitted case {case} strict {strict}");
            let out = assert_same_stream(profile.synthesizer(case), reference, &[0], &what);
            assert_eq!(Trace::from_sorted_requests(out), profile.synthesize(case));
        }
    }
}

#[test]
fn decoded_profiles_with_leaves_out_of_start_order_match() {
    let mut rng = Prng::seed_from_u64(99);
    for case in 0..60u64 {
        let mut leaves = {
            let n = rng.gen_range(2..50usize);
            random_leaves(&mut rng, n, 25)
        };
        leaves.sort_by_key(LeafModel::start_time);
        shuffle(&mut rng, &mut leaves);
        let profile = Profile::from_parts(HierarchyConfig::two_level_ts(100), leaves);
        let mut bytes = Vec::new();
        profile.write(&mut bytes).unwrap();
        let decoded = Profile::read(&mut bytes.as_slice(), &DecodeOptions::default()).unwrap();
        assert_eq!(decoded, profile);
        for delays in DELAYS {
            let what = format!("decoded case {case} delays {delays:?}");
            let reference = Reference::new(&decoded.leaves().collect::<Vec<_>>(), true, case);
            assert_same_stream(decoded.synthesizer(case), reference, delays, &what);
        }
    }
}

#[test]
fn single_request_leaves_match() {
    let mut rng = Prng::seed_from_u64(3);
    for case in 0..40u64 {
        let mut leaves = {
            let n = rng.gen_range(1..80usize);
            random_leaves(&mut rng, n, 1)
        };
        // Mix in a few longer leaves so single-request leaves interleave
        // with live ones and their slots get reused.
        leaves.extend(random_leaves(&mut rng, 3, 20));
        shuffle(&mut rng, &mut leaves);
        for strict in [true, false] {
            for delays in DELAYS {
                let what = format!("single case {case} strict {strict} delays {delays:?}");
                check(&leaves, strict, case, delays, &what);
            }
        }
    }
}

#[test]
fn one_plan_serves_interleaved_synthesizers() {
    let mut rng = Prng::seed_from_u64(11);
    for case in 0..30u64 {
        let leaves = {
            let n = rng.gen_range(1..40usize);
            random_leaves(&mut rng, n, 30)
        };
        for strict in [true, false] {
            let plan = Arc::new(SynthPlan::new(&leaves, strict));
            let (seed_a, seed_b) = (case, case + 1000);
            let mut a = Synthesizer::from_plan(Arc::clone(&plan), seed_a);
            let mut b = Synthesizer::from_plan(Arc::clone(&plan), seed_b);
            let mut ref_a = Reference::new(&leaves, strict, seed_a);
            let mut ref_b = Reference::new(&leaves, strict, seed_b);
            // Alternate pulls unevenly, with feedback on one side only.
            let mut pulls = 0u64;
            loop {
                let take_a = rng.gen_range(0..3u32) != 0;
                let (synth, reference) = if take_a {
                    (&mut a, &mut ref_a)
                } else {
                    (&mut b, &mut ref_b)
                };
                if take_a && pulls.is_multiple_of(7) {
                    synth.add_delay(13);
                    reference.delay += 13;
                }
                assert_eq!(synth.remaining(), reference.remaining());
                assert_eq!(synth.next_request(), reference.next_request());
                pulls += 1;
                if a.remaining() == 0 && b.remaining() == 0 {
                    break;
                }
            }
            assert!(a.next_request().is_none() && b.next_request().is_none());
            assert!(ref_a.next_request().is_none() && ref_b.next_request().is_none());
        }
    }
}

#[test]
fn one_plan_serves_many_sequential_synthesizers() {
    let mut rng = Prng::seed_from_u64(12);
    let leaves = random_leaves(&mut rng, 60, 30);
    let plan = Arc::new(SynthPlan::new(&leaves, true));
    assert_eq!(
        plan.total_requests(),
        leaves.iter().map(LeafModel::count).sum::<u64>()
    );
    for seed in 0..50u64 {
        let synth = Synthesizer::from_plan(Arc::clone(&plan), seed);
        let reference = Reference::new(&leaves, true, seed);
        assert_same_stream(
            synth,
            reference,
            &[0, 2],
            &format!("sequential seed {seed}"),
        );
    }
    // A plan reused after many streams still equals a fresh one.
    let fresh = Synthesizer::new(&leaves, true, 7).into_trace();
    assert_eq!(Synthesizer::from_plan(plan, 7).into_trace(), fresh);
}
