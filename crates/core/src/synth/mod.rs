//! Request synthesis (paper §III-C, *Synthesizing Requests*).
//!
//! Every leaf model produces only a *partial* order of requests; concurrent
//! leaves overlap in time. The [`Synthesizer`] merges all leaf generators
//! through a priority queue sorted by timestamp, reconstructing a total
//! order that preserves bursts (leaves with similar start times) and idle
//! phases (gaps between leaf start times) without any cross-leaf transition
//! model.
//!
//! During a coupled simulation (Fig. 1, *Option B*) the consumer reports
//! backpressure through [`Synthesizer::add_delay`]; the accumulated delay shifts
//! the timestamps of all still-pending requests, letting the synthetic
//! stream adapt to contention exactly as the paper describes.

mod plan;

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

use mocktails_trace::rng::Prng;
use mocktails_trace::{Request, Trace};

use crate::model::LeafModel;
use plan::Cursor;
pub use plan::SynthPlan;
pub(crate) use plan::{Feature, FeatureRef, LeafMeta};

/// Heap key of a live leaf's pending request: `(pre-delay timestamp,
/// leaf index, cursor slot)`. The leaf index breaks timestamp ties, so
/// the pop order is deterministic; a live leaf owns exactly one slot, so
/// the slot never decides.
type Key = (u64, usize, usize);

/// Merges concurrent leaf generators into a total order of requests.
///
/// Leaves join the merge just in time: a leaf is activated when its
/// `(start_time, index)` is the smallest pending key, and it leaves when
/// its requests run out. A leaf's first request draws nothing from the
/// RNG, so the draws happen in the same order as if every leaf had been
/// queued up front. A synthesizer's own state is one cursor per *live*
/// leaf (its pending request, sampling states and remaining counts, in a
/// slab whose slots are reused) and a heap of keys; everything else is
/// read from its shared [`SynthPlan`].
///
/// ```
/// use mocktails_core::{HierarchyConfig, Profile, Synthesizer};
/// use mocktails_trace::{Request, Trace};
///
/// let trace = Trace::from_requests(
///     (0..50u64).map(|i| Request::read(i * 7, 0x100 + (i % 10) * 64, 64)).collect(),
/// );
/// let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100));
/// let mut synth = Synthesizer::from_plan(profile.synth_plan(), 1);
/// let mut n = 0;
/// while synth.next_request().is_some() {
///     n += 1;
/// }
/// assert_eq!(n, 50);
/// ```
#[derive(Debug)]
pub struct Synthesizer {
    plan: Arc<SynthPlan>,
    /// Position in the plan's activation order of the next leaf to join.
    next_leaf: usize,
    heap: BinaryHeap<Reverse<Key>>,
    /// Live leaves' cursors, indexed by slot.
    cursors: Vec<Cursor>,
    /// Slots whose leaf ran out, for reuse.
    free: Vec<usize>,
    rng: Prng,
    delay: u64,
    emitted: u64,
    remaining: u64,
    last_emitted_time: u64,
}

impl Synthesizer {
    /// Creates a synthesizer over `leaves`, sampling with the given strict
    /// convergence setting and RNG `seed`. Lays the leaves out in a
    /// private [`SynthPlan`]; to synthesize the same leaves many times,
    /// build the plan once and use [`Synthesizer::from_plan`].
    pub fn new(leaves: &[LeafModel], strict: bool, seed: u64) -> Self {
        Self::from_plan(Arc::new(SynthPlan::new(leaves, strict)), seed)
    }

    /// Creates a synthesizer over a compiled plan with RNG `seed`, in
    /// O(1): leaves are activated as the merge reaches them.
    pub fn from_plan(plan: Arc<SynthPlan>, seed: u64) -> Self {
        let remaining = plan.total_requests();
        Self {
            plan,
            next_leaf: 0,
            heap: BinaryHeap::new(),
            cursors: Vec::new(),
            free: Vec::new(),
            rng: Prng::seed_from_u64(seed),
            delay: 0,
            emitted: 0,
            remaining,
            last_emitted_time: 0,
        }
    }

    /// Activates the next leaf in `(start_time, index)` order if its key
    /// is below every live leaf's, so it is the next to pop. One is
    /// enough: every other pending leaf's key is larger still.
    fn activate_due(&mut self) {
        let Some((start_time, leaf)) = self.plan.activation(self.next_leaf) else {
            return;
        };
        let due = self
            .heap
            .peek()
            .is_none_or(|&Reverse((time, live, _))| (start_time, leaf) < (time, live));
        if !due {
            return;
        }
        self.next_leaf += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.cursors.push(Cursor::default());
            self.cursors.len() - 1
        });
        if let Some(cursor) = self.cursors.get_mut(slot) {
            self.plan.activate(leaf, cursor, &mut self.rng);
            self.heap.push(Reverse((start_time, leaf, slot)));
        }
    }

    /// Takes the globally-earliest pending request and refills the queue
    /// from the leaf that produced it. Returns `None` once every leaf is
    /// exhausted.
    ///
    /// The refill replaces the heap top in place (one sift-down); only an
    /// exhausted leaf pops it. `(timestamp, leaf_index)` is a total order,
    /// so this yields the same sequence as a pop followed by a push.
    ///
    /// Emitted timestamps are non-decreasing and include any accumulated
    /// backpressure delay.
    pub fn next_request(&mut self) -> Option<Request> {
        self.activate_due();
        let mut top = self.heap.peek_mut()?;
        let Reverse((_, _, slot)) = *top;
        // Heap keys only ever carry slots minted in `activate_due`, but
        // the refill stays panic-free regardless: an unknown slot is
        // dropped rather than poisoning the whole synthesis.
        let Some(cursor) = self.cursors.get_mut(slot) else {
            PeekMut::pop(top);
            return None;
        };
        let mut request = cursor.pending;
        if cursor.left == 0 {
            PeekMut::pop(top);
            self.free.push(slot);
        } else {
            self.plan.advance(cursor, &mut self.rng);
            top.0 .0 = cursor.pending.timestamp;
        }
        request.timestamp = request.timestamp.saturating_add(self.delay);
        // The heap orders by pre-delay timestamps; delay only grows, so
        // post-delay timestamps stay monotonic. Guard anyway so a consumer
        // never observes time moving backwards.
        request.timestamp = request.timestamp.max(self.last_emitted_time);
        self.last_emitted_time = request.timestamp;
        self.emitted += 1;
        self.remaining = self.remaining.saturating_sub(1);
        Some(request)
    }

    /// Total requests emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Requests still to come.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reports that injection stalled for `cycles` (e.g. a full controller
    /// queue): the simulator's feedback channel to the injection process.
    /// All pending synthetic timestamps shift by this amount.
    pub fn add_delay(&mut self, cycles: u64) {
        self.delay = self.delay.saturating_add(cycles);
    }

    /// Accumulated backpressure delay in cycles.
    pub fn accumulated_delay(&self) -> u64 {
        self.delay
    }

    /// Drains the synthesizer into a trace (open-loop Option A synthesis).
    ///
    /// Timestamps emitted by [`Synthesizer::next_request`] are already
    /// non-decreasing, so the collected requests need no re-sort.
    pub fn into_trace(self) -> Trace {
        Trace::from_sorted_requests(self.collect())
    }
}

impl Iterator for Synthesizer {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.next_request()
    }

    /// [`Synthesizer::remaining`] is exact, so the upper bound is precise
    /// whenever it fits in `usize`. The lower bound is capped at `2^16`:
    /// leaf counts may come from a decoded (untrusted) profile, and the
    /// cap keeps `collect`'s up-front reservation bounded by what honest
    /// synthesis will promptly fill anyway.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        let upper = usize::try_from(remaining).ok();
        let lower = upper.unwrap_or(usize::MAX).min(1 << 16);
        (lower, upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;

    fn leaf(reqs: Vec<Request>) -> LeafModel {
        LeafModel::fit(&Partition::new(reqs))
    }

    #[test]
    fn merges_two_streams_in_time_order() {
        let a = leaf(vec![
            Request::read(0, 0x1000, 64),
            Request::read(20, 0x1040, 64),
            Request::read(40, 0x1080, 64),
        ]);
        let b = leaf(vec![
            Request::write(10, 0x9000, 64),
            Request::write(30, 0x9040, 64),
        ]);
        let synth = Synthesizer::new(&[a, b], true, 0);
        let trace = synth.into_trace();
        let times: Vec<u64> = trace.iter().map(|r| r.timestamp).collect();
        assert_eq!(times, vec![0, 10, 20, 30, 40]);
        assert_eq!(trace.reads(), 3);
        assert_eq!(trace.writes(), 2);
    }

    #[test]
    fn emits_exact_request_count() {
        let leaves: Vec<LeafModel> = (0..5u64)
            .map(|k| {
                leaf(
                    (0..10u64)
                        .map(|i| Request::read(k * 3 + i * 17, 0x1000 * (k + 1) + i * 64, 64))
                        .collect(),
                )
            })
            .collect();
        let synth = Synthesizer::new(&leaves, true, 9);
        assert_eq!(synth.into_trace().len(), 50);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let leaves: Vec<LeafModel> = (0..8u64)
            .map(|k| {
                leaf(
                    (0..20u64)
                        .map(|i| {
                            Request::read(
                                k * 100 + i * (k + 1),
                                0x10000 * (k + 1) + (i % 4) * 64,
                                64,
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let synth = Synthesizer::new(&leaves, true, 3);
        let trace = synth.into_trace();
        assert!(trace
            .requests()
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn idle_gaps_are_preserved() {
        // Two bursts separated by a huge gap: the merged stream must keep
        // the gap (burst/idle capture, paper Fig. 3).
        let a = leaf(vec![
            Request::read(0, 0x1000, 64),
            Request::read(1, 0x1040, 64),
        ]);
        let b = leaf(vec![
            Request::read(500_000_000, 0x2000, 64),
            Request::read(500_000_001, 0x2040, 64),
        ]);
        let trace = Synthesizer::new(&[a, b], true, 0).into_trace();
        let gap = trace.requests()[2].timestamp - trace.requests()[1].timestamp;
        assert!(gap >= 499_000_000, "gap collapsed to {gap}");
    }

    #[test]
    fn feedback_shifts_pending_requests() {
        let a = leaf(vec![
            Request::read(0, 0x1000, 64),
            Request::read(10, 0x1040, 64),
            Request::read(20, 0x1080, 64),
        ]);
        let mut synth = Synthesizer::new(&[a], true, 0);
        assert_eq!(synth.next_request().unwrap().timestamp, 0);
        synth.add_delay(1000);
        assert_eq!(synth.accumulated_delay(), 1000);
        assert_eq!(synth.next_request().unwrap().timestamp, 1010);
        assert_eq!(synth.next_request().unwrap().timestamp, 1020);
        assert!(synth.next_request().is_none());
    }

    #[test]
    fn iterator_interface() {
        let a = leaf(vec![Request::read(0, 0x0, 4), Request::read(5, 0x4, 4)]);
        let collected: Vec<Request> = Synthesizer::new(&[a], true, 0).collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn size_hint_is_exact_and_shrinks() {
        let a = leaf(vec![
            Request::read(0, 0x0, 4),
            Request::read(5, 0x4, 4),
            Request::read(10, 0x8, 4),
        ]);
        let mut synth = Synthesizer::new(&[a], true, 0);
        assert_eq!(synth.size_hint(), (3, Some(3)));
        let _ = synth.next();
        assert_eq!(synth.size_hint(), (2, Some(2)));
        assert_eq!(synth.by_ref().count(), 2);
        assert_eq!(synth.size_hint(), (0, Some(0)));
    }

    #[test]
    fn iterator_adapters_compose() {
        let a = leaf(vec![
            Request::read(0, 0x1000, 64),
            Request::write(10, 0x1040, 64),
            Request::read(20, 0x1080, 64),
        ]);
        // Downstream consumers filter/map/take instead of hand-rolled loops.
        let reads: Vec<Request> = Synthesizer::new(&[a], true, 0)
            .filter(|r| r.op == mocktails_trace::Op::Read)
            .take(2)
            .collect();
        assert_eq!(reads.len(), 2);
    }

    #[test]
    fn empty_synthesizer() {
        let mut synth = Synthesizer::new(&[], true, 0);
        assert!(synth.next_request().is_none());
        assert_eq!(synth.remaining(), 0);
    }

    #[test]
    fn exhausted_synthesizer_stays_exhausted() {
        // The heap refill must drain every generator without panicking
        // and then hold at None — repeated pulls after exhaustion must
        // not attempt a refill from a retired generator index.
        let leaves: Vec<LeafModel> = (0..4u64)
            .map(|k| {
                leaf(
                    (0..6u64)
                        .map(|i| Request::read(k * 7 + i * 11, 0x2000 * (k + 1) + i * 64, 64))
                        .collect(),
                )
            })
            .collect();
        let mut synth = Synthesizer::new(&leaves, true, 5);
        let mut emitted = 0u64;
        while synth.next_request().is_some() {
            emitted += 1;
        }
        assert_eq!(emitted, 24);
        for _ in 0..8 {
            assert!(synth.next_request().is_none());
        }
        assert_eq!(synth.remaining(), 0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mk = || {
            let leaves: Vec<LeafModel> = (0..3u64)
                .map(|k| {
                    leaf(
                        (0..15u64)
                            .map(|i| {
                                if (i + k) % 3 == 0 {
                                    Request::write(i * 7 + k, 0x1000 * (k + 1) + (i % 5) * 64, 64)
                                } else {
                                    Request::read(i * 7 + k, 0x1000 * (k + 1) + (i % 5) * 64, 64)
                                }
                            })
                            .collect(),
                    )
                })
                .collect();
            Synthesizer::new(&leaves, true, 42).into_trace()
        };
        assert_eq!(mk(), mk());
    }

    /// Reference merge: every leaf's generator queued up front, then a
    /// full pop and a push of the refill for every request, with
    /// `delays[i % len]` added before pull `i`.
    fn pop_then_push_merge(leaves: &[LeafModel], seed: u64, delays: &[u64]) -> Vec<Request> {
        let mut rng = Prng::seed_from_u64(seed);
        let mut generators: Vec<_> = leaves.iter().map(|l| l.generator(true)).collect();
        let mut pending: Vec<Option<Request>> = Vec::new();
        let mut heap = BinaryHeap::new();
        for (leaf_index, g) in generators.iter_mut().enumerate() {
            pending.push(g.next_request(&mut rng));
            if let Some(request) = pending[leaf_index] {
                heap.push(Reverse((request.timestamp, leaf_index)));
            }
        }
        let (mut delay, mut last) = (0u64, 0u64);
        let mut out = Vec::new();
        while let Some(Reverse((_, leaf_index))) = heap.pop() {
            let mut request = pending[leaf_index].take().unwrap();
            pending[leaf_index] = generators[leaf_index].next_request(&mut rng);
            if let Some(next) = pending[leaf_index] {
                heap.push(Reverse((next.timestamp, leaf_index)));
            }
            delay += delays[out.len() % delays.len()];
            request.timestamp = (request.timestamp + delay).max(last);
            last = request.timestamp;
            out.push(request);
        }
        out
    }

    #[test]
    fn in_place_merge_matches_pop_then_push() {
        let mut leaves = Vec::new();
        for k in 0..40u64 {
            // Shared start times, zero deltas (every request of a leaf at
            // one timestamp) and single-request leaves tie on timestamps
            // everywhere, so only the leaf index orders them.
            let start = (k % 3) * 10;
            let len = 1 + k % 5;
            leaves.push(leaf(
                (0..len)
                    .map(|i| Request::read(start, 0x10_0000 * (k + 1) + i * 64, 64))
                    .collect(),
            ));
        }
        for k in 0..8u64 {
            // Stochastic deltas that include zero.
            let times = [0u64, 0, 3, 3, 10, 10, 10, 17, 20, 20];
            leaves.push(leaf(
                times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        let address = 0x100_0000 * (k + 1) + (i as u64 % 4) * 64;
                        if (i as u64 + k).is_multiple_of(3) {
                            Request::write(k + t, address, 32)
                        } else {
                            Request::read(k + t, address, 64)
                        }
                    })
                    .collect(),
            ));
        }
        for delays in [&[0u64][..], &[0, 5, 0, 0, 1000, 1]] {
            let want = pop_then_push_merge(&leaves, 11, delays);
            let mut synth = Synthesizer::new(&leaves, true, 11);
            let mut got = Vec::new();
            loop {
                synth.add_delay(delays[got.len() % delays.len()]);
                match synth.next_request() {
                    Some(request) => got.push(request),
                    None => break,
                }
            }
            assert_eq!(got.len(), 40 + 40 * 2 + 8 * 10);
            assert_eq!(got, want, "delays {delays:?}");
        }
    }
}
