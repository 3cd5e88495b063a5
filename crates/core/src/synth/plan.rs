//! The compiled form of a profile's leaves that synthesis runs from.

use mocktails_trace::rng::Rng;
use mocktails_trace::{AddrRange, Op, Request};

use crate::model::{ChainTable, LeafModel, McC, RowSpan, Successor};

/// One feature model of a leaf.
#[derive(Debug, Clone, Copy)]
enum Feature {
    Constant(i64),
    /// Index of the chain in [`SynthPlan`]'s `chains`.
    Markov(usize),
}

/// A `start..end` run of one of the plan's flat arrays.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    /// The run of `items` (empty if out of bounds).
    fn of<T>(self, items: &[T]) -> &[T] {
        items.get(self.start..self.end).unwrap_or_default()
    }

    /// The run of `items`, mutably (empty if out of bounds).
    fn of_mut<T>(self, items: &mut [T]) -> &mut [T] {
        items.get_mut(self.start..self.end).unwrap_or_default()
    }
}

/// One Markov chain's place in the plan's flat arrays.
#[derive(Debug, Clone, Copy)]
struct PlanChain {
    initial: Successor,
    rows: Span,
    successors: Span,
    /// The chain's count block, relative to its leaf's block.
    counts: Span,
}

/// One leaf's metadata and feature models.
#[derive(Debug, Clone)]
struct PlanLeaf {
    start_time: u64,
    start_address: u64,
    range: AddrRange,
    count: u64,
    /// Delta time, stride, op and size.
    features: [Feature; 4],
    /// The leaf's fitted counts: its chains' count blocks, back to back.
    counts: Span,
}

/// A profile's leaves compiled once for synthesis (paper §III-C).
///
/// Every Markov chain of every leaf sits in one flat table: each edge's
/// successor row is resolved once, and the fitted row and chain totals
/// are summed once. The plan also holds each leaf's metadata and the leaf
/// order by `(start_time, index)`, so a [`Synthesizer`] can activate
/// leaves just in time. A plan is immutable: any number of synthesizers
/// can share one through an [`Arc`](std::sync::Arc), each with its own
/// seed, and each copies only the remaining counts of the leaves it has
/// live.
///
/// [`Synthesizer`]: crate::Synthesizer
///
/// ```
/// use std::sync::Arc;
/// use mocktails_core::{HierarchyConfig, Profile, Synthesizer};
/// use mocktails_trace::{Request, Trace};
///
/// let trace = Trace::from_requests(
///     (0..50u64).map(|i| Request::read(i * 7, 0x100 + (i % 10) * 64, 64)).collect(),
/// );
/// let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100));
/// let plan = Arc::new(profile.synth_plan());
/// let trace = Synthesizer::from_plan(Arc::clone(&plan), 3).into_trace();
/// assert_eq!(trace, profile.synthesize(3));
/// assert_eq!(plan.total_requests(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct SynthPlan {
    strict: bool,
    leaves: Box<[PlanLeaf]>,
    /// Leaf indices by `(start_time, index)`.
    order: Box<[usize]>,
    chains: Box<[PlanChain]>,
    rows: Box<[RowSpan]>,
    successors: Box<[Successor]>,
    /// Every leaf's fitted count block, leaf after leaf.
    counts: Box<[u64]>,
    total_requests: u64,
}

impl SynthPlan {
    /// Compiles `leaves` for synthesis with the given strict-convergence
    /// setting.
    pub fn new(leaves: &[LeafModel], strict: bool) -> Self {
        // Size every table exactly up front: a plan lives as long as its
        // profile is served, and growing by doubling would briefly need
        // twice its size.
        let (mut n_chains, mut n_rows, mut n_edges, mut n_counts) = (0, 0, 0, 0);
        for leaf in leaves {
            for model in [
                leaf.delta_time_model(),
                leaf.stride_model(),
                leaf.op_model(),
                leaf.size_model(),
            ] {
                if let McC::Markov(chain) = model {
                    n_chains += 1;
                    n_rows += chain.num_states();
                    n_edges += chain.num_edges();
                    n_counts += chain.counts_len();
                }
            }
        }
        let mut chains = Vec::with_capacity(n_chains);
        let mut rows = Vec::with_capacity(n_rows);
        let mut successors = Vec::with_capacity(n_edges);
        let mut counts = Vec::with_capacity(n_counts);
        let mut total_requests = 0u64;
        let plan_leaves = leaves
            .iter()
            .map(|leaf| {
                total_requests = total_requests.saturating_add(leaf.count());
                let leaf_counts = counts.len();
                let mut feature = |model: &McC| match model {
                    McC::Constant(value) => Feature::Constant(*value),
                    McC::Markov(chain) => {
                        let (rows_at, successors_at, counts_at) =
                            (rows.len(), successors.len(), counts.len());
                        let initial = chain.resolve_into(&mut rows, &mut successors, &mut counts);
                        chains.push(PlanChain {
                            initial,
                            rows: Span {
                                start: rows_at,
                                end: rows.len(),
                            },
                            successors: Span {
                                start: successors_at,
                                end: successors.len(),
                            },
                            counts: Span {
                                start: counts_at - leaf_counts,
                                end: counts.len() - leaf_counts,
                            },
                        });
                        Feature::Markov(chains.len() - 1)
                    }
                };
                let features = [
                    feature(leaf.delta_time_model()),
                    feature(leaf.stride_model()),
                    feature(leaf.op_model()),
                    feature(leaf.size_model()),
                ];
                PlanLeaf {
                    start_time: leaf.start_time(),
                    start_address: leaf.start_address(),
                    range: leaf.range(),
                    count: leaf.count(),
                    features,
                    counts: Span {
                        start: leaf_counts,
                        end: counts.len(),
                    },
                }
            })
            .collect::<Box<[PlanLeaf]>>();
        // Decoded profiles may list their leaves in any order; fitted
        // ones are already sorted, so this is one linear pass for them.
        let mut order: Vec<usize> = (0..plan_leaves.len()).collect();
        order.sort_by_key(|&i| plan_leaves.get(i).map_or(0, |leaf| leaf.start_time));
        Self {
            strict,
            leaves: plan_leaves,
            order: order.into_boxed_slice(),
            chains: chains.into_boxed_slice(),
            rows: rows.into_boxed_slice(),
            successors: successors.into_boxed_slice(),
            counts: counts.into_boxed_slice(),
            total_requests,
        }
    }

    /// Total requests a synthesis from this plan emits.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// The leaf activated `position`-th: its index and its first
    /// request's `(timestamp, index)` heap key.
    pub(super) fn activation(&self, position: usize) -> Option<(u64, usize)> {
        let leaf = *self.order.get(position)?;
        Some((self.leaves.get(leaf)?.start_time, leaf))
    }

    /// Activates `leaf` in `cursor`: copies its remaining counts (strict
    /// only) and generates its first request, which draws nothing.
    pub(super) fn activate<R: Rng + ?Sized>(&self, leaf: usize, cursor: &mut Cursor, rng: &mut R) {
        let Some(meta) = self.leaves.get(leaf) else {
            cursor.left = 0;
            return;
        };
        cursor.leaf = leaf;
        cursor.left = meta.count.saturating_sub(1);
        cursor.states = [None; 4];
        cursor.counts.clear();
        if self.strict {
            cursor
                .counts
                .extend_from_slice(meta.counts.of(&self.counts));
        }
        cursor.pending.timestamp = meta.start_time;
        cursor.pending.address = meta.start_address;
        self.generate(meta, cursor, true, rng);
    }

    /// Generates `cursor`'s next request into `cursor.pending`.
    pub(super) fn advance<R: Rng + ?Sized>(&self, cursor: &mut Cursor, rng: &mut R) {
        cursor.left = cursor.left.saturating_sub(1);
        if let Some(meta) = self.leaves.get(cursor.leaf) {
            self.generate(meta, cursor, false, rng);
        }
    }

    /// Draws one request's features in turn — delta time and stride
    /// (except for the `first` request, which keeps the leaf's saved start
    /// time and address), then op and size — as
    /// [`crate::LeafGenerator::next_request`] does.
    fn generate<R: Rng + ?Sized>(
        &self,
        meta: &PlanLeaf,
        cursor: &mut Cursor,
        first: bool,
        rng: &mut R,
    ) {
        let [delta_time, stride, op, size] = meta.features;
        let Cursor {
            pending,
            states: [delta_time_state, stride_state, op_state, size_state],
            counts,
            ..
        } = cursor;
        let observed = meta.counts.of(&self.counts);
        let mut value = |feature, state: &mut Option<usize>| match feature {
            Feature::Constant(value) => value,
            Feature::Markov(chain) => self.next_state(chain, observed, counts, state, rng),
        };
        if !first {
            let dt = value(delta_time, delta_time_state).max(0) as u64;
            pending.timestamp = pending.timestamp.saturating_add(dt);
            let stride = value(stride, stride_state);
            pending.address = meta.range.wrap(pending.address.wrapping_add(stride as u64));
        }
        pending.op = Op::from_bit((value(op, op_state) & 1) as u8);
        pending.size = value(size, size_state).clamp(1, i64::from(u32::MAX)) as u32;
    }

    /// Emits `chain`'s next state, given its leaf's fitted counts
    /// `observed` and remaining counts `remaining`.
    fn next_state<R: Rng + ?Sized>(
        &self,
        chain: usize,
        observed: &[u64],
        remaining: &mut [u64],
        state: &mut Option<usize>,
        rng: &mut R,
    ) -> i64 {
        let Some(chain) = self.chains.get(chain) else {
            return 0;
        };
        let table = ChainTable {
            initial: chain.initial,
            rows: chain.rows.of(&self.rows),
            successors: chain.successors.of(&self.successors),
        };
        let observed = chain.counts.of(observed);
        table.next_state(observed, chain.counts.of_mut(remaining), state, rng)
    }
}

/// One live leaf of a synthesis: its pending request and what its
/// sampling has consumed so far.
#[derive(Debug, Clone)]
pub(super) struct Cursor {
    leaf: usize,
    /// Requests still to generate after `pending`.
    pub(super) left: u64,
    /// The leaf's next request; its `(timestamp, leaf)` key is on the heap.
    pub(super) pending: Request,
    /// Each Markov feature's row, `None` before its first emission.
    states: [Option<usize>; 4],
    /// The remaining counts of the leaf's chains (strict only), a copy of
    /// its fitted count block taken on activation.
    counts: Vec<u64>,
}

impl Default for Cursor {
    fn default() -> Self {
        Self {
            leaf: 0,
            left: 0,
            pending: Request {
                timestamp: 0,
                address: 0,
                op: Op::Read,
                size: 1,
            },
            states: [None; 4],
            counts: Vec::new(),
        }
    }
}
