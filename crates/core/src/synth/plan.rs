//! A profile's leaves laid out for synthesis: the one form a profile is
//! held in, written by the fit and the decoder and read by synthesis, the
//! encoder and validation.

use mocktails_trace::rng::Rng;
use mocktails_trace::{AddrRange, Op, Request};

use crate::model::{ChainAt, ChainRef, Chains, LeafModel, McC, Span};

/// One feature model of a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feature {
    Constant(i64),
    /// The chain's index in the plan's chain list.
    Markov(usize),
}

/// One feature model of a leaf, borrowed from its plan.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FeatureRef<'a> {
    Constant(i64),
    Markov(ChainRef<'a>),
}

/// A leaf's metadata: what the paper saves to anchor its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LeafMeta {
    pub(crate) start_time: u64,
    pub(crate) start_address: u64,
    pub(crate) range: AddrRange,
    pub(crate) count: u64,
}

/// One leaf's metadata and feature models.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanLeaf {
    meta: LeafMeta,
    /// Delta time, stride, op and size: a constant, or the index of a
    /// chain when the feature's bit is set in `markov`.
    values: [i64; 4],
    markov: u8,
    /// The leaf's count block, its chains' count blocks back to back.
    counts: Span,
}

impl PlanLeaf {
    /// The leaf's four feature models.
    fn features(&self) -> [Feature; 4] {
        let feature = |bit: u8, value: i64| {
            if self.markov & bit == 0 {
                Feature::Constant(value)
            } else {
                Feature::Markov(value as usize)
            }
        };
        let [delta_time, stride, op, size] = self.values;
        [
            feature(1, delta_time),
            feature(2, stride),
            feature(4, op),
            feature(8, size),
        ]
    }
}

/// A profile's leaves laid out for synthesis (paper §III-C).
///
/// Every Markov chain of every leaf sits in one flat arena: each edge's
/// successor row is resolved once, and the fitted row and chain totals
/// are summed once. The plan also holds each leaf's metadata and the leaf
/// order by `(start_time, index)`, so a [`Synthesizer`] can activate
/// leaves just in time. A [`Profile`](crate::Profile) is held in this
/// form: the fit and the decoder write it directly, and
/// [`Profile::synth_plan`](crate::Profile::synth_plan) shares it. A plan
/// is immutable once built: any number of synthesizers can share one
/// through an [`Arc`](std::sync::Arc), each with its own seed, and each
/// copies only the remaining counts of the leaves it has live.
///
/// [`Synthesizer`]: crate::Synthesizer
///
/// ```
/// use mocktails_core::{HierarchyConfig, Profile, Synthesizer};
/// use mocktails_trace::{Request, Trace};
///
/// let trace = Trace::from_requests(
///     (0..50u64).map(|i| Request::read(i * 7, 0x100 + (i % 10) * 64, 64)).collect(),
/// );
/// let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100));
/// let plan = profile.synth_plan();
/// let trace = Synthesizer::from_plan(plan.clone(), 3).into_trace();
/// assert_eq!(trace, profile.synthesize(3));
/// assert_eq!(plan.total_requests(), 50);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthPlan {
    strict: bool,
    leaves: Vec<PlanLeaf>,
    /// Leaf indices by `(start_time, index)`, empty when that is leaf
    /// order (as it is for a fit under a temporal first layer).
    order: Vec<usize>,
    /// Every chain's place, its count block relative to its leaf's.
    chains: Vec<ChainAt>,
    arena: Chains,
    total_requests: u64,
}

impl SynthPlan {
    /// Lays `leaves` out for synthesis with the given strict-convergence
    /// setting.
    pub fn new(leaves: &[LeafModel], strict: bool) -> Self {
        let mut plan = Self::default();
        for leaf in leaves {
            plan.push_model(leaf);
        }
        plan.seal(strict)
    }

    /// Total requests a synthesis from this plan emits.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Reserves room for `leaves` more leaves.
    pub(crate) fn reserve(&mut self, leaves: usize) {
        self.leaves.reserve(leaves);
    }

    /// The base of the next leaf: the start of its count block, which
    /// its chains' count blocks are relative to.
    pub(crate) fn base(&self) -> usize {
        self.arena.mark().counts
    }

    /// The arena, to write the next leaf's chains into.
    pub(crate) fn arena_mut(&mut self) -> &mut Chains {
        &mut self.arena
    }

    /// Closes the chain being written in the arena, with initial state
    /// `initial`, as the next chain of the leaf at `base`.
    pub(crate) fn close_chain(&mut self, initial: i64, base: usize) -> Feature {
        let chain = self.arena.close(initial, base);
        self.push_chain(chain)
    }

    fn push_chain(&mut self, chain: ChainAt) -> Feature {
        self.chains.push(chain);
        Feature::Markov(self.chains.len().wrapping_sub(1))
    }

    /// Appends a leaf whose chains were written since `base`.
    pub(crate) fn push_leaf(&mut self, meta: LeafMeta, features: [Feature; 4], base: usize) {
        let mut values = [0; 4];
        let mut markov = 0;
        for (k, (value, feature)) in values.iter_mut().zip(features).enumerate() {
            *value = match feature {
                Feature::Constant(value) => value,
                Feature::Markov(chain) => {
                    markov |= 1 << k;
                    chain as i64
                }
            };
        }
        self.leaves.push(PlanLeaf {
            meta,
            values,
            markov,
            counts: Span {
                start: base,
                end: self.arena.mark().counts,
            },
        });
    }

    /// Fits a leaf to its requests, in arrival order, and appends it
    /// (nothing for no requests). The four features share `pairs` as
    /// scratch space for consecutive value pairs.
    pub(crate) fn push_fitted(&mut self, requests: &[Request], pairs: &mut Vec<(i64, i64)>) {
        let Some(&first) = requests.first() else {
            return;
        };
        let range = requests
            .iter()
            .fold(first.range(), |acc, r| acc.union(&r.range()));
        let base = self.base();
        let windows = || requests.windows(2);
        let delta_times = windows().map(|w| (w[1].timestamp - w[0].timestamp) as i64);
        let delta_time = self.fit_feature(delta_times, pairs, base);
        let strides = windows().map(|w| w[1].address.wrapping_sub(w[0].address) as i64);
        let stride = self.fit_feature(strides, pairs, base);
        let ops = requests.iter().map(|r| i64::from(r.op.as_bit()));
        let op = self.fit_feature(ops, pairs, base);
        let sizes = requests.iter().map(|r| i64::from(r.size));
        let size = self.fit_feature(sizes, pairs, base);
        let meta = LeafMeta {
            start_time: first.timestamp,
            start_address: first.address,
            range,
            count: requests.len() as u64,
        };
        self.push_leaf(meta, [delta_time, stride, op, size], base);
    }

    /// Fits one feature of the leaf at `base` to `values`: a constant
    /// when they are all equal (zero when there are none, as for the
    /// strides of a one-request leaf), else a Markov chain.
    fn fit_feature(
        &mut self,
        mut values: impl Iterator<Item = i64> + Clone,
        pairs: &mut Vec<(i64, i64)>,
        base: usize,
    ) -> Feature {
        let Some(first) = values.next() else {
            return Feature::Constant(0);
        };
        if values.clone().all(|value| value == first) {
            return Feature::Constant(first);
        }
        pairs.clear();
        let mut prev = first;
        pairs.extend(values.map(|value| (std::mem::replace(&mut prev, value), value)));
        let chain = self.arena.push_fitted(first, pairs, base);
        self.push_chain(chain)
    }

    /// Appends `leaf`.
    fn push_model(&mut self, leaf: &LeafModel) {
        let base = self.base();
        let features = [
            leaf.delta_time_model(),
            leaf.stride_model(),
            leaf.op_model(),
            leaf.size_model(),
        ]
        .map(|model| match model {
            McC::Constant(value) => Feature::Constant(*value),
            McC::Markov(chain) => {
                let chain = self.arena.push_model(chain, base);
                self.push_chain(chain)
            }
        });
        let meta = LeafMeta {
            start_time: leaf.start_time(),
            start_address: leaf.start_address(),
            range: leaf.range(),
            count: leaf.count(),
        };
        self.push_leaf(meta, features, base);
    }

    /// Joins plans written leaf by leaf, in order, into the first.
    pub(crate) fn concat(fragments: Vec<Self>) -> Self {
        let mut fragments = fragments.into_iter();
        let mut plan = fragments.next().unwrap_or_default();
        let rest: Vec<Self> = fragments.collect();
        plan.leaves
            .reserve_exact(rest.iter().map(|f| f.leaves.len()).sum());
        plan.chains
            .reserve_exact(rest.iter().map(|f| f.chains.len()).sum());
        plan.arena
            .reserve_exact(rest.iter().map(|f| f.arena.mark()));
        for fragment in rest {
            let (chains, mark) = (plan.chains.len(), plan.arena.mark());
            plan.leaves.extend(fragment.leaves.iter().map(|leaf| {
                let mut values = leaf.values;
                for (k, value) in values.iter_mut().enumerate() {
                    if leaf.markov & (1 << k) != 0 {
                        *value += chains as i64;
                    }
                }
                PlanLeaf {
                    values,
                    counts: leaf.counts.at(mark.counts),
                    ..*leaf
                }
            }));
            let moved = fragment.chains.iter().map(|chain| chain.rows_at(mark));
            plan.chains.extend(moved);
            plan.arena.append(&fragment.arena);
        }
        plan
    }

    /// Finishes a plan written leaf by leaf, with the given
    /// strict-convergence setting: sums the request total and orders the
    /// leaves for activation.
    pub(crate) fn seal(mut self, strict: bool) -> Self {
        self.strict = strict;
        self.total_requests = self
            .leaves
            .iter()
            .fold(0u64, |total, leaf| total.saturating_add(leaf.meta.count));
        // Decoded profiles may list their leaves in any order; fitted
        // ones under a temporal first layer are already sorted, and keep
        // no order.
        let start_time = |leaf: &PlanLeaf| leaf.meta.start_time;
        if !self.leaves.is_sorted_by_key(start_time) {
            let mut order: Vec<usize> = (0..self.leaves.len()).collect();
            order.sort_by_key(|&i| self.leaves.get(i).map_or(0, start_time));
            self.order = order;
        }
        // A profile outlives its writing: keep no spare capacity.
        self.leaves.shrink_to_fit();
        self.chains.shrink_to_fit();
        self.arena.shrink_to_fit();
        self
    }

    /// Each leaf's metadata and its four feature models, in leaf order.
    pub(crate) fn leaves(
        &self,
    ) -> impl ExactSizeIterator<Item = (&LeafMeta, impl Iterator<Item = FeatureRef<'_>> + Clone + '_)> + '_
    {
        self.leaves.iter().map(move |leaf| {
            let features = leaf.features().into_iter();
            (
                &leaf.meta,
                features.map(move |feature| self.feature(leaf, feature)),
            )
        })
    }

    /// `leaf`'s feature model `feature`, borrowed.
    fn feature(&self, leaf: &PlanLeaf, feature: Feature) -> FeatureRef<'_> {
        match feature {
            Feature::Constant(value) => FeatureRef::Constant(value),
            Feature::Markov(chain) => {
                let at = self.chains.get(chain).copied().unwrap_or_default();
                FeatureRef::Markov(self.arena.chain(at.counts_at(leaf.counts.start)))
            }
        }
    }

    /// Each leaf as an owned [`LeafModel`], in leaf order.
    pub(crate) fn leaf_models(&self) -> impl ExactSizeIterator<Item = LeafModel> + '_ {
        self.leaves.iter().map(|leaf| {
            let [delta_time, stride, op, size] =
                leaf.features()
                    .map(|feature| match self.feature(leaf, feature) {
                        FeatureRef::Constant(value) => McC::Constant(value),
                        FeatureRef::Markov(chain) => McC::Markov(chain.model()),
                    });
            let meta = leaf.meta;
            LeafModel::from_parts(
                meta.start_time,
                meta.start_address,
                meta.range,
                meta.count,
                delta_time,
                stride,
                op,
                size,
            )
        })
    }

    /// The leaf activated `position`-th: its index and its first
    /// request's `(timestamp, index)` heap key.
    pub(super) fn activation(&self, position: usize) -> Option<(u64, usize)> {
        let leaf = if self.order.is_empty() {
            position
        } else {
            *self.order.get(position)?
        };
        Some((self.leaves.get(leaf)?.meta.start_time, leaf))
    }

    /// Activates `leaf` in `cursor`: copies its remaining counts (strict
    /// only) and generates its first request, which draws nothing.
    pub(super) fn activate<R: Rng + ?Sized>(&self, leaf: usize, cursor: &mut Cursor, rng: &mut R) {
        let Some(plan_leaf) = self.leaves.get(leaf) else {
            cursor.left = 0;
            return;
        };
        cursor.leaf = leaf;
        cursor.left = plan_leaf.meta.count.saturating_sub(1);
        cursor.states = [None; 4];
        cursor.counts.clear();
        if self.strict {
            cursor
                .counts
                .extend_from_slice(plan_leaf.counts.of(self.arena.counts()));
        }
        cursor.pending.timestamp = plan_leaf.meta.start_time;
        cursor.pending.address = plan_leaf.meta.start_address;
        self.generate(plan_leaf, cursor, true, rng);
    }

    /// Generates `cursor`'s next request into `cursor.pending`.
    pub(super) fn advance<R: Rng + ?Sized>(&self, cursor: &mut Cursor, rng: &mut R) {
        cursor.left = cursor.left.saturating_sub(1);
        if let Some(leaf) = self.leaves.get(cursor.leaf) {
            self.generate(leaf, cursor, false, rng);
        }
    }

    /// Draws one request's features in turn — delta time and stride
    /// (except for the `first` request, which keeps the leaf's saved start
    /// time and address), then op and size — as
    /// [`crate::LeafGenerator::next_request`] does.
    fn generate<R: Rng + ?Sized>(
        &self,
        leaf: &PlanLeaf,
        cursor: &mut Cursor,
        first: bool,
        rng: &mut R,
    ) {
        let [delta_time, stride, op, size] = leaf.features();
        let Cursor {
            pending,
            states: [delta_time_state, stride_state, op_state, size_state],
            counts,
            ..
        } = cursor;
        let observed = leaf.counts.of(self.arena.counts());
        let mut value = |feature, state: &mut Option<usize>| match feature {
            Feature::Constant(value) => value,
            Feature::Markov(chain) => self.next_state(chain, observed, counts, state, rng),
        };
        if !first {
            let dt = value(delta_time, delta_time_state).max(0) as u64;
            pending.timestamp = pending.timestamp.saturating_add(dt);
            let stride = value(stride, stride_state);
            pending.address = leaf
                .meta
                .range
                .wrap(pending.address.wrapping_add(stride as u64));
        }
        pending.op = Op::from_bit((value(op, op_state) & 1) as u8);
        pending.size = value(size, size_state).clamp(1, i64::from(u32::MAX)) as u32;
    }

    /// Emits the next state of chain `chain`, given its leaf's fitted
    /// counts `observed` and remaining counts `remaining`.
    fn next_state<R: Rng + ?Sized>(
        &self,
        chain: usize,
        observed: &[u64],
        remaining: &mut [u64],
        state: &mut Option<usize>,
        rng: &mut R,
    ) -> i64 {
        let Some(&at) = self.chains.get(chain) else {
            return 0;
        };
        let table = self.arena.table(at);
        table.next_state(
            at.counts().of(observed),
            at.counts().of_mut(remaining),
            state,
            rng,
        )
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
