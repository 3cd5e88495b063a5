//! Per-leaf models: four McC feature models plus anchoring metadata.

use mocktails_trace::rng::Rng;
use mocktails_trace::{AddrRange, Op, Request};

use crate::partition::Partition;
use crate::synth::SynthPlan;

use super::{McC, McCSampler};

/// The statistical model of one leaf partition (paper §III-B).
///
/// A leaf model records the metadata the paper saves to minimize error —
/// the leaf's start time, starting address, address range and request
/// count — plus an independent [`McC`] model per request feature:
/// inter-arrival **delta time**, address **stride**, **operation** and
/// **size**.
///
/// ```
/// use mocktails_core::{LeafModel, Partition};
/// use mocktails_trace::Request;
/// use mocktails_trace::rng::Prng;
///
///
/// let leaf = LeafModel::fit(&Partition::new(vec![
///     Request::read(100, 0x1000, 64),
///     Request::read(110, 0x1040, 64),
///     Request::read(120, 0x1080, 64),
/// ]));
///
/// let mut rng = Prng::seed_from_u64(1);
/// let synthesized: Vec<_> = leaf.generator(true).by_ref_requests(&mut rng);
/// assert_eq!(synthesized.len(), 3);
/// assert_eq!(synthesized[0].timestamp, 100); // starts at the saved time
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeafModel {
    start_time: u64,
    start_address: u64,
    range: AddrRange,
    count: u64,
    delta_time: McC,
    stride: McC,
    op: McC,
    size: McC,
}

impl LeafModel {
    /// Fits a leaf model to a partition's requests.
    pub fn fit(partition: &Partition) -> Self {
        Self::fit_requests(partition.requests())
    }

    /// Fits a leaf model to one leaf's requests, in arrival order, as
    /// [`crate::Profile::fit`] fits each of its leaves.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    pub fn fit_requests(requests: &[Request]) -> Self {
        assert!(!requests.is_empty(), "leaf must contain requests");
        let mut plan = SynthPlan::default();
        plan.push_fitted(requests, &mut Vec::new());
        let leaf = plan.leaf_models().next();
        leaf.expect("a non-empty leaf fits to one model") // lint: allow(L001, push_fitted appends exactly one leaf for a non-empty request run)
    }

    /// Builds a leaf model from explicit parts, rejecting inconsistent
    /// metadata with a description instead of panicking — the decode path
    /// for untrusted profiles.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant: a zero request count, or a start
    /// address outside the leaf's range.
    // lint: allow(L011, the eight feature-model parts mirror the on-disk leaf record)
    #[allow(clippy::too_many_arguments)]
    pub fn try_from_parts(
        start_time: u64,
        start_address: u64,
        range: AddrRange,
        count: u64,
        delta_time: McC,
        stride: McC,
        op: McC,
        size: McC,
    ) -> Result<Self, String> {
        check_parts(start_address, range, count)?;
        Ok(Self {
            start_time,
            start_address,
            range,
            count,
            delta_time,
            stride,
            op,
            size,
        })
    }

    /// Builds a leaf model from explicit parts (used by the profile decoder
    /// and by baseline models that swap in their own feature models).
    // lint: allow(L011, the eight feature-model parts mirror the on-disk leaf record)
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        start_time: u64,
        start_address: u64,
        range: AddrRange,
        count: u64,
        delta_time: McC,
        stride: McC,
        op: McC,
        size: McC,
    ) -> Self {
        assert!(count > 0, "leaf must model at least one request");
        assert!(
            range.contains(start_address),
            "start address must lie inside the leaf range"
        );
        Self {
            start_time,
            start_address,
            range,
            count,
            delta_time,
            stride,
            op,
            size,
        }
    }

    /// Cycle at which the leaf begins injecting requests.
    pub fn start_time(&self) -> u64 {
        self.start_time
    }

    /// Address of the leaf's first request.
    pub fn start_address(&self) -> u64 {
        self.start_address
    }

    /// The memory region synthesized addresses are confined to.
    pub fn range(&self) -> AddrRange {
        self.range
    }

    /// Number of requests this leaf generates.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The delta-time feature model.
    pub fn delta_time_model(&self) -> &McC {
        &self.delta_time
    }

    /// The stride feature model.
    pub fn stride_model(&self) -> &McC {
        &self.stride
    }

    /// The operation feature model.
    pub fn op_model(&self) -> &McC {
        &self.op
    }

    /// The size feature model.
    pub fn size_model(&self) -> &McC {
        &self.size
    }

    /// Creates a generator that synthesizes this leaf's partial order of
    /// requests (`strict` selects strict-convergence sampling).
    pub fn generator(&self, strict: bool) -> LeafGenerator {
        LeafGenerator {
            remaining: self.count,
            time: self.start_time,
            address: self.start_address,
            range: self.range,
            first: true,
            delta_time: self.delta_time.sampler(strict),
            stride: self.stride.sampler(strict),
            op: self.op.sampler(strict),
            size: self.size.sampler(strict),
        }
    }
}

/// Checks a leaf's metadata for [`LeafModel::try_from_parts`] and the
/// profile decoder: a non-zero request count and a start address inside
/// the leaf's range.
pub(crate) fn check_parts(start_address: u64, range: AddrRange, count: u64) -> Result<(), String> {
    if count == 0 {
        return Err("leaf declares zero requests".to_string());
    }
    if !range.contains(start_address) {
        return Err(format!(
            "leaf start address {start_address:#x} outside its range {range}"
        ));
    }
    Ok(())
}

/// Streaming generator of one leaf's requests (paper §III-C, *Generating a
/// Request*).
///
/// The first request is pinned to the leaf's saved start time and starting
/// address; subsequent requests advance by sampled delta times and strides,
/// with addresses wrapped back into the leaf's range to preserve spatial
/// locality.
#[derive(Debug, Clone)]
pub struct LeafGenerator {
    remaining: u64,
    time: u64,
    address: u64,
    range: AddrRange,
    first: bool,
    delta_time: McCSampler,
    stride: McCSampler,
    op: McCSampler,
    size: McCSampler,
}

impl LeafGenerator {
    /// Synthesizes the next request, or `None` when the leaf's request
    /// count is exhausted.
    pub fn next_request<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.first {
            self.first = false;
        } else {
            let dt = self.delta_time.next_value(rng).max(0) as u64;
            self.time = self.time.saturating_add(dt);
            let stride = self.stride.next_value(rng);
            self.address = self.range.wrap(self.address.wrapping_add(stride as u64));
        }
        let op = Op::from_bit((self.op.next_value(rng) & 1) as u8);
        let size = self.size.next_value(rng).clamp(1, i64::from(u32::MAX)) as u32;
        Some(Request::new(self.time, self.address, op, size))
    }

    /// Number of requests left to generate.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Timestamp the next request will carry (before feedback delays),
    /// valid while [`LeafGenerator::remaining`] is non-zero.
    ///
    /// Note: for requests after the first, the actual emission time also
    /// adds a sampled delta, so this is the lower bound used to seed the
    /// priority queue.
    pub fn pending_time(&self) -> u64 {
        self.time
    }

    /// Convenience: drains the generator into a vector.
    pub fn by_ref_requests<R: Rng + ?Sized>(mut self, rng: &mut R) -> Vec<Request> {
        // Cap the up-front reservation: `remaining` may come from a decoded
        // (untrusted) profile, so reserve lazily past the first chunk.
        let mut out = Vec::with_capacity(self.remaining.min(1 << 16) as usize);
        while let Some(r) = self.next_request(rng) {
            out.push(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_trace::rng::Prng;

    fn linear_partition() -> Partition {
        Partition::new(
            (0..10u64)
                .map(|i| Request::read(100 + i * 10, 0x1000 + i * 64, 64))
                .collect(),
        )
    }

    #[test]
    fn fit_captures_metadata() {
        let leaf = LeafModel::fit(&linear_partition());
        assert_eq!(leaf.start_time(), 100);
        assert_eq!(leaf.start_address(), 0x1000);
        assert_eq!(leaf.count(), 10);
        assert_eq!(leaf.range(), AddrRange::new(0x1000, 0x1000 + 10 * 64));
        assert!(leaf.delta_time_model().is_constant());
        assert!(leaf.stride_model().is_constant());
        assert!(leaf.op_model().is_constant());
        assert!(leaf.size_model().is_constant());
    }

    #[test]
    fn linear_leaf_replays_exactly() {
        let part = linear_partition();
        let leaf = LeafModel::fit(&part);
        let mut rng = Prng::seed_from_u64(0);
        let out = leaf.generator(true).by_ref_requests(&mut rng);
        assert_eq!(out, part.requests());
    }

    #[test]
    fn generator_count_is_exact() {
        let part = Partition::new(vec![
            Request::read(0, 0x0, 64),
            Request::write(3, 0x40, 32),
            Request::read(9, 0x20, 16),
        ]);
        let leaf = LeafModel::fit(&part);
        let mut rng = Prng::seed_from_u64(1);
        let mut g = leaf.generator(true);
        assert_eq!(g.remaining(), 3);
        let mut n = 0;
        while g.next_request(&mut rng).is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(g.next_request(&mut rng).is_none());
    }

    #[test]
    fn strict_generation_preserves_op_counts() {
        let reqs: Vec<Request> = (0..40u64)
            .map(|i| {
                if i % 3 == 0 {
                    Request::write(i, 0x100 + (i % 8) * 64, 64)
                } else {
                    Request::read(i, 0x100 + (i % 8) * 64, 64)
                }
            })
            .collect();
        let part = Partition::new(reqs.clone());
        let leaf = LeafModel::fit(&part);
        for seed in 0..10u64 {
            let mut rng = Prng::seed_from_u64(seed);
            let out = leaf.generator(true).by_ref_requests(&mut rng);
            let writes = out.iter().filter(|r| r.op.is_write()).count();
            assert_eq!(writes, reqs.iter().filter(|r| r.op.is_write()).count());
        }
    }

    #[test]
    fn addresses_stay_in_range() {
        // Irregular strides that would escape the region without wrapping.
        let reqs = vec![
            Request::read(0, 0x1000, 64),
            Request::read(1, 0x1200, 64),
            Request::read(2, 0x1040, 64),
            Request::read(3, 0x1240, 64),
            Request::read(4, 0x1080, 64),
        ];
        let part = Partition::new(reqs);
        let leaf = LeafModel::fit(&part);
        let range = leaf.range();
        for seed in 0..20u64 {
            let mut rng = Prng::seed_from_u64(seed);
            for r in leaf.generator(true).by_ref_requests(&mut rng) {
                assert!(range.contains(r.address), "addr {:#x} escaped", r.address);
            }
        }
    }

    #[test]
    fn timestamps_are_monotonic_within_leaf() {
        let reqs = vec![
            Request::read(5, 0x0, 4),
            Request::read(9, 0x4, 4),
            Request::read(30, 0x8, 4),
            Request::read(31, 0xc, 4),
        ];
        let leaf = LeafModel::fit(&Partition::new(reqs));
        let mut rng = Prng::seed_from_u64(7);
        let out = leaf.generator(true).by_ref_requests(&mut rng);
        assert!(out.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        assert_eq!(out[0].timestamp, 5);
    }

    #[test]
    fn single_request_leaf() {
        let part = Partition::new(vec![Request::write(77, 0xdead_b000, 128)]);
        let leaf = LeafModel::fit(&part);
        let mut rng = Prng::seed_from_u64(0);
        let out = leaf.generator(true).by_ref_requests(&mut rng);
        assert_eq!(out, part.requests());
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn from_parts_rejects_zero_count() {
        let _ = LeafModel::from_parts(
            0,
            0,
            AddrRange::new(0, 64),
            0,
            McC::Constant(0),
            McC::Constant(0),
            McC::Constant(0),
            McC::Constant(64),
        );
    }

    #[test]
    #[should_panic(expected = "inside the leaf range")]
    fn from_parts_rejects_external_start() {
        let _ = LeafModel::from_parts(
            0,
            0x5000,
            AddrRange::new(0, 64),
            1,
            McC::Constant(0),
            McC::Constant(0),
            McC::Constant(0),
            McC::Constant(64),
        );
    }
}
