//! Hierarchical partitioning of memory requests (paper §III-A).
//!
//! A trace is deconstructed along the temporal dimension ([`temporal`]) and
//! the spatial dimension ([`spatial`]); [`hierarchy`] composes layers into a
//! tree whose leaves are the [`Partition`]s that get modeled independently.

pub mod hierarchy;
pub mod spatial;
pub mod temporal;

use std::borrow::Cow;

use mocktails_trace::{AddrRange, Request};

/// A subset of a trace's requests, kept in arrival (timestamp) order.
///
/// Partitions are what the hierarchy produces and what leaf models consume.
/// Requests within a partition behave similarly — that is the paper's
/// hypothesis — so simple per-feature models capture them well.
///
/// ```
/// use mocktails_core::Partition;
/// use mocktails_trace::Request;
///
/// let p = Partition::new(vec![
///     Request::read(0, 0x1000, 64),
///     Request::read(10, 0x1040, 64),
///     Request::read(20, 0x1080, 64),
/// ]);
/// assert_eq!(p.strides(), vec![64, 64]);
/// assert_eq!(p.delta_times(), vec![10, 10]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    requests: Vec<Request>,
}

impl Partition {
    /// Creates a partition from requests, sorting them into arrival order if
    /// needed (stable, so same-cycle requests keep their relative order).
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty — an empty partition has no behaviour
    /// to model and the partitioning schemes never produce one.
    pub fn new(mut requests: Vec<Request>) -> Self {
        assert!(!requests.is_empty(), "partition must contain requests");
        if !requests
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp)
        {
            requests.sort_by_key(|r| r.timestamp);
        }
        Self { requests }
    }

    /// The partition's requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests in the partition.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Always `false`: partitions are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Timestamp of the partition's first request — the *start time* the
    /// paper saves per leaf to recreate the injection process.
    pub fn start_time(&self) -> u64 {
        self.requests[0].timestamp
    }

    /// Address of the partition's first request — the *starting address*
    /// the paper saves per leaf to anchor stride replay.
    pub fn start_address(&self) -> u64 {
        self.requests[0].address
    }

    /// The smallest range covering every byte the partition touches — the
    /// *address range* the paper saves per leaf to bound synthesis.
    pub fn addr_range(&self) -> AddrRange {
        let mut iter = self.requests.iter();
        let first = iter.next().expect("non-empty").range(); // lint: allow(L001, Partition is only built from non-empty request runs)
        iter.fold(first, |acc, r| acc.union(&r.range()))
    }

    /// Address deltas between consecutive requests (`len() - 1` entries).
    pub fn strides(&self) -> Vec<i64> {
        self.requests
            .windows(2)
            .map(|w| w[1].address.wrapping_sub(w[0].address) as i64)
            .collect()
    }

    /// Cycle deltas between consecutive requests (`len() - 1` entries).
    pub fn delta_times(&self) -> Vec<u64> {
        self.requests
            .windows(2)
            .map(|w| w[1].timestamp - w[0].timestamp)
            .collect()
    }

    /// The operation of every request, as 0 (read) / 1 (write) states.
    pub fn op_states(&self) -> Vec<i64> {
        self.requests
            .iter()
            .map(|r| i64::from(r.op.as_bit()))
            .collect()
    }

    /// The size of every request, as model states.
    pub fn size_states(&self) -> Vec<i64> {
        self.requests.iter().map(|r| i64::from(r.size)).collect()
    }

    /// Iterates over the requests.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }
}

/// Copies the runs of `requests` that end at `ends` into partitions.
pub(crate) fn partitions(requests: &[Request], ends: &[usize]) -> Vec<Partition> {
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let part = Partition::new(requests[start..end].to_vec());
            start = end;
            part
        })
        .collect()
}

/// `requests` in arrival order: borrowed when already sorted, otherwise
/// a copy stable-sorted by timestamp (as [`Partition::new`] sorts).
pub(crate) fn time_sorted(requests: &[Request]) -> Cow<'_, [Request]> {
    let mut requests = Cow::Borrowed(requests);
    if !requests
        .windows(2)
        .all(|w| w[0].timestamp <= w[1].timestamp)
    {
        requests.to_mut().sort_by_key(|r| r.timestamp);
    }
    requests
}

impl<'a> IntoIterator for &'a Partition {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_trace::Op;

    fn sample() -> Partition {
        Partition::new(vec![
            Request::new(0, 0x8100_2eb8, Op::Read, 128),
            Request::new(8, 0x8100_2ec0, Op::Read, 64),
            Request::new(20, 0x8100_2f00, Op::Write, 64),
        ])
    }

    #[test]
    fn construction_sorts_by_time() {
        let p = Partition::new(vec![Request::read(10, 0xb0, 4), Request::read(0, 0xa0, 4)]);
        assert_eq!(p.start_time(), 0);
        assert_eq!(p.start_address(), 0xa0);
    }

    #[test]
    #[should_panic(expected = "must contain requests")]
    fn empty_partition_rejected() {
        let _ = Partition::new(vec![]);
    }

    #[test]
    fn feature_sequences() {
        let p = sample();
        assert_eq!(p.strides(), vec![8, 64]);
        assert_eq!(p.delta_times(), vec![8, 12]);
        assert_eq!(p.op_states(), vec![0, 0, 1]);
        assert_eq!(p.size_states(), vec![128, 64, 64]);
    }

    #[test]
    fn negative_strides_are_signed() {
        let p = Partition::new(vec![
            Request::read(0, 0x1000, 64),
            Request::read(1, 0x0f00, 64),
        ]);
        assert_eq!(p.strides(), vec![-0x100]);
    }

    #[test]
    fn metadata() {
        let p = sample();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.start_time(), 0);
        assert_eq!(p.start_address(), 0x8100_2eb8);
        let range = p.addr_range();
        assert_eq!(range.start(), 0x8100_2eb8);
        assert_eq!(range.end(), 0x8100_2f40);
    }
}
