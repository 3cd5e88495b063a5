//! The trace container.

use crate::{AddrRange, DecodeOptions, Request, TraceStats};

/// An ordered sequence of memory requests.
///
/// Requests are kept in non-decreasing timestamp order — the order a memory
/// system observes them. Construction through [`Trace::from_requests`] sorts
/// when needed (stably, so same-cycle requests keep their injection order).
///
/// ```
/// use mocktails_trace::{Request, Trace};
///
/// let trace = Trace::from_requests(vec![
///     Request::read(5, 0x40, 64),
///     Request::read(0, 0x00, 64),
/// ]);
/// // Sorted by timestamp on construction.
/// assert_eq!(trace.requests()[0].timestamp, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trace from requests, sorting them by timestamp if necessary.
    ///
    /// The sort is stable: requests with equal timestamps keep their relative
    /// order, which matters for memory controller scheduling.
    pub fn from_requests(mut requests: Vec<Request>) -> Self {
        if !requests
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp)
        {
            requests.sort_by_key(|r| r.timestamp);
        }
        Self { requests }
    }

    /// Builds a trace from requests that are already sorted by timestamp.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the requests are not sorted.
    pub fn from_sorted_requests(requests: Vec<Request>) -> Self {
        debug_assert!(
            requests
                .windows(2)
                .all(|w| w[0].timestamp <= w[1].timestamp),
            "requests must be sorted by timestamp"
        );
        Self { requests }
    }

    /// Appends a request.
    ///
    /// # Panics
    ///
    /// Panics if the request's timestamp precedes the last request's — a
    /// trace is always observed in time order.
    pub fn push(&mut self, request: Request) {
        if let Some(last) = self.requests.last() {
            assert!(
                request.timestamp >= last.timestamp,
                "pushed request at t={} precedes trace tail at t={}",
                request.timestamp,
                last.timestamp
            );
        }
        self.requests.push(request);
    }

    /// The requests in timestamp order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over the requests.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Number of read requests.
    pub fn reads(&self) -> usize {
        self.requests.iter().filter(|r| r.op.is_read()).count()
    }

    /// Number of write requests.
    pub fn writes(&self) -> usize {
        self.requests.iter().filter(|r| r.op.is_write()).count()
    }

    /// Total bytes requested across all requests.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.size)).sum()
    }

    /// Timestamp of the first request, or `None` for an empty trace.
    pub fn start_time(&self) -> Option<u64> {
        self.requests.first().map(|r| r.timestamp)
    }

    /// Timestamp of the last request, or `None` for an empty trace.
    pub fn end_time(&self) -> Option<u64> {
        self.requests.last().map(|r| r.timestamp)
    }

    /// Cycles between the first and last request (zero for traces with fewer
    /// than two requests).
    pub fn duration(&self) -> u64 {
        match (self.start_time(), self.end_time()) {
            (Some(s), Some(e)) => e - s,
            _ => 0,
        }
    }

    /// The smallest address range covering every byte touched by the trace,
    /// or `None` for an empty trace.
    pub fn footprint_range(&self) -> Option<AddrRange> {
        let mut iter = self.requests.iter();
        let first = iter.next()?.range();
        Some(iter.fold(first, |acc, r| acc.union(&r.range())))
    }

    /// Requests whose address range intersects `range`.
    pub fn requests_in_range(&self, range: &AddrRange) -> Vec<Request> {
        self.requests
            .iter()
            .filter(|r| r.range().overlaps(range))
            .copied()
            .collect()
    }

    /// A sub-trace containing the first `n` requests.
    pub fn truncate_to(&self, n: usize) -> Trace {
        Trace {
            requests: self.requests.iter().take(n).copied().collect(),
        }
    }

    /// Computes summary statistics (see [`TraceStats`]).
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_trace(self)
    }

    /// Splits the trace into `(reads, writes)` counts per operation.
    pub fn op_counts(&self) -> (usize, usize) {
        let reads = self.reads();
        (reads, self.len() - reads)
    }

    /// Decodes a trace from the front of `r` under the given
    /// [`DecodeOptions`], advancing `r` past it — the method form of
    /// [`crate::codec::read_trace_with`].
    ///
    /// ```
    /// use mocktails_trace::{codec, DecodeOptions, Request, Trace};
    ///
    /// let trace = Trace::from_requests(vec![Request::read(0, 0x1000, 64)]);
    /// let mut buf = Vec::new();
    /// codec::write_trace(&mut buf, &trace)?;
    /// let back = Trace::read(&mut buf.as_slice(), &DecodeOptions::default())?;
    /// assert_eq!(back, trace);
    /// # Ok::<(), mocktails_trace::TraceError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`crate::codec::read_trace`].
    pub fn read(r: &mut &[u8], options: &DecodeOptions) -> Result<Self, crate::TraceError> {
        crate::codec::read_trace_with(r, options)
    }
}

impl FromIterator<Request> for Trace {
    fn from_iter<T: IntoIterator<Item = Request>>(iter: T) -> Self {
        Trace::from_requests(iter.into_iter().collect())
    }
}

impl Extend<Request> for Trace {
    fn extend<T: IntoIterator<Item = Request>>(&mut self, iter: T) {
        self.requests.extend(iter);
        self.requests.sort_by_key(|r| r.timestamp);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Request;
    type IntoIter = std::vec::IntoIter<Request>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_requests(vec![
            Request::read(0, 0x1000, 64),
            Request::write(10, 0x1040, 64),
            Request::read(10, 0x2000, 128),
            Request::write(30, 0x1f80, 32),
        ])
    }

    #[test]
    fn construction_sorts() {
        let t = Trace::from_requests(vec![
            Request::read(50, 0x0, 4),
            Request::read(10, 0x4, 4),
            Request::read(30, 0x8, 4),
        ]);
        let times: Vec<u64> = t.iter().map(|r| r.timestamp).collect();
        assert_eq!(times, vec![10, 30, 50]);
    }

    #[test]
    fn construction_sort_is_stable() {
        let t = Trace::from_requests(vec![
            Request::read(10, 0xb, 4),
            Request::read(5, 0xa, 4),
            Request::read(10, 0xc, 4),
        ]);
        let addrs: Vec<u64> = t.iter().map(|r| r.address).collect();
        assert_eq!(addrs, vec![0xa, 0xb, 0xc]);
    }

    #[test]
    fn counts_and_bytes() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.reads(), 2);
        assert_eq!(t.writes(), 2);
        assert_eq!(t.op_counts(), (2, 2));
        assert_eq!(t.total_bytes(), 64 + 64 + 128 + 32);
    }

    #[test]
    fn time_span() {
        let t = sample();
        assert_eq!(t.start_time(), Some(0));
        assert_eq!(t.end_time(), Some(30));
        assert_eq!(t.duration(), 30);
        assert_eq!(Trace::new().duration(), 0);
        assert_eq!(Trace::new().start_time(), None);
    }

    #[test]
    fn footprint() {
        let t = sample();
        let fp = t.footprint_range().unwrap();
        assert_eq!(fp.start(), 0x1000);
        assert_eq!(fp.end(), 0x2080);
        assert!(Trace::new().footprint_range().is_none());
    }

    #[test]
    fn requests_in_range_filters() {
        let t = sample();
        let hits = t.requests_in_range(&AddrRange::new(0x1000, 0x1080));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn push_enforces_order() {
        let mut t = Trace::new();
        t.push(Request::read(5, 0, 4));
        t.push(Request::read(5, 4, 4));
        t.push(Request::read(9, 8, 4));
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn push_rejects_time_travel() {
        let mut t = Trace::new();
        t.push(Request::read(5, 0, 4));
        t.push(Request::read(4, 4, 4));
    }

    #[test]
    fn truncate_keeps_prefix() {
        let t = sample().truncate_to(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.end_time(), Some(10));
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = (0..10u64)
            .map(|i| Request::read(i * 2, i * 64, 64))
            .collect();
        assert_eq!(t.len(), 10);
        assert_eq!(t.duration(), 18);
    }

    #[test]
    fn extend_resorts() {
        let mut t = sample();
        t.extend([Request::read(5, 0x3000, 64)]);
        assert!(t
            .requests()
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
        assert_eq!(t.len(), 5);
    }
}
