//! Temporal partitioning schemes (paper §III-A, *Temporal Phases*).
//!
//! Three device-agnostic schemes are supported, mirroring the prior art the
//! paper builds on:
//!
//! * [`by_request_count`] — STM-style intervals of at most N requests.
//! * [`by_cycle_count`] — SynFull-style fixed windows of C cycles, which
//!   capture bursty and idle phases.
//! * [`by_interval_count`] — exactly K equal-request-count intervals
//!   (Table I's `interval_count`).

use mocktails_trace::Request;

use super::{partitions, Partition};

/// Splits requests into consecutive chunks of at most `n` requests.
///
/// Returns partitions in time order. An empty input produces no partitions.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// ```
/// use mocktails_core::partition::temporal;
/// use mocktails_trace::Request;
///
/// let reqs: Vec<_> = (0..10u64).map(|i| Request::read(i, i * 64, 64)).collect();
/// let parts = temporal::by_request_count(&reqs, 4);
/// assert_eq!(parts.iter().map(|p| p.len()).collect::<Vec<_>>(), vec![4, 4, 2]);
/// ```
pub fn by_request_count(requests: &[Request], n: usize) -> Vec<Partition> {
    let mut ends = Vec::new();
    request_count_ends(requests.len(), n, &mut ends);
    partitions(requests, &ends)
}

/// Splits requests into fixed windows of `cycles` cycles, anchored at the
/// first request's timestamp. Windows containing no requests are skipped
/// (they need no model; idle time reappears at synthesis through the
/// surviving windows' start times).
///
/// # Panics
///
/// Panics if `cycles` is zero or the input is not sorted by timestamp.
pub fn by_cycle_count(requests: &[Request], cycles: u64) -> Vec<Partition> {
    let mut ends = Vec::new();
    cycle_count_ends(requests, cycles, &mut ends);
    partitions(requests, &ends)
}

/// Splits requests into exactly `k` intervals of (near-)equal request count.
///
/// When the input has fewer than `k` requests, each request becomes its own
/// interval. Earlier intervals receive the remainder, so sizes differ by at
/// most one.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn by_interval_count(requests: &[Request], k: usize) -> Vec<Partition> {
    let mut ends = Vec::new();
    interval_count_ends(requests.len(), k, &mut ends);
    partitions(requests, &ends)
}

/// Pushes the end of each [`by_request_count`] chunk of `len` requests.
pub(crate) fn request_count_ends(len: usize, n: usize, ends: &mut Vec<usize>) {
    assert!(n > 0, "request count per interval must be non-zero");
    ends.extend((1..=len.div_ceil(n)).map(|i| (i * n).min(len)));
}

/// Pushes the end of each [`by_cycle_count`] window of `requests`.
pub(crate) fn cycle_count_ends(requests: &[Request], cycles: u64, ends: &mut Vec<usize>) {
    assert!(cycles > 0, "cycle count per interval must be non-zero");
    let Some(first) = requests.first() else {
        return;
    };
    let origin = first.timestamp;
    let mut current_window = 0u64;
    for (i, r) in requests.iter().enumerate() {
        assert!(
            r.timestamp >= origin,
            "requests must be sorted by timestamp"
        );
        let window = (r.timestamp - origin) / cycles;
        if window != current_window {
            ends.push(i);
            current_window = window;
        }
    }
    ends.push(requests.len());
}

/// Pushes the end of each [`by_interval_count`] interval of `len`
/// requests.
pub(crate) fn interval_count_ends(len: usize, k: usize, ends: &mut Vec<usize>) {
    assert!(k > 0, "interval count must be non-zero");
    if len == 0 {
        return;
    }
    let k = k.min(len);
    let base = len / k;
    let remainder = len % k;
    let mut end = 0;
    ends.extend((0..k).map(|i| {
        end += base + usize::from(i < remainder);
        end
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, gap: u64) -> Vec<Request> {
        (0..n).map(|i| Request::read(i * gap, i * 64, 64)).collect()
    }

    #[test]
    fn request_count_chunks() {
        let parts = by_request_count(&uniform(10, 1), 3);
        assert_eq!(
            parts.iter().map(Partition::len).collect::<Vec<_>>(),
            vec![3, 3, 3, 1]
        );
    }

    #[test]
    fn request_count_preserves_all_requests() {
        let reqs = uniform(17, 5);
        let parts = by_request_count(&reqs, 4);
        let total: usize = parts.iter().map(Partition::len).sum();
        assert_eq!(total, reqs.len());
    }

    #[test]
    fn request_count_empty_input() {
        assert!(by_request_count(&[], 4).is_empty());
    }

    #[test]
    fn cycle_count_windows() {
        // Requests at t = 0, 10, 20, ..., 90; 25-cycle windows.
        let parts = by_cycle_count(&uniform(10, 10), 25);
        // Windows: [0,25) -> t 0,10,20; [25,50) -> 30,40; [50,75) -> 50,60,70;
        // [75,100) -> 80,90.
        assert_eq!(
            parts.iter().map(Partition::len).collect::<Vec<_>>(),
            vec![3, 2, 3, 2]
        );
    }

    #[test]
    fn cycle_count_skips_idle_windows() {
        let reqs = vec![
            Request::read(0, 0, 64),
            Request::read(5, 64, 64),
            // A long idle gap spanning many windows.
            Request::read(1_000_000, 128, 64),
        ];
        let parts = by_cycle_count(&reqs, 100);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 1);
        assert_eq!(parts[1].start_time(), 1_000_000);
    }

    #[test]
    fn cycle_count_anchors_at_first_request() {
        // First request at t = 1000; window boundaries at 1000 + k*50.
        let reqs = vec![
            Request::read(1000, 0, 64),
            Request::read(1049, 64, 64),
            Request::read(1050, 128, 64),
        ];
        let parts = by_cycle_count(&reqs, 50);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
    }

    #[test]
    fn cycle_count_empty_input() {
        assert!(by_cycle_count(&[], 100).is_empty());
    }

    #[test]
    fn interval_count_exact_split() {
        let parts = by_interval_count(&uniform(12, 1), 2);
        assert_eq!(
            parts.iter().map(Partition::len).collect::<Vec<_>>(),
            vec![6, 6]
        );
    }

    #[test]
    fn interval_count_remainder_goes_first() {
        let parts = by_interval_count(&uniform(10, 1), 3);
        assert_eq!(
            parts.iter().map(Partition::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
    }

    #[test]
    fn interval_count_more_intervals_than_requests() {
        let parts = by_interval_count(&uniform(2, 1), 5);
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn table1_two_temporal_partitions() {
        // Partition F of Fig. 2: two identical six-request passes over the
        // same region. Splitting into 2 intervals isolates each pass so a
        // Markov chain captures the stride sequence perfectly (Table I).
        let addrs = [
            0x8100_2eb8u64,
            0x8100_2ec0,
            0x8100_2f00,
            0x8100_2f40,
            0x8100_2f80,
            0x8100_2fc0,
        ];
        let mut reqs = Vec::new();
        for pass in 0..2u64 {
            for (i, &a) in addrs.iter().enumerate() {
                let size = if i == 0 { 128 } else { 64 };
                reqs.push(Request::read(pass * 100 + i as u64 * 10, a, size));
            }
        }
        let parts = by_interval_count(&reqs, 2);
        assert_eq!(parts.len(), 2);
        // Each interval sees the pure forward pattern: 8, 64, 64, 64, 64.
        assert_eq!(parts[0].strides(), vec![8, 64, 64, 64, 64]);
        assert_eq!(parts[1].strides(), vec![8, 64, 64, 64, 64]);
        // One interval would include the -264 back-jump.
        let one = by_interval_count(&reqs, 1);
        assert!(one[0].strides().contains(&-264));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_request_count_panics() {
        let _ = by_request_count(&[], 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_cycle_count_panics() {
        let _ = by_cycle_count(&[], 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_count_panics() {
        let _ = by_interval_count(&[], 0);
    }
}
