//! Deterministic scoped-thread parallelism for the Mocktails workspace.
//!
//! Mocktails' hot paths are embarrassingly parallel: every leaf McC model
//! fits its partition independently (paper §III-B), every Table II
//! workload evaluates independently, and every seeded fuzz case mutates
//! and decodes independently. What makes parallelizing them delicate is
//! the workspace's headline invariant — *every output must be
//! bit-identical at any thread count*. A conventional work-stealing pool
//! breaks that promise the moment result order depends on scheduling.
//!
//! This crate therefore provides exactly one primitive, [`Parallelism::map`],
//! with a deterministic contract:
//!
//! * work is split into **contiguous index chunks**, assigned to threads
//!   by chunk index, never stolen or rebalanced;
//! * results are **merged in submission order**, so the output `Vec` is
//!   the same as a sequential `items.iter().map(f).collect()` regardless
//!   of which thread finished first;
//! * a thread count of **1 short-circuits to the plain sequential map**
//!   (no threads are spawned at all — the exact legacy code path).
//!
//! The only thing parallelism may change is wall-clock time.
//!
//! Threads are scoped ([`std::thread::scope`]), so `f` can borrow from the
//! caller's stack and no detached worker outlives a call. The crate has no
//! dependencies and is the single place in the workspace allowed to touch
//! [`std::thread`] (enforced by lint rule L007).
//!
//! # Choosing a thread count
//!
//! [`Parallelism::current`] resolves the process-wide default: an explicit
//! [`Parallelism::make_current`] pin (the CLI's `--threads N`) wins,
//! otherwise the `MOCKTAILS_THREADS` environment variable, otherwise all
//! available cores.
//!
//! # Example
//!
//! ```
//! use mocktails_pool::Parallelism;
//!
//! let squares = Parallelism::new(4).map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! // Bit-identical at any thread count:
//! assert_eq!(squares, Parallelism::sequential().map(&[1u64, 2, 3, 4, 5], |&x| x * x));
//! ```

pub mod bounded;

use std::sync::OnceLock;

/// The environment variable consulted by [`Parallelism::from_env`].
pub const THREADS_ENV_VAR: &str = "MOCKTAILS_THREADS";

/// The process-wide default, pinned once by [`Parallelism::make_current`]
/// or lazily resolved from the environment by [`Parallelism::current`].
static CURRENT: OnceLock<Parallelism> = OnceLock::new();

/// A validated worker-thread count for [`Parallelism::map`].
///
/// The count only bounds concurrency; it never influences results. One
/// thread means strictly sequential execution with no spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// A parallelism of `threads` worker threads. Zero is clamped to one:
    /// there is no meaningful "no threads" execution, and callers that
    /// want to reject `0` loudly (the CLI does) can do so before calling.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Single-threaded execution — the exact legacy code path.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// One thread per available core (falling back to sequential when the
    /// platform cannot report its core count).
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(threads)
    }

    /// Resolves the thread count from the `MOCKTAILS_THREADS` environment
    /// variable; unset, empty, zero or unparsable values fall back to
    /// [`Parallelism::available`] so a broken environment degrades to the
    /// default rather than failing.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV_VAR) {
            Ok(value) => match parse_threads(&value) {
                Some(threads) => Self::new(threads),
                None => Self::available(),
            },
            Err(_) => Self::available(),
        }
    }

    /// The process-wide default: the value pinned by
    /// [`Parallelism::make_current`] if any, otherwise
    /// [`Parallelism::from_env`], cached for the life of the process.
    pub fn current() -> Self {
        *CURRENT.get_or_init(Self::from_env)
    }

    /// Pins `self` as the process-wide default consulted by
    /// [`Parallelism::current`]. The first pin wins (matching
    /// [`OnceLock`] semantics); the value actually in effect is returned,
    /// so callers can detect a lost race.
    pub fn make_current(self) -> Self {
        *CURRENT.get_or_init(|| self)
    }

    /// The worker-thread count (always at least 1).
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Work is partitioned into at most `threads` contiguous chunks of
    /// `ceil(len / threads)` items; chunk `k` covers input indices
    /// `[k * chunk_len, (k + 1) * chunk_len)` and its results land in the
    /// output at exactly those indices. The assignment depends only on
    /// `items.len()` and the thread count — never on scheduling — so the
    /// returned `Vec` is bit-identical to the sequential map.
    ///
    /// The calling thread maps the first chunk and spawned threads the
    /// rest. A panic in `f` propagates to the caller (after all worker
    /// threads have been joined), exactly as it would in a sequential
    /// loop.
    pub fn map<T, U, F>(self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let threads = self.threads.min(items.len());
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        let chunk_len = items.len().div_ceil(threads);
        let f = &f;
        std::thread::scope(|scope| {
            // The calling thread maps the first chunk itself, so `threads`
            // workers cost `threads - 1` spawns.
            let mut chunks = items.chunks(chunk_len);
            let first = chunks.next().unwrap_or_default();
            let handles: Vec<_> = chunks
                .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<U>>()))
                .collect();
            let mut results = Vec::with_capacity(items.len());
            results.extend(first.iter().map(f));
            for handle in handles {
                match handle.join() {
                    Ok(chunk_results) => results.extend(chunk_results),
                    // Re-raise the worker's panic on the calling thread;
                    // the scope joins the remaining workers on unwind.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        })
    }
}

impl Default for Parallelism {
    /// Defaults to [`Parallelism::current`] so options structs embedding a
    /// `Parallelism` inherit the process-wide setting.
    fn default() -> Self {
        Self::current()
    }
}

/// Parses a `MOCKTAILS_THREADS` value; `None` means "fall back to the
/// available-core default".
fn parse_threads(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(threads) => Some(threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::sequential().threads(), 1);
    }

    #[test]
    fn available_is_at_least_one() {
        assert!(Parallelism::available().threads() >= 1);
    }

    #[test]
    fn map_preserves_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 8, 64, 1000, 2000] {
            let got = Parallelism::new(threads).map(&items, |&x| x * 3 + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(Parallelism::new(8).map(&empty, |&x| x).is_empty());
        assert_eq!(Parallelism::new(8).map(&[42u32], |&x| x + 1), vec![43]);
    }

    #[test]
    fn map_borrows_caller_state() {
        let offset = 100u64;
        let got = Parallelism::new(4).map(&[1u64, 2, 3], |&x| x + offset);
        assert_eq!(got, vec![101, 102, 103]);
    }

    #[test]
    fn chunk_assignment_is_independent_of_scheduling() {
        // Results must identify the worker only through the input value,
        // never through spawn/finish order: map the index back out and
        // check it is untouched.
        let items: Vec<usize> = (0..257).collect();
        let got = Parallelism::new(13).map(&items, |&i| i);
        assert_eq!(got, items);
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = Parallelism::new(4).map(&items, |&x| {
            assert!(x < 40, "worker exploded");
            x
        });
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads("-2"), None);
    }

    #[test]
    fn current_is_stable_across_calls() {
        assert_eq!(Parallelism::current(), Parallelism::current());
        // After the first resolution, make_current cannot repin.
        let effective = Parallelism::new(12345).make_current();
        assert_eq!(effective, Parallelism::current());
    }
}
