//! Built-in metrics: atomic counters and histograms with a deterministic
//! text rendering.
//!
//! The registry is a concrete struct, not a generic registry — the point
//! is observability of *this* server, and a fixed field set keeps the
//! rendering order (and therefore the rendered bytes) identical across
//! runs. Time is injected through [`Clock`], so tests freeze it with
//! [`ManualClock`] and assert the rendering byte-for-byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond clock the server reads for latency and
/// deadline bookkeeping.
///
/// Injecting the clock keeps every time-dependent observable — histogram
/// buckets, uptime, checkpoint age — deterministic under test.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Microseconds since an arbitrary (per-clock) epoch.
    fn now_micros(&self) -> u64;
}

/// The production clock: microseconds since the clock's construction,
/// read from [`Instant`] (monotonic, never wall-clock).
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for tests: time only moves when told to.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `micros`.
    pub fn advance(&self, micros: u64) {
        self.micros.fetch_add(micros, Ordering::SeqCst);
    }

    /// Sets the absolute time.
    pub fn set(&self, micros: u64) {
        self.micros.store(micros, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }
}

/// Buckets per power of two.
const SUB_BUCKETS: usize = 4;

/// Bounded buckets: 1–4 µs one apiece, then [`SUB_BUCKETS`] per power of
/// two from 4 µs up to 2^27 µs (~134 s).
const BUCKETS: usize = SUB_BUCKETS * 26;

/// Upper bounds (microseconds, inclusive) of the histogram buckets; the
/// final implicit bucket is unbounded. Log-linear: 1, 2, 3, 4, then four
/// evenly spaced bounds per power of two (5, 6, 7, 8, 10, 12, 14, 16,
/// 20, …, 2^27), so a quantile reads within 25% of the observation at
/// any scale. The set is fixed, so the rendered lines never depend on
/// what was observed.
const BUCKET_BOUNDS: [u64; BUCKETS] = {
    let mut bounds = [0u64; BUCKETS];
    let mut i = 0;
    while i < BUCKETS {
        bounds[i] = if i < SUB_BUCKETS {
            i as u64 + 1
        } else {
            // Bucket i sits in the octave (2^k, 2^(k+1)], in steps of 2^k / 4.
            let k = i / SUB_BUCKETS + 1;
            let step = 1u64 << (k - 2);
            (1u64 << k) + (i % SUB_BUCKETS) as u64 * step + step
        };
        i += 1;
    }
    bounds
};

/// One cell per bucket of [`BUCKET_BOUNDS`], then the overflow bucket.
/// (Arrays this long have no derived `Default`.)
#[derive(Debug)]
struct Buckets([AtomicU64; BUCKETS + 1]);

impl Default for Buckets {
    fn default() -> Self {
        Self(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// A fixed-bucket latency histogram with atomic cells.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: Buckets,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, micros: u64) {
        // The first bound at or above the observation; past every bound
        // that is the final, overflow bucket.
        let chosen = BUCKET_BOUNDS.partition_point(|&bound| bound < micros);
        if let Some(bucket) = self.buckets.0.get(chosen) {
            bucket.fetch_add(1, Ordering::SeqCst);
        }
        // Saturate rather than wrap: a sum stuck at `u64::MAX` still
        // reads as "huge", a wrapped one would read as small.
        let _ = self
            .sum
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |sum| {
                Some(sum.saturating_add(micros))
            });
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Sum of all observations (microseconds).
    pub fn sum_micros(&self) -> u64 {
        self.sum.load(Ordering::SeqCst)
    }

    /// The upper bound of the bucket holding the `q`-quantile
    /// observation (0 for an empty histogram, `u64::MAX` when the rank
    /// lands in the unbounded overflow bucket). Bucket-resolution, like
    /// any fixed-bucket histogram — good enough to watch a p99 move.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (&bound, bucket) in BUCKET_BOUNDS.iter().zip(&self.buckets.0) {
            seen += bucket.load(Ordering::SeqCst);
            if seen >= rank {
                return bound;
            }
        }
        u64::MAX
    }

    fn render_into(&self, name: &str, out: &mut String) {
        use std::fmt::Write;
        for (&bound, bucket) in BUCKET_BOUNDS.iter().zip(&self.buckets.0) {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{bound}\"}} {}",
                bucket.load(Ordering::SeqCst)
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"+inf\"}} {}",
            self.buckets.0[BUCKETS].load(Ordering::SeqCst)
        );
        let _ = writeln!(out, "{name}_sum_micros {}", self.sum_micros());
        let _ = writeln!(out, "{name}_count {}", self.count());
        let _ = writeln!(out, "{name}_p50_micros {}", self.quantile(0.50));
        let _ = writeln!(out, "{name}_p99_micros {}", self.quantile(0.99));
    }
}

/// How one registry entry renders.
enum Metric<'a> {
    /// `name value`.
    Value(&'a AtomicU64),
    /// `name age`: the entry holds a clock reading, rendered as the gap
    /// from it to "now".
    Age(&'a AtomicU64),
    /// The histogram's bucket, sum, count and quantile lines, each
    /// prefixed `name_`.
    Histogram(&'a Histogram),
}

/// Declares the registry from one table: each entry's doc, field, render
/// kind (`Value`, `Age` or `Histogram`) and, where it differs from the
/// field, its rendered name. The struct's fields and the render order
/// both come from the table, so a metric is declared exactly once.
macro_rules! metric_table {
    (@cell Histogram) => { Histogram };
    (@cell $kind:ident) => { AtomicU64 };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident as $name:literal) => { $name };
    (
        $(#[$meta:meta])*
        pub struct $registry:ident {
            $( $(#[doc = $doc:literal])* $field:ident: $kind:ident $(as $name:literal)?, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $registry {
            $( $(#[doc = $doc])* pub $field: metric_table!(@cell $kind), )*
        }

        impl $registry {
            /// Visits every entry in declaration (= rendering) order.
            fn for_each_metric(&self, mut visit: impl FnMut(&'static str, Metric<'_>)) {
                $( visit(metric_table!(@name $field $(as $name)?), Metric::$kind(&self.$field)); )*
            }
        }
    };
}

metric_table! {
    /// The server's metric registry: every counter, gauge and histogram it
    /// exports.
    ///
    /// Counters only ever increase; `cache_entries` is a gauge the server
    /// stores absolutely after each cache operation. Declaration order here
    /// *is* the rendering order, so [`ServeMetrics::render`] output is stable
    /// by construction.
    #[derive(Debug, Default)]
    pub struct ServeMetrics {
        /// Connections accepted.
        connections_total: Value,
        /// Requests of any type admitted past the handshake.
        requests_total: Value,
        /// `FitProfile` requests processed (including cache hits).
        fit_requests_total: Value,
        /// `Synthesize` requests processed.
        synth_requests_total: Value,
        /// `Stats` requests processed.
        stats_requests_total: Value,
        /// `Metricsz` requests processed.
        metricsz_requests_total: Value,
        /// Typed error frames sent, any code.
        errors_total: Value,
        /// Error frames carrying `Busy` (queue cap hit).
        busy_rejections_total: Value,
        /// Error frames carrying `DeadlineExceeded`.
        deadline_exceeded_total: Value,
        /// Fit requests answered from the profile cache.
        cache_hits_total: Value,
        /// Fit requests that had to fit from scratch.
        cache_misses_total: Value,
        /// Profiles evicted by LRU capacity pressure.
        cache_evictions_total: Value,
        /// Profiles currently resident (gauge).
        cache_entries: Value,
        /// Encoded record bytes streamed in `SynthChunk` frames.
        streamed_bytes_total: Value,
        /// Requests streamed across all `Synthesize` responses.
        streamed_requests_total: Value,
        /// `CoupledSynthesize` requests processed.
        coupled_requests_total: Value,
        /// `CoupledChunk` frames produced.
        coupled_chunks_total: Value,
        /// Requests streamed through coupled (Option B) streams.
        coupled_streamed_requests_total: Value,
        /// Simulated stall cycles the DRAM model fed back into coupled
        /// generators.
        coupled_stall_cycles_total: Value,
        /// Profiles live in the persistent store (gauge; 0 without a store).
        store_profiles: Value,
        /// Persistent store write-ahead-log size in bytes (gauge).
        store_wal_bytes: Value,
        /// Records appended to the store's write-ahead log.
        store_wal_appends_total: Value,
        /// Store opens that found state to recover (replayed records,
        /// truncated a torn tail, or discarded a stale log).
        store_recoveries_total: Value,
        /// Profiles recovered from disk (checkpoint + log replay) at open.
        store_recovered_profiles_total: Value,
        /// Duration of the last store open's recovery replay (gauge).
        store_replay_micros: Value,
        /// Store compactions (checkpoint + log truncation) performed.
        store_checkpoints_total: Value,
        /// Clock reading at the last checkpoint (or store open); rendered as
        /// `store_last_checkpoint_age_micros`, the gap to "now".
        store_last_checkpoint_micros: Age as "store_last_checkpoint_age_micros",
        /// Connections the reactor currently owns (gauge).
        reactor_open_conns: Value,
        /// Connections refused at accept because `max_conns` was reached.
        reactor_conns_rejected_total: Value,
        /// Reactor sweep iterations. Scheduling-dependent by nature (how
        /// often the loop wakes depends on socket and worker timing), so
        /// determinism tests exclude exactly this one line.
        reactor_wakeups_total: Value,
        /// Response frames queued on sockets, not yet fully written (gauge).
        reactor_write_queue_frames: Value,
        /// Jobs waiting in the worker pool's queue (gauge).
        pool_queue_depth: Value,
        /// Submit-to-job-start wait.
        queue_wait_micros: Histogram as "queue_wait",
        /// Fit job duration.
        fit_latency_micros: Histogram as "fit_latency",
        /// Synthesis stream duration (start to end frame).
        synth_latency_micros: Histogram as "synth_latency",
        /// Queue-to-wire latency of each response frame (enqueue on the
        /// connection's write queue until its last byte hits the socket).
        frame_latency_micros: Histogram as "frame_latency",
    }
}

impl ServeMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders every metric in table order — `name value` lines, the
    /// checkpoint age and the histogram blocks — followed by
    /// `uptime_micros`, all computed from `now_micros`. Two renderings of
    /// registries in the same state with the same clock reading are
    /// byte-identical.
    pub fn render(&self, now_micros: u64) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        self.for_each_metric(|name, metric| match metric {
            Metric::Value(value) => {
                let _ = writeln!(out, "{name} {}", value.load(Ordering::SeqCst));
            }
            Metric::Age(at) => {
                let age = now_micros.saturating_sub(at.load(Ordering::SeqCst));
                let _ = writeln!(out, "{name} {age}");
            }
            Metric::Histogram(histogram) => histogram.render_into(name, &mut out),
        });
        let _ = writeln!(out, "uptime_micros {now_micros}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_when_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_micros(), 0);
        clock.advance(250);
        clock.advance(250);
        assert_eq!(clock.now_micros(), 500);
        clock.set(42);
        assert_eq!(clock.now_micros(), 42);
    }

    #[test]
    fn monotonic_clock_is_monotonic() {
        let clock = MonotonicClock::new();
        let a = clock.now_micros();
        let b = clock.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let h = Histogram::new();
        h.observe(90); // le="96"
        h.observe(96); // still le="96" (inclusive)
        h.observe(97); // the next bucket, le="112"
        h.observe(u64::MAX); // overflow bucket
        assert_eq!(h.count(), 4);
        let mut text = String::new();
        h.render_into("t", &mut text);
        assert!(text.contains("t_bucket{le=\"96\"} 2"), "{text}");
        assert!(text.contains("t_bucket{le=\"112\"} 1"), "{text}");
        assert!(text.contains("t_bucket{le=\"+inf\"} 1"), "{text}");
        assert!(text.contains("t_count 4"), "{text}");
        // The sum saturates instead of wrapping past `u64::MAX`.
        assert_eq!(h.sum_micros(), u64::MAX);
        h.observe(1);
        assert_eq!(h.sum_micros(), u64::MAX, "sum wrapped");
    }

    #[test]
    fn histogram_every_boundary_lands_in_its_own_bucket() {
        // Each bound is inclusive on its own bucket, bound+1 spills into
        // the next, and anything past the last bound reaches the overflow
        // bucket. Pins the bound/bucket pairing so a counting rewrite
        // cannot silently shift observations by one bucket.
        let h = Histogram::new();
        for &bound in &BUCKET_BOUNDS {
            h.observe(bound);
            h.observe(bound + 1);
        }
        assert_eq!(h.count(), 2 * BUCKET_BOUNDS.len() as u64);
        let mut text = String::new();
        h.render_into("b", &mut text);
        // Buckets report per-bucket counts: bucket 0 holds only its own
        // bound, every later bucket holds its own bound plus the previous
        // bound's +1 spillover, and the overflow bucket has the final
        // bound+1.
        for (i, &bound) in BUCKET_BOUNDS.iter().enumerate() {
            let want = format!("b_bucket{{le=\"{bound}\"}} {}", if i == 0 { 1 } else { 2 });
            assert!(text.contains(&want), "missing {want} in {text}");
        }
        assert!(text.contains("b_bucket{le=\"+inf\"} 1"), "{text}");
    }

    #[test]
    fn render_is_deterministic_under_frozen_clock() {
        let m = ServeMetrics::new();
        m.requests_total.fetch_add(3, Ordering::SeqCst);
        m.cache_hits_total.fetch_add(1, Ordering::SeqCst);
        m.fit_latency_micros.observe(1234);
        assert_eq!(m.render(777), m.render(777));
        assert_ne!(m.render(777), m.render(778));
    }

    /// The `/metricsz` contract: every value line once, in exactly this
    /// order, then the four histogram blocks, then `uptime_micros`.
    #[test]
    fn render_lists_every_counter_once() {
        let text = ServeMetrics::new().render(0);
        let names = [
            "connections_total",
            "requests_total",
            "fit_requests_total",
            "synth_requests_total",
            "stats_requests_total",
            "metricsz_requests_total",
            "errors_total",
            "busy_rejections_total",
            "deadline_exceeded_total",
            "cache_hits_total",
            "cache_misses_total",
            "cache_evictions_total",
            "cache_entries",
            "streamed_bytes_total",
            "streamed_requests_total",
            "coupled_requests_total",
            "coupled_chunks_total",
            "coupled_streamed_requests_total",
            "coupled_stall_cycles_total",
            "store_profiles",
            "store_wal_bytes",
            "store_wal_appends_total",
            "store_recoveries_total",
            "store_recovered_profiles_total",
            "store_replay_micros",
            "store_checkpoints_total",
            "store_last_checkpoint_age_micros",
            "reactor_open_conns",
            "reactor_conns_rejected_total",
            "reactor_wakeups_total",
            "reactor_write_queue_frames",
            "pool_queue_depth",
            "uptime_micros",
        ];
        for name in names {
            assert_eq!(
                text.lines().filter(|l| l.starts_with(name)).count(),
                1,
                "{name} missing or duplicated in:\n{text}"
            );
        }
        assert!(text.contains("queue_wait_count 0"));
        assert!(text.contains("fit_latency_count 0"));
        assert!(text.contains("synth_latency_count 0"));
        assert!(text.contains("frame_latency_count 0"));
        assert!(text.contains("frame_latency_p50_micros 0"));
        assert!(text.contains("frame_latency_p99_micros 0"));

        let (uptime, values) = names.split_last().unwrap();
        let mut expected: Vec<String> = values.iter().map(|name| name.to_string()).collect();
        for histogram in [
            "queue_wait",
            "fit_latency",
            "synth_latency",
            "frame_latency",
        ] {
            for bound in BUCKET_BOUNDS {
                expected.push(format!("{histogram}_bucket{{le=\"{bound}\"}}"));
            }
            expected.push(format!("{histogram}_bucket{{le=\"+inf\"}}"));
            for suffix in ["sum_micros", "count", "p50_micros", "p99_micros"] {
                expected.push(format!("{histogram}_{suffix}"));
            }
        }
        expected.push(uptime.to_string());
        let rendered: Vec<&str> = text
            .lines()
            .map(|line| line.split(' ').next().unwrap())
            .collect();
        assert_eq!(rendered, expected, "render order changed:\n{text}");
    }

    #[test]
    fn quantile_returns_bucket_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0, "empty histogram");
        for _ in 0..99 {
            h.observe(50); // le="56"
        }
        h.observe(200_000_000); // overflow bucket
        assert_eq!(h.quantile(0.50), 56);
        assert_eq!(h.quantile(0.99), 56, "rank 99 is still in le=56");
        assert_eq!(h.quantile(1.0), u64::MAX, "the max landed past all bounds");
        let h = Histogram::new();
        h.observe(25_000); // le="28672" (7 × 2^12)
        assert_eq!(h.quantile(0.50), 28_672);
        assert_eq!(h.quantile(0.99), 28_672);
    }

    #[test]
    fn bucket_bounds_are_log_linear_with_four_per_octave() {
        assert_eq!(
            BUCKET_BOUNDS[..12],
            [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16]
        );
        assert_eq!(BUCKET_BOUNDS[BUCKETS - 1], 1 << 27);
        // Every bucket is at most a quarter of its lower edge wide.
        for pair in BUCKET_BOUNDS.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!((pair[1] - pair[0]) * 4 <= pair[0].max(4), "{pair:?}");
        }
    }
}
