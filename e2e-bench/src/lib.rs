//! Layered end-to-end benchmark of the Mocktails pipeline.
//!
//! One process runs one workload (see `README.md` for why each exists):
//! it sets up several times and reports the median set-up time, runs one
//! untimed warm-up pass whose outputs are checked against golden pins and
//! invariants, then runs timed passes, each byte-compared against the
//! warm-up pass, for the requested number of seconds. An untraced run
//! reports the end-to-end metrics. A traced run alternates traced and
//! untraced passes, attributes the traced passes' time to layers from
//! spans recorded around calls into each layer's public functions, and
//! reports the per-layer metrics.

pub mod common;
pub mod inputs;
pub mod spans;

mod golden;
mod model;
mod serve;
mod validate;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use common::{median, peak_rss_mb, percentile, quartiles, steal_secs, Metric, MIN_TAIL};
use spans::{Breakdown, Scope, Span, Tracer};

/// Worker threads for offline fitting: fixed, not every core, so runs on
/// machines with different core counts do the same work.
pub(crate) const FIT_THREADS: usize = 2;

/// Untraced calls a full run times at least, so that the p95 latency has
/// at least 2.5 × [`MIN_TAIL`] samples beyond it.
const MIN_CALLS: usize = 50 * MIN_TAIL;

/// A timed section never runs past this, whatever the other limits say.
const MAX_TIMED: Duration = Duration::from_secs(120);

/// End-to-end metrics, reported by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("requests_per_s", "requests/s"),
    ("calls_per_s", "calls/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: name and unit. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("trace.decode_s", "s"),
    ("trace.decode_mb_per_s", "MB/s"),
    ("trace.encode_s", "s"),
    ("trace.encode_mb_per_s", "MB/s"),
    ("partition.self_s", "s"),
    ("partition.leaves", "count"),
    ("fit.self_s", "s"),
    ("fit.leaves_per_s", "leaves/s"),
    ("pool.fit_speedup", "ratio"),
    ("profile.encode_s", "s"),
    ("profile.decode_s", "s"),
    ("profile.bytes", "bytes"),
    ("synth.self_s", "s"),
    ("synth.requests_per_s", "requests/s"),
    ("dram.replay_s", "s"),
    ("dram.replay_requests_per_s", "requests/s"),
    ("dram.coupled_self_s", "s"),
    ("dram.read_row_hits", "count"),
    ("dram.stall_cycles", "cycles"),
    ("cache.replay_s", "s"),
    ("cache.requests_per_s", "requests/s"),
    ("cache.l1_miss_rate", "ratio"),
    ("store.append_ms_p50", "ms"),
    ("store.append_ms_p99", "ms"),
    ("store.wal_appends", "count"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.first_chunk_ms_p50", "ms"),
    ("serve.chunk_rtt_us_p50", "us"),
    ("serve.chunk_rtt_us_p99", "us"),
    ("serve.chunks_per_call", "count"),
    ("serve.wakeups_per_call", "count"),
    ("serve.fit_server_ms_p50", "ms"),
    ("serve.synth_server_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.busy_rejections", "count"),
    ("serve.errors", "count"),
    ("gap.self_s", "s"),
    ("trace_overhead_pct", "%"),
    ("row_hit_err_pct", "%"),
    ("l1_miss_err_pct", "%"),
    ("profile_size_ratio", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The IP owner's path plus Option A generation.
    Model,
    /// The architect's path: DRAM and cache replay, Option B coupling.
    Validate,
    /// The served write path: uploads fitted, logged and acked.
    ServeFit,
    /// The served read path: cached profiles streamed in chunks.
    ServeStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Model,
        Workload::Validate,
        Workload::ServeFit,
        Workload::ServeStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Model => "model",
            Workload::Validate => "validate",
            Workload::ServeFit => "serve-fit",
            Workload::ServeStream => "serve-stream",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Traces cut to 2000 requests, one set-up, one timed pass and 8
    /// served calls: a functional check fast enough for a debug build.
    Smoke,
}

impl Scale {
    /// Cuts `trace` to this scale's length.
    pub fn cut(self, trace: mocktails_trace::Trace) -> mocktails_trace::Trace {
        match self {
            Scale::Full => trace,
            Scale::Smoke => trace.truncate_to(2000),
        }
    }

    /// Whether `done` set-ups, taking `secs` in all, are enough: at least
    /// three, and more (up to 20) until a second has been spent, so that a
    /// short set-up's median rests on enough samples.
    fn setups_done(self, done: usize, secs: f64) -> bool {
        match self {
            Scale::Full => done >= 3 && (secs >= 1.0 || done >= 20),
            Scale::Smoke => done >= 1,
        }
    }

    pub(crate) fn min_tail(self) -> usize {
        match self {
            Scale::Full => MIN_TAIL,
            Scale::Smoke => 0,
        }
    }

    /// Served calls each client makes per pass.
    pub(crate) fn calls_per_client(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => 4,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed; 0 reproduces the paper's evaluation inputs.
    pub seed: u64,
    /// Minimum length of the timed section.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// What a run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable report, one line each.
    pub report: Vec<String>,
    /// The metrics of the result line: every end-to-end metric, or every
    /// per-layer metric for a traced run.
    pub metrics: Vec<Metric>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Calls attempted in the timed section.
    pub attempted: u64,
    /// Calls that failed or were refused.
    pub failed: u64,
    /// The traced passes' attribution (traced runs only).
    pub breakdown: Option<Breakdown>,
    /// Every recorded span (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// The result line, or `None` if the run stopped before measuring.
    pub fn result_json(&self) -> Option<String> {
        (!self.metrics.is_empty()).then(|| {
            common::result_json(
                self.failures.is_empty(),
                self.attempted,
                self.failed,
                &self.metrics,
            )
        })
    }

    pub(crate) fn line(&mut self, line: String) {
        self.report.push(line);
    }

    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::Model => drive::<model::Model>(cfg),
        Workload::Validate => drive::<validate::Validate>(cfg),
        Workload::ServeFit => drive::<serve::ServeFit>(cfg),
        Workload::ServeStream => drive::<serve::ServeStream>(cfg),
    }
}

/// What one pass did.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// Memory requests the pass moved through the pipeline.
    pub requests: u64,
    /// Latency in seconds of every call that completed.
    pub latencies: Vec<f64>,
    /// Calls that failed or were refused.
    pub failed: u64,
    /// Outputs that differed from the warm-up pass or from their
    /// reference.
    pub mismatches: Vec<String>,
}

/// One timed pass.
#[derive(Debug)]
pub(crate) struct TimedPass {
    pub wall: f64,
    pub traced: bool,
    pub pass: Pass,
}

/// The timed section, handed to [`Bench::finish`].
pub(crate) struct Timed<'t> {
    pub passes: Vec<TimedPass>,
    pub tracer: &'t Tracer,
    pub breakdown: Breakdown,
}

impl Timed<'_> {
    /// Traced passes (at least 1, so per-pass figures stay finite).
    pub fn traced_passes(&self) -> f64 {
        self.passes.iter().filter(|p| p.traced).count().max(1) as f64
    }

    /// Self time of spans named `name` per traced pass, seconds.
    pub fn per_pass(&self, name: &str) -> f64 {
        self.breakdown.self_s(name) / self.traced_passes()
    }

    /// Items of spans named `name` per traced pass.
    pub fn items_per_pass(&self, name: &str) -> f64 {
        self.breakdown.items(name) as f64 / self.traced_passes()
    }

    /// Completed calls per traced pass.
    pub fn calls_per_traced_pass(&self) -> f64 {
        let calls: usize = self
            .passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.pass.latencies.len())
            .sum();
        calls as f64 / self.traced_passes()
    }
}

/// Per-layer metric values, filled by the workloads.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// One workload, as the driver sees it.
pub(crate) trait Bench: Sized {
    /// Everything the passes need: inputs, fitted profiles, a bound and
    /// primed server.
    fn setup(cfg: &Config) -> Result<Self, String>;

    /// One pass. The first pass keeps its outputs as the reference that
    /// later passes are compared against.
    fn pass(&mut self, scope: Scope<'_>) -> Pass;

    /// Checks the reference outputs: invariants at any seed, golden pins
    /// at seed 0.
    fn check_reference(&mut self, cfg: &Config, out: &mut Outcome);

    /// Runs before each timed pass, outside its timing.
    fn before_pass(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Final checks, per-layer metrics (traced runs) and teardown.
    fn finish(self, cfg: &Config, timed: &Timed<'_>, layers: &mut Layers, out: &mut Outcome);

    /// Releases a set-up that is not used (all but the last repetition).
    fn discard(self) {}
}

fn drive<B: Bench>(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    out.line(format!(
        "workload {} seed {} {} run, {:?} scale, fit threads {}, {} cores available",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        cfg.scale,
        FIT_THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));

    let mut setup_secs: Vec<f64> = Vec::new();
    let mut bench: Option<B> = None;
    while !cfg
        .scale
        .setups_done(setup_secs.len(), setup_secs.iter().sum())
    {
        if let Some(previous) = bench.take() {
            previous.discard();
        }
        let started = Instant::now();
        match B::setup(cfg) {
            Ok(b) => bench = Some(b),
            Err(e) => {
                out.failures.push(format!("setup: {e}"));
                return out;
            }
        }
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let Some(mut bench) = bench else {
        return out;
    };
    let setup_s = median(&setup_secs);
    let [q1, _, q3] = quartiles(&setup_secs);
    out.line(format!(
        "setup: median {setup_s:.4} s (q1 {q1:.4}, q3 {q3:.4}) of {} repetitions",
        setup_secs.len()
    ));

    let warm_up = bench.pass(Scope::OFF);
    out.failures.extend(warm_up.mismatches);
    out.check(warm_up.failed == 0, || {
        format!("{} warm-up calls failed", warm_up.failed)
    });
    bench.check_reference(cfg, &mut out);

    let tracer = Tracer::new();
    let (steal_before, started) = (steal_secs(), Instant::now());
    let passes = timed_passes(cfg, &tracer, &mut bench);
    if let (Some(before), Some(after)) = (steal_before, steal_secs()) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        out.line(format!(
            "host steal during the timed passes: {:.2}% of the CPU time",
            100.0 * (after - before) / (started.elapsed().as_secs_f64() * cpus as f64)
        ));
    }
    for p in &passes {
        out.failures.extend(p.pass.mismatches.iter().cloned());
        out.attempted += (p.pass.latencies.len() as u64) + p.pass.failed;
        out.failed += p.pass.failed;
    }
    let timed = Timed {
        breakdown: tracer.breakdown(),
        passes,
        tracer: &tracer,
    };

    let untraced: Vec<&TimedPass> = timed.passes.iter().filter(|p| !p.traced).collect();
    let rates: Vec<f64> = untraced
        .iter()
        .map(|p| p.pass.requests as f64 / p.wall)
        .collect();
    let requests_per_s = median(&rates);
    let [q1, _, q3] = quartiles(&rates);
    let wall: f64 = untraced.iter().map(|p| p.wall).sum();
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.pass.latencies.iter().map(|s| s * 1e3))
        .collect();
    out.line(format!(
        "timed: {} passes ({} traced), {} untraced calls in {wall:.3} s; requests/s per pass q1 {q1:.0} median {requests_per_s:.0} q3 {q3:.0}",
        timed.passes.len(),
        timed.passes.len() - untraced.len(),
        latencies.len(),
    ));

    let mut layers = Layers::new();
    if cfg.trace {
        report_breakdown(&timed, &mut out);
        let traced: Vec<f64> = timed
            .passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.pass.requests as f64 / p.wall)
            .collect();
        layers.insert(
            "trace_overhead_pct",
            (requests_per_s / median(&traced) - 1.0) * 100.0,
        );
        layers.insert(
            "gap.self_s",
            timed.breakdown.gap_s() / timed.traced_passes(),
        );
    }
    bench.finish(cfg, &timed, &mut layers, &mut out);

    if cfg.trace {
        out.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        out.breakdown = Some(timed.breakdown.clone());
        out.spans = tracer.spans();
    } else {
        let tail = |p: f64| {
            percentile(&latencies, p, cfg.scale.min_tail()).map_err(|e| format!("latency {e}"))
        };
        let (p50, p95) = match (tail(50.0), tail(95.0)) {
            (Ok(p50), Ok(p95)) => (p50, p95),
            (a, b) => {
                out.failures.extend(a.err().into_iter().chain(b.err()));
                (0.0, 0.0)
            }
        };
        // The p99 is printed but not gated: on a small shared host it is
        // set by the host's preemptions more than by the program.
        let p99 = percentile(&latencies, 99.0, cfg.scale.min_tail())
            .map_or_else(|e| format!("not reported ({e})"), |v| format!("{v:.4} ms"));
        out.line(format!(
            "latency over {} calls: p50 {p50:.4} ms, p95 {p95:.4} ms, p99 {p99}",
            latencies.len()
        ));
        let values = [
            setup_s,
            requests_per_s,
            latencies.len() as f64 / wall,
            p50,
            p95,
            peak_rss_mb(),
        ];
        out.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
    }
    for m in &out.metrics {
        out.report.push(format!(
            "metric {:<28} {:>18.6} {}",
            m.name, m.value, m.unit
        ));
    }
    let bad: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !bad.is_empty() {
        out.failures.push(format!("non-finite metrics: {bad:?}"));
        for m in &mut out.metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
    }
    out
}

/// Runs passes until the run is long enough: `--seconds` have passed and,
/// for an untraced full run, [`MIN_CALLS`] calls have completed. A traced
/// run alternates traced and untraced passes.
fn timed_passes<B: Bench>(cfg: &Config, tracer: &Tracer, bench: &mut B) -> Vec<TimedPass> {
    let started = Instant::now();
    let mut passes: Vec<TimedPass> = Vec::new();
    let mut untraced_calls = 0;
    loop {
        let traced = cfg.trace && passes.len().is_multiple_of(2);
        let scope = if traced { tracer.root() } else { Scope::OFF };
        let prepared = bench.before_pass();
        let pass_started = Instant::now();
        let mut pass = bench.pass(scope);
        let wall = pass_started.elapsed().as_secs_f64();
        pass.mismatches.extend(prepared.err());
        if !traced {
            untraced_calls += pass.latencies.len();
        }
        passes.push(TimedPass { wall, traced, pass });
        let min_passes = if cfg.trace { 2 } else { 1 };
        let done = match cfg.scale {
            Scale::Smoke => passes.len() >= min_passes,
            Scale::Full => {
                passes.len() >= min_passes
                    && started.elapsed().as_secs_f64() >= cfg.seconds
                    && (cfg.trace || untraced_calls >= MIN_CALLS)
            }
        };
        if done || started.elapsed() > MAX_TIMED {
            return passes;
        }
    }
}

/// Prints each span name's self time per traced pass, the gap, and checks
/// that they add up to the traced passes' wall time.
fn report_breakdown(timed: &Timed<'_>, out: &mut Outcome) {
    let b = &timed.breakdown;
    let passes = timed.traced_passes();
    let roots = b.roots_s();
    out.line(format!(
        "self time per traced pass ({passes} passes, {:.6} s of root spans per pass):",
        roots / passes
    ));
    for (name, totals) in &b.names {
        out.line(format!(
            "  {name:<20} {:>12.6} s {:>6.2}% {:>9} spans {:>12} items",
            totals.self_ns as f64 * 1e-9 / passes,
            100.0 * totals.self_ns as f64 * 1e-9 / roots.max(f64::MIN_POSITIVE),
            totals.count,
            totals.items,
        ));
    }
    let gap = b.gap_s();
    out.line(format!(
        "  gap (bench.* self)   {:>12.6} s {:>6.2}%",
        gap / passes,
        100.0 * gap / roots.max(f64::MIN_POSITIVE)
    ));
    let sum = b.total_self_s();
    out.check(b.overlap_ns == 0 && (sum - roots).abs() <= 0.02 * roots, || {
        format!(
            "layer self times sum to {sum:.6} s but the traced passes took {roots:.6} s (overlap {} ns)",
            b.overlap_ns
        )
    });
}
