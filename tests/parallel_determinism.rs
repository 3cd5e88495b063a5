//! Cross-thread determinism: the headline invariant of the parallel
//! engine. Fitting, synthesis and encoding must produce byte-identical
//! artifacts at every thread count — parallelism may only change how
//! fast an answer arrives, never which answer arrives.

use mocktails::core::partition::hierarchy;
use mocktails::core::profile::write_profile;
use mocktails::core::LeafModel;
use mocktails::trace::codec::write_trace;
use mocktails::trace::fingerprint;
use mocktails::workloads::catalog;
use mocktails::{DecodeOptions, HierarchyConfig, LayerSpec, Parallelism, Profile, Request, Trace};

const SEED: u64 = 0xD57E_2026;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The largest Table II trace by generated request count — the worst
/// case for chunked leaf fitting, and the trace the acceptance speedup
/// is measured on.
fn largest_trace() -> Trace {
    catalog::all()
        .iter()
        .map(|spec| spec.generate())
        .max_by_key(Trace::len)
        .expect("catalog is non-empty")
}

fn encode_profile(profile: &Profile) -> Vec<u8> {
    let mut buf = Vec::new();
    write_profile(&mut buf, profile);
    buf
}

fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, trace).expect("a Trace is sorted by timestamp");
    buf
}

#[test]
fn profiles_are_bit_identical_at_any_thread_count() {
    let trace = largest_trace();
    let config = HierarchyConfig::two_level_ts(500_000);
    let encoded: Vec<Vec<u8>> = THREAD_COUNTS
        .iter()
        .map(|&n| encode_profile(&Profile::fit_with(&trace, &config, Parallelism::new(n))))
        .collect();
    for (i, bytes) in encoded.iter().enumerate().skip(1) {
        assert_eq!(
            *bytes, encoded[0],
            "profile encoding diverged between {} and {} threads",
            THREAD_COUNTS[0], THREAD_COUNTS[i]
        );
    }
    // The shared bytes must still round-trip through the codec.
    let back = Profile::read(&mut encoded[0].as_slice(), &DecodeOptions::default())
        .expect("parallel-fitted profile round-trips");
    assert_eq!(encode_profile(&back), encoded[0]);
}

#[test]
fn synthetic_traces_and_fingerprints_match_across_thread_counts() {
    let trace = largest_trace();
    let config = HierarchyConfig::two_level_ts(500_000);
    let synths: Vec<Trace> = THREAD_COUNTS
        .iter()
        .map(|&n| Profile::fit_with(&trace, &config, Parallelism::new(n)).synthesize(SEED))
        .collect();
    let reference_print = fingerprint(&synths[0]);
    let reference_bytes = encode_trace(&synths[0]);
    for (i, synth) in synths.iter().enumerate().skip(1) {
        assert_eq!(
            fingerprint(synth),
            reference_print,
            "synthetic fingerprint diverged at {} threads",
            THREAD_COUNTS[i]
        );
        assert_eq!(
            encode_trace(synth),
            reference_bytes,
            "synthetic trace bytes diverged at {} threads",
            THREAD_COUNTS[i]
        );
    }
}

/// Thread counts for the phase-group cases: one group, two, an odd
/// count, and more groups than most traces below have phases.
const GROUP_THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Asserts that `trace` fits to the same bytes at every count of
/// [`GROUP_THREAD_COUNTS`], and that those bytes are the leaf-by-leaf
/// fit of `hierarchy::partition`'s leaves.
fn assert_fit_is_thread_independent(what: &str, trace: &Trace, config: &HierarchyConfig) {
    let leaves = hierarchy::partition(trace, config);
    let reference = encode_profile(&Profile::from_parts(
        config.clone(),
        leaves.iter().map(LeafModel::fit).collect(),
    ));
    for threads in GROUP_THREAD_COUNTS {
        let fitted = Profile::fit_with(trace, config, Parallelism::new(threads));
        assert!(
            encode_profile(&fitted) == reference,
            "{what}: profile at {threads} threads differs from the sequential partition-and-fit"
        );
    }
}

fn catalog_trace(name: &str) -> Trace {
    catalog::by_name(name)
        .unwrap_or_else(|| panic!("{name} is in the catalog"))
        .generate()
}

#[test]
fn every_first_layer_fits_the_same_at_any_thread_count() {
    let trace = catalog_trace("CPU-D");
    let interval_first = HierarchyConfig::builder()
        .layers([
            LayerSpec::TemporalIntervalCount(7),
            LayerSpec::SpatialDynamic,
        ])
        .build()
        .expect("two valid layers");
    for (what, config) in [
        ("cycle count", HierarchyConfig::two_level_ts(500_000)),
        (
            "request count",
            HierarchyConfig::two_level_requests_dynamic(1024),
        ),
        ("interval count", interval_first),
        ("spatial", HierarchyConfig::two_level_st(4)),
    ] {
        assert_fit_is_thread_independent(what, &trace, &config);
    }
}

#[test]
fn fewer_phases_than_threads_fit_the_same() {
    let trace = catalog_trace("FBC-Linear1");
    let config = HierarchyConfig::two_level_ts(500_000);
    let phases = hierarchy::partition(
        &trace,
        &HierarchyConfig::builder()
            .layer(LayerSpec::TemporalCycleCount(500_000))
            .build()
            .expect("one valid layer"),
    );
    assert!(phases.len() < 8, "FBC-Linear1 has {} phases", phases.len());
    assert_fit_is_thread_independent("FBC-Linear1", &trace, &config);
}

#[test]
fn one_dominant_phase_fits_the_same() {
    // Phase 0 holds 6,000 requests over two streams; the next ten phases
    // hold three requests each.
    let mut requests: Vec<Request> = (0..6_000u64)
        .map(|i| Request::read(i * 50, 0x10_0000 + (i % 3) * 64 + (i % 2) * 0x8000, 64))
        .collect();
    for phase in 1..=10u64 {
        for i in 0..3u64 {
            requests.push(Request::write(
                phase * 1_000_000 + i,
                0x40_0000 + i * 128,
                32,
            ));
        }
    }
    let trace = Trace::from_requests(requests);
    assert_fit_is_thread_independent(
        "dominant phase",
        &trace,
        &HierarchyConfig::two_level_ts(500_000),
    );
}

#[test]
fn empty_and_one_request_traces_fit_the_same() {
    let config = HierarchyConfig::two_level_ts(500_000);
    assert_fit_is_thread_independent("empty", &Trace::new(), &config);
    let one = Trace::from_requests(vec![Request::write(7, 0x1000, 64)]);
    assert_fit_is_thread_independent("one request", &one, &config);
}

/// Wall-clock acceptance check: fitting the largest catalog trace with
/// four workers must be at least 1.8x faster than one worker. Timing is
/// load-sensitive, so the test is `#[ignore]`d by default; run it with
/// `cargo test --release -- --ignored parallel_speedup`.
#[test]
#[ignore = "wall-clock measurement; run explicitly on a quiet machine with >= 4 cores"]
fn parallel_speedup_reaches_1_8x_with_four_threads() {
    use std::time::Instant;

    if Parallelism::available().threads() < 4 {
        eprintln!("skipping: fewer than 4 hardware threads, a 1.8x speedup is unattainable");
        return;
    }

    let trace = largest_trace();
    let config = HierarchyConfig::two_level_ts(500_000);
    // Warm up caches and page in the trace before timing anything.
    let _ = Profile::fit_with(&trace, &config, Parallelism::new(1));

    // One fit is milliseconds; amortize over repetitions and take the
    // best of three rounds so scheduler noise cannot fake a regression.
    let time = |threads: usize| {
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..20 {
                    let profile = Profile::fit_with(&trace, &config, Parallelism::new(threads));
                    assert!(profile.leaves().len() > 0);
                }
                start.elapsed()
            })
            .min()
            .expect("three timed rounds");
        best.as_secs_f64()
    };

    let sequential = time(1);
    let parallel = time(4);
    let speedup = sequential / parallel;
    assert!(
        speedup >= 1.8,
        "4-thread fit is only {speedup:.2}x faster ({sequential:.3}s vs {parallel:.3}s)"
    );
}
