//! Randomized property tests of partitioning, modeling and synthesis
//! invariants specific to the core crate (the umbrella crate's suite
//! covers cross-crate flows). Driven by the workspace's deterministic
//! PRNG so the suite builds hermetically.

use mocktails_core::partition::{hierarchy, spatial};
use mocktails_core::{HierarchyConfig, LayerSpec, LeafModel, McC, Partition, Profile};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{DecodeOptions, Op, Request, Trace};

const CASES: u64 = 48;

fn rand_request(rng: &mut Prng) -> Request {
    let t = rng.gen_range(0..500_000u64);
    let slot = rng.gen_range(0..0x8_0000u64);
    let op = if rng.gen_bool(0.5) {
        Op::Write
    } else {
        Op::Read
    };
    let size = [8u32, 16, 64, 128][rng.gen_range(0..4usize)];
    Request::new(t, slot * 8, op, size)
}

fn rand_requests(rng: &mut Prng, min: usize, max: usize) -> Vec<Request> {
    let n = rng.gen_range(min..max);
    (0..n).map(|_| rand_request(rng)).collect()
}

fn rand_layer(rng: &mut Prng) -> LayerSpec {
    match rng.gen_range(0..5u32) {
        0 => LayerSpec::TemporalRequestCount(rng.gen_range(1..500usize)),
        1 => LayerSpec::TemporalCycleCount(rng.gen_range(1..100_000u64)),
        2 => LayerSpec::TemporalIntervalCount(rng.gen_range(1..8usize)),
        3 => LayerSpec::SpatialDynamic,
        _ => LayerSpec::SpatialFixed(rng.gen_range(64..8192u64)),
    }
}

#[test]
fn arbitrary_hierarchies_cover_every_request() {
    let mut rng = Prng::seed_from_u64(0xC04E_0001);
    for case in 0..CASES {
        let trace = Trace::from_requests(rand_requests(&mut rng, 1, 150));
        let layers: Vec<LayerSpec> = (0..rng.gen_range(1..4usize))
            .map(|_| rand_layer(&mut rng))
            .collect();
        let config = HierarchyConfig::builder().layers(layers).build().unwrap();
        let leaves = hierarchy::partition(&trace, &config);
        let total: usize = leaves.iter().map(Partition::len).sum();
        assert_eq!(total, trace.len(), "case {case}");
        // Every leaf's range is inside the trace footprint.
        let fp = trace.footprint_range().unwrap();
        for leaf in &leaves {
            assert!(fp.contains_range(&leaf.addr_range()), "case {case}");
        }
    }
}

#[test]
fn dynamic_regions_hold_their_requests() {
    let mut rng = Prng::seed_from_u64(0xC04E_0002);
    for case in 0..CASES {
        let reqs = rand_requests(&mut rng, 1, 150);
        for part in spatial::dynamic(&reqs, true) {
            let range = part.addr_range();
            for r in part.iter() {
                assert!(range.contains_range(&r.range()), "case {case}");
            }
        }
    }
}

#[test]
fn mcc_constant_iff_uniform() {
    let mut rng = Prng::seed_from_u64(0xC04E_0003);
    for case in 0..CASES {
        let n = rng.gen_range(1..60usize);
        // Half the cases exercise genuinely constant sequences.
        let values: Vec<i64> = if rng.gen_bool(0.5) {
            vec![rng.gen_range(-1000..1000i64); n]
        } else {
            (0..n).map(|_| rng.gen_range(-1000..1000i64)).collect()
        };
        let model = McC::fit(&values);
        let uniform = values.iter().all(|&v| v == values[0]);
        assert_eq!(model.is_constant(), uniform, "case {case}");
    }
}

#[test]
fn leaf_generator_is_exact_length_and_bounded() {
    let mut rng = Prng::seed_from_u64(0xC04E_0004);
    for case in 0..CASES {
        let reqs = rand_requests(&mut rng, 1, 80);
        let seed = rng.gen_range(0..100u64);
        let part = Partition::new(reqs);
        let leaf = LeafModel::fit(&part);
        let mut gen_rng = Prng::seed_from_u64(seed);
        let out = leaf.generator(true).by_ref_requests(&mut gen_rng);
        assert_eq!(out.len(), part.len(), "case {case}");
        assert_eq!(out[0].timestamp, part.start_time(), "case {case}");
        assert_eq!(out[0].address, part.start_address(), "case {case}");
        let range = leaf.range();
        for r in &out {
            assert!(range.contains(r.address), "case {case}");
        }
        assert!(out.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }
}

#[test]
fn strict_synthesis_preserves_size_histogram() {
    let mut rng = Prng::seed_from_u64(0xC04E_0005);
    for case in 0..CASES {
        let trace = Trace::from_requests(rand_requests(&mut rng, 1, 120));
        let seed = rng.gen_range(0..50u64);
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(50_000));
        let synth = profile.synthesize(seed);
        let hist = |t: &Trace| t.stats().size_histogram;
        assert_eq!(hist(&synth), hist(&trace), "case {case}");
    }
}

#[test]
fn profile_decoder_never_panics_on_arbitrary_bytes() {
    let mut rng = Prng::seed_from_u64(0xC04E_0006);
    for _ in 0..CASES {
        let n = rng.gen_range(0..256usize);
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = Profile::read(&mut bytes.as_slice(), &DecodeOptions::default());
    }
}

#[test]
fn profile_decoder_never_panics_on_corrupted_profiles() {
    let mut rng = Prng::seed_from_u64(0xC04E_0007);
    for _ in 0..CASES {
        let trace = Trace::from_requests(rand_requests(&mut rng, 1, 60));
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(50_000));
        let mut buf = Vec::new();
        profile.write(&mut buf).unwrap();
        let idx = rng.gen_range(0..buf.len());
        buf[idx] ^= (rng.next_u64() as u8) | 1;
        let _ = Profile::read(&mut buf.as_slice(), &DecodeOptions::default());
    }
}

#[test]
fn synthesizer_timestamps_monotonic_under_random_feedback() {
    let mut rng = Prng::seed_from_u64(0xC04E_0008);
    for case in 0..CASES {
        let trace = Trace::from_requests(rand_requests(&mut rng, 2, 100));
        let delays: Vec<u64> = (0..rng.gen_range(1..40usize))
            .map(|_| rng.gen_range(0..10_000u64))
            .collect();
        let seed = rng.gen_range(0..50u64);
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(50_000));
        let mut synth = profile.synthesizer(seed);
        let mut last = 0u64;
        let mut i = 0usize;
        let mut emitted = 0u64;
        while let Some(r) = synth.next_request() {
            assert!(r.timestamp >= last, "case {case}: time went backwards");
            last = r.timestamp;
            emitted += 1;
            // Inject backpressure at arbitrary points.
            if i < delays.len() {
                synth.add_delay(delays[i]);
                i += 1;
            }
        }
        assert_eq!(emitted, trace.len() as u64, "case {case}");
        assert_eq!(synth.emitted(), emitted, "case {case}");
        assert_eq!(synth.remaining(), 0, "case {case}");
    }
}

#[test]
fn profile_total_requests_consistent() {
    let mut rng = Prng::seed_from_u64(0xC04E_0009);
    for case in 0..CASES {
        let trace = Trace::from_requests(rand_requests(&mut rng, 1, 120));
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_requests_dynamic(25));
        assert_eq!(profile.total_requests(), trace.len() as u64, "case {case}");
        let leaf_sum: u64 = profile.leaves().map(|leaf| leaf.count()).sum();
        assert_eq!(leaf_sum, trace.len() as u64, "case {case}");
    }
}
