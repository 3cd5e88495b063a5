//! Randomized property tests of the workspace's core invariants, driven
//! by the workspace's deterministic PRNG so the suite builds hermetically.

use mocktails::core::partition::{spatial, temporal};
use mocktails::core::{HierarchyConfig, MarkovChain, Profile};
use mocktails::trace::rng::{Prng, Rng};
use mocktails::trace::{codec, AddrRange, Op, Request, Trace};
use mocktails::{DecodeOptions, DramConfig, MemorySystem};

const CASES: u64 = 64;

fn rand_request(rng: &mut Prng) -> Request {
    let t = rng.gen_range(0..1_000_000u64);
    let addr = rng.gen_range(0..0x10_0000u64);
    let op = if rng.gen_bool(0.5) {
        Op::Write
    } else {
        Op::Read
    };
    let size = [16u32, 32, 64, 128][rng.gen_range(0..4usize)];
    Request::new(t, addr * 16, op, size)
}

fn rand_trace(rng: &mut Prng, max: usize) -> Trace {
    let n = rng.gen_range(1..max);
    Trace::from_requests((0..n).map(|_| rand_request(rng)).collect())
}

#[test]
fn codec_round_trips_any_trace() {
    let mut rng = Prng::seed_from_u64(0x0001);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng, 200);
        let mut buf = Vec::new();
        codec::write_trace(&mut buf, &trace).unwrap();
        let back = codec::read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back, trace, "case {case}");
    }
}

#[test]
fn dynamic_partitions_are_disjoint_and_complete() {
    let mut rng = Prng::seed_from_u64(0x0002);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng, 150);
        let parts = spatial::dynamic(trace.requests(), true);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, trace.len(), "case {case}");
        // Regions from merge_ranges are strictly separated.
        let regions = spatial::merge_ranges(trace.requests());
        for w in regions.windows(2) {
            assert!(w[0].end() < w[1].start(), "case {case}");
        }
        // Every request range lies inside some region.
        for r in trace.iter() {
            assert!(
                regions.iter().any(|g| g.contains_range(&r.range())),
                "case {case}"
            );
        }
    }
}

#[test]
fn temporal_partitions_preserve_order() {
    let mut rng = Prng::seed_from_u64(0x0003);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng, 150);
        let n = rng.gen_range(1..50usize);
        let parts = temporal::by_request_count(trace.requests(), n);
        let flattened: Vec<Request> = parts
            .iter()
            .flat_map(|p| p.requests().iter().copied())
            .collect();
        assert_eq!(flattened, trace.requests().to_vec(), "case {case}");
    }
}

#[test]
fn markov_strict_convergence_preserves_multiset() {
    let mut rng = Prng::seed_from_u64(0x0004);
    for case in 0..CASES {
        let seq: Vec<i64> = (0..rng.gen_range(1..60usize))
            .map(|_| rng.gen_range(-50..50i64))
            .collect();
        let seed = rng.gen_range(0..500u64);
        let chain = MarkovChain::fit(&seq);
        let mut sample_rng = Prng::seed_from_u64(seed);
        let mut sampler = chain.sampler(true);
        let mut out: Vec<i64> = (0..seq.len())
            .map(|_| sampler.next_state(&mut sample_rng))
            .collect();
        let mut expect = seq.clone();
        out.sort_unstable();
        expect.sort_unstable();
        assert_eq!(out, expect, "case {case}");
    }
}

#[test]
fn profile_synthesis_preserves_counts() {
    let mut rng = Prng::seed_from_u64(0x0005);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng, 120);
        let seed = rng.gen_range(0..100u64);
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100_000));
        let synth = profile.synthesize(seed);
        assert_eq!(synth.len(), trace.len(), "case {case}");
        assert_eq!(synth.reads(), trace.reads(), "case {case}");
        // Timestamps are non-decreasing.
        assert!(synth
            .requests()
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
        // Synthesized footprint stays inside the original footprint.
        if let Some(fp) = trace.footprint_range() {
            for r in synth.iter() {
                assert!(fp.contains(r.address), "case {case}");
            }
        }
    }
}

#[test]
fn profile_codec_round_trips() {
    let mut rng = Prng::seed_from_u64(0x0006);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng, 100);
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100_000));
        let mut buf = Vec::new();
        profile.write(&mut buf).unwrap();
        let back = Profile::read(&mut buf.as_slice(), &DecodeOptions::default()).unwrap();
        assert_eq!(back, profile, "case {case}");
    }
}

#[test]
fn wrap_always_lands_inside() {
    let mut rng = Prng::seed_from_u64(0x0007);
    for case in 0..CASES {
        let start = rng.gen_range(0..1_000_000u64);
        let len = rng.gen_range(1..100_000u64);
        let addr = rng.next_u64();
        let range = AddrRange::from_start_size(start * 16, len);
        assert!(range.contains(range.wrap(addr)), "case {case}");
    }
}

#[test]
fn dram_conserves_bursts() {
    let mut rng = Prng::seed_from_u64(0x0008);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng, 120);
        let mapping = DramConfig::default().mapping();
        let expected: u64 = trace
            .iter()
            .map(|r| mapping.bursts(r.address, r.size).count() as u64)
            .sum();
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        assert_eq!(
            stats.total_read_bursts() + stats.total_write_bursts(),
            expected,
            "case {case}"
        );
        for ch in stats.channels() {
            assert_eq!(ch.read_row_hits + ch.read_row_misses, ch.read_bursts);
            assert_eq!(ch.write_row_hits + ch.write_row_misses, ch.write_bursts);
        }
    }
}

#[test]
fn cache_conserves_accesses() {
    use mocktails::cache::CacheHierarchy;
    let mut rng = Prng::seed_from_u64(0x0009);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng, 150);
        let stats = CacheHierarchy::paper_config(16 << 10, 2).run_trace(&trace);
        assert_eq!(
            stats.l1.hits + stats.l1.misses,
            stats.l1.accesses,
            "case {case}"
        );
        assert!(stats.l1.write_backs <= stats.l1.replacements, "case {case}");
        assert!(stats.l2.accesses >= stats.l1.misses, "case {case}");
    }
}
