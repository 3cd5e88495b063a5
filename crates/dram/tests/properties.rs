//! Randomized property tests of the DRAM model's structural invariants,
//! driven by the workspace's deterministic PRNG so the suite builds
//! hermetically.

use mocktails_dram::{DramConfig, MemorySystem, PagePolicy, SchedulingPolicy};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{Op, Request, Trace};

const CASES: u64 = 48;

fn rand_request(rng: &mut Prng) -> Request {
    let t = rng.gen_range(0..200_000u64);
    let addr = rng.gen_range(0..0x20_0000u64);
    let op = if rng.gen_bool(0.5) {
        Op::Write
    } else {
        Op::Read
    };
    let size = [16u32, 32, 64, 128, 256][rng.gen_range(0..5usize)];
    Request::new(t, addr & !0xf, op, size)
}

fn rand_trace(rng: &mut Prng) -> Trace {
    let n = rng.gen_range(1..150usize);
    Trace::from_requests((0..n).map(|_| rand_request(rng)).collect())
}

#[test]
fn mapping_decode_is_stable_within_a_burst() {
    let mut rng = Prng::seed_from_u64(0xD4A1_0001);
    let m = DramConfig::default().mapping();
    for case in 0..CASES {
        let base = (rng.next_u64() >> 1) & !31;
        let offset = rng.gen_range(0..32u64);
        assert_eq!(m.decode(base), m.decode(base + offset), "case {case}");
    }
}

#[test]
fn bursts_cover_the_request_exactly() {
    let mut rng = Prng::seed_from_u64(0xD4A1_0002);
    let m = DramConfig::default().mapping();
    for case in 0..CASES {
        let addr = rng.gen_range(0..1_000_000u64);
        let size = rng.gen_range(1..4096u32);
        let bursts: Vec<u64> = m.bursts(addr, size).collect();
        // First burst contains the start, last contains the final byte.
        assert!(bursts[0] <= addr && addr < bursts[0] + 32, "case {case}");
        let end = addr + u64::from(size) - 1;
        let last = *bursts.last().unwrap();
        assert!(last <= end && end < last + 32, "case {case}");
        // Bursts are consecutive and aligned.
        for w in bursts.windows(2) {
            assert_eq!(w[1] - w[0], 32, "case {case}");
        }
        assert!(bursts.iter().all(|b| b % 32 == 0), "case {case}");
    }
}

#[test]
fn conservation_holds_under_every_policy() {
    let mut rng = Prng::seed_from_u64(0xD4A1_0003);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng);
        for page in [
            PagePolicy::OpenAdaptive,
            PagePolicy::Open,
            PagePolicy::Closed,
        ] {
            for sched in [SchedulingPolicy::FrFcfs, SchedulingPolicy::Fcfs] {
                let config = DramConfig {
                    page_policy: page,
                    scheduling: sched,
                    ..DramConfig::default()
                };
                let expected: u64 = trace
                    .iter()
                    .map(|r| config.mapping().bursts(r.address, r.size).count() as u64)
                    .sum();
                let stats = MemorySystem::new(config).run_trace(&trace);
                assert_eq!(
                    stats.total_read_bursts() + stats.total_write_bursts(),
                    expected,
                    "case {case}"
                );
                for ch in stats.channels() {
                    assert_eq!(ch.read_row_hits + ch.read_row_misses, ch.read_bursts);
                    assert_eq!(ch.write_row_hits + ch.write_row_misses, ch.write_bursts);
                    assert_eq!(ch.read_bursts_per_bank.iter().sum::<u64>(), ch.read_bursts);
                }
            }
        }
    }
}

#[test]
fn closed_page_never_hits() {
    let mut rng = Prng::seed_from_u64(0xD4A1_0004);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng);
        let config = DramConfig {
            page_policy: PagePolicy::Closed,
            ..DramConfig::default()
        };
        let stats = MemorySystem::new(config).run_trace(&trace);
        assert_eq!(stats.total_read_row_hits(), 0, "case {case}");
        assert_eq!(stats.total_write_row_hits(), 0, "case {case}");
    }
}

#[test]
fn open_page_hits_at_least_as_often_as_closed() {
    let mut rng = Prng::seed_from_u64(0xD4A1_0005);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng);
        let hits = |page: PagePolicy| {
            let config = DramConfig {
                page_policy: page,
                ..DramConfig::default()
            };
            let s = MemorySystem::new(config).run_trace(&trace);
            s.total_read_row_hits() + s.total_write_row_hits()
        };
        assert!(
            hits(PagePolicy::Open) >= hits(PagePolicy::Closed),
            "case {case}"
        );
    }
}

#[test]
fn latency_includes_crossbar_minimum() {
    let mut rng = Prng::seed_from_u64(0xD4A1_0006);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng);
        let config = DramConfig::default();
        let stats = MemorySystem::new(config).run_trace(&trace);
        let floor = (config.xbar_latency + config.timing.t_cl + config.timing.t_burst) as f64;
        assert!(stats.avg_access_latency() >= floor, "case {case}");
    }
}

#[test]
fn replay_is_deterministic() {
    let mut rng = Prng::seed_from_u64(0xD4A1_0007);
    for case in 0..CASES {
        let trace = rand_trace(&mut rng);
        let a = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        let b = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        assert_eq!(a, b, "case {case}");
    }
}
