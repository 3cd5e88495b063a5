//! Randomized property tests of the trace crate's invariants, driven by
//! the workspace's own deterministic PRNG (hermetic: no external crates).
//!
//! Each test sweeps a fixed number of seeded cases; a failure message
//! includes the case seed so the exact input can be replayed.

use mocktails_trace::codec::{
    read_csv, unzigzag, write_csv, write_i64, write_u64, zigzag, ByteCursor,
};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{AddrRange, BinnedCounts, Op, Request, Trace};

const CASES: u64 = 128;

fn rand_request(rng: &mut Prng) -> Request {
    let t = u64::from(rng.next_u64() as u32);
    // Keep end_address from overflowing.
    let addr = rng.next_u64() >> 1;
    let op = if rng.gen_bool(0.5) {
        Op::Write
    } else {
        Op::Read
    };
    let size = rng.gen_range(1..100_000u32);
    Request::new(t, addr, op, size)
}

fn rand_requests(rng: &mut Prng, min: usize, max: usize) -> Vec<Request> {
    let n = rng.gen_range(min..max);
    (0..n).map(|_| rand_request(rng)).collect()
}

#[test]
fn varint_u64_round_trips() {
    let mut rng = Prng::seed_from_u64(0x7ACE_0001);
    for case in 0..CASES {
        let v = rng.next_u64() >> rng.gen_range(0..64u32);
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        assert!(
            buf.len() <= 10,
            "case {case}: {v} encoded to {} bytes",
            buf.len()
        );
        let v_back = ByteCursor::new(&mut buf.as_slice()).varint().unwrap();
        assert_eq!(v_back, v, "case {case}");
    }
}

#[test]
fn varint_i64_round_trips() {
    let mut rng = Prng::seed_from_u64(0x7ACE_0002);
    for case in 0..CASES {
        let v = (rng.next_u64() >> rng.gen_range(0..64u32)) as i64;
        let v = if rng.gen_bool(0.5) {
            v
        } else {
            v.wrapping_neg()
        };
        let mut buf = Vec::new();
        write_i64(&mut buf, v);
        let v_back = ByteCursor::new(&mut buf.as_slice()).zigzag().unwrap();
        assert_eq!(v_back, v, "case {case}");
    }
}

#[test]
fn zigzag_is_a_bijection() {
    let mut rng = Prng::seed_from_u64(0x7ACE_0003);
    for case in 0..CASES {
        let v = rng.next_u64() as i64;
        assert_eq!(unzigzag(zigzag(v)), v, "case {case}");
    }
    for v in [i64::MIN, -1, 0, 1, i64::MAX] {
        assert_eq!(unzigzag(zigzag(v)), v);
    }
}

#[test]
fn zigzag_orders_by_magnitude() {
    // Smaller magnitudes never encode longer than larger ones.
    let mut rng = Prng::seed_from_u64(0x7ACE_0004);
    let len = |v: i64| {
        let mut buf = Vec::new();
        write_i64(&mut buf, v);
        buf.len()
    };
    for case in 0..CASES {
        let a = rng.gen_range(-1_000_000..1_000_000i64);
        let b = rng.gen_range(-1_000_000..1_000_000i64);
        if a.unsigned_abs() < b.unsigned_abs() {
            assert!(len(a) <= len(b), "case {case}: len({a}) > len({b})");
        }
    }
}

#[test]
fn csv_round_trips() {
    let mut rng = Prng::seed_from_u64(0x7ACE_0005);
    for case in 0..CASES {
        let trace = Trace::from_requests(rand_requests(&mut rng, 0, 100));
        let mut buf = Vec::new();
        write_csv(&mut buf, &trace).unwrap();
        let back = read_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back, trace, "case {case}");
    }
}

#[test]
fn trace_invariants() {
    let mut rng = Prng::seed_from_u64(0x7ACE_0006);
    for case in 0..CASES {
        let reqs = rand_requests(&mut rng, 1, 200);
        let trace = Trace::from_requests(reqs.clone());
        assert_eq!(trace.len(), reqs.len(), "case {case}");
        assert_eq!(trace.reads() + trace.writes(), trace.len(), "case {case}");
        assert!(trace
            .requests()
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
        let fp = trace.footprint_range().unwrap();
        for r in trace.iter() {
            assert!(fp.contains_range(&r.range()), "case {case}");
        }
    }
}

#[test]
fn binned_counts_conserve_requests() {
    let mut rng = Prng::seed_from_u64(0x7ACE_0007);
    for case in 0..CASES {
        let trace = Trace::from_requests(rand_requests(&mut rng, 1, 200));
        let width = rng.gen_range(1..1_000_000u64);
        let bins = BinnedCounts::from_trace(&trace, width);
        assert_eq!(
            bins.counts().iter().sum::<usize>(),
            trace.len(),
            "case {case}"
        );
        assert!(bins.peak() <= trace.len(), "case {case}");
    }
}

#[test]
fn decoder_never_panics_on_arbitrary_bytes() {
    // Any input must yield Ok or Err — never a panic.
    let mut rng = Prng::seed_from_u64(0x7ACE_0009);
    for _ in 0..CASES {
        let n = rng.gen_range(0..256usize);
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = mocktails_trace::codec::read_trace(&mut bytes.as_slice());
        let _ = mocktails_trace::codec::read_csv(&mut bytes.as_slice());
    }
}

#[test]
fn decoder_never_panics_on_corrupted_valid_traces() {
    let mut rng = Prng::seed_from_u64(0x7ACE_000A);
    for _ in 0..CASES {
        let trace = Trace::from_requests(rand_requests(&mut rng, 1, 40));
        let mut buf = Vec::new();
        mocktails_trace::codec::write_trace(&mut buf, &trace).unwrap();
        let idx = rng.gen_range(0..buf.len());
        buf[idx] ^= (rng.next_u64() as u8) | 1; // guarantee a change
        let _ = mocktails_trace::codec::read_trace(&mut buf.as_slice());
    }
}

#[test]
fn range_union_contains_both() {
    let mut rng = Prng::seed_from_u64(0x7ACE_000B);
    for case in 0..CASES {
        let ra = AddrRange::from_start_size(
            u64::from(rng.next_u64() as u32),
            rng.gen_range(1..1_000_000u64),
        );
        let rb = AddrRange::from_start_size(
            u64::from(rng.next_u64() as u32),
            rng.gen_range(1..1_000_000u64),
        );
        let u = ra.union(&rb);
        assert!(u.contains_range(&ra), "case {case}");
        assert!(u.contains_range(&rb), "case {case}");
        assert!(u.len() >= ra.len().max(rb.len()), "case {case}");
    }
}

#[test]
fn range_intersection_is_symmetric_and_contained() {
    let mut rng = Prng::seed_from_u64(0x7ACE_000C);
    for case in 0..CASES {
        let ra = AddrRange::from_start_size(
            u64::from(rng.next_u64() as u32),
            rng.gen_range(1..1_000_000u64),
        );
        let rb = AddrRange::from_start_size(
            u64::from(rng.next_u64() as u32),
            rng.gen_range(1..1_000_000u64),
        );
        assert_eq!(ra.intersection(&rb), rb.intersection(&ra), "case {case}");
        if let Some(i) = ra.intersection(&rb) {
            assert!(ra.contains_range(&i), "case {case}");
            assert!(rb.contains_range(&i), "case {case}");
            assert!(ra.overlaps(&rb), "case {case}");
        } else {
            assert!(!ra.overlaps(&rb), "case {case}");
        }
    }
}
