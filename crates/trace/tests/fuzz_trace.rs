//! Tier-1 seeded fuzz gate for the trace codec.
//!
//! Thousands of deterministically mutated encodings are pushed through
//! `read_trace`: every case must either decode cleanly — and then
//! round-trip canonically — or return a typed error. A panic, abort or
//! unbounded allocation anywhere fails the suite.

use std::io::Read;

use mocktails_pool::Parallelism;
use mocktails_trace::codec::{read_trace, write_trace};
use mocktails_trace::fault::{FaultPlan, FaultyReader};
use mocktails_trace::{fuzz, DecodeLimits, DecodeOptions, Request, Trace, TraceError};

/// Fixed campaign seed: never change without a good reason — CI failures
/// replay locally only while the seed matches.
const FUZZ_SEED: u64 = 0x4d54_5243_0000_0001; // "MTRC" | campaign 1

/// Cases per corpus entry; the corpus has 4 entries, so ≥ 2000 total.
const CASES_PER_ENTRY: usize = 600;

fn corpus() -> Vec<Vec<u8>> {
    let sequential: Trace = (0..300u64)
        .map(|i| Request::read(i * 4, 0x1000 + i * 64, 64))
        .collect();
    let mixed: Trace = (0..200u64)
        .map(|i| {
            if i % 3 == 0 {
                Request::write(i * 7, 0x8000_0000 + (i % 16) * 128, 128)
            } else {
                Request::read(i * 7, 0x8000_0000u64.wrapping_sub(i * 32), 64)
            }
        })
        .collect();
    let sparse: Trace = (0..50u64)
        .map(|i| Request::read(i * 1_000_000, i * 0x10_0000, 32))
        .collect();
    let empty = Trace::new();
    [sequential, mixed, sparse, empty]
        .iter()
        .map(|t| {
            let mut buf = Vec::new();
            write_trace(&mut buf, t).unwrap();
            buf
        })
        .collect()
}

#[test]
fn mutated_traces_decode_cleanly_or_fail_typed() {
    // The campaign fans out across the session's thread count; the report
    // (and every mutated case) is identical at any MOCKTAILS_THREADS.
    let report = fuzz::run_parallel(
        Parallelism::current(),
        &corpus(),
        CASES_PER_ENTRY,
        FUZZ_SEED,
        |bytes| match read_trace(&mut &bytes[..]) {
            Ok(trace) => {
                // Accepted inputs must round-trip canonically: re-encoding
                // and re-decoding reproduces the same trace.
                let mut re = Vec::new();
                write_trace(&mut re, &trace).unwrap();
                let again = read_trace(&mut re.as_slice()).unwrap();
                assert_eq!(again, trace, "canonical round-trip diverged");
                true
            }
            Err(
                TraceError::Corrupt(_)
                | TraceError::Io(_)
                | TraceError::UnsupportedVersion { .. }
                | TraceError::LimitExceeded { .. },
            ) => false,
        },
    );
    assert!(report.cases >= 2000, "only {} cases ran", report.cases);
    assert!(
        report.rejected > 0,
        "campaign never exercised the reject path: {report:?}"
    );
    assert!(
        report.accepted > 0,
        "campaign never exercised the accept path: {report:?}"
    );
}

/// Reads all of `reader` the way a file-backed caller does before
/// decoding: `read_to_end`, then decode the slice.
fn read_through(mut reader: impl Read) -> Result<Trace, TraceError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    read_trace(&mut bytes.as_slice())
}

#[test]
fn decode_is_immune_to_benign_io_faults() {
    // Short reads and interrupted syscalls must be invisible: the decoded
    // trace is identical to a clean read for every seed.
    let base = &corpus()[1];
    let want = read_trace(&mut base.as_slice()).unwrap();
    for seed in 0..100u64 {
        let r = FaultyReader::new(base.as_slice(), FaultPlan::flaky(), seed);
        let got = read_through(r).unwrap();
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn decode_under_corruption_faults_never_panics() {
    let base = &corpus()[0];
    for seed in 0..300u64 {
        let plan = FaultPlan {
            bit_flip: 0.01,
            truncate_at: (seed % 3 == 0).then_some(seed * 7 % base.len() as u64),
            short_op: 0.3,
            ..FaultPlan::none()
        };
        let r = FaultyReader::new(base.as_slice(), plan, seed);
        // Ok or typed Err are both acceptable; a panic fails the test.
        let _ = read_through(r);
    }
}

#[test]
fn hostile_count_under_faults_stays_bounded() {
    // 2^60 declared requests + fault injection: still a fast typed error.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(b"MTRC\x01");
    mocktails_trace::codec::write_u64(&mut hostile, 1 << 60);
    for seed in 0..50u64 {
        let r = FaultyReader::new(hostile.as_slice(), FaultPlan::flaky(), seed);
        assert!(matches!(
            read_through(r),
            Err(TraceError::LimitExceeded { .. } | TraceError::Io(_))
        ));
    }
    let tight = DecodeLimits {
        max_requests: 10,
        ..DecodeLimits::default()
    };
    let options = DecodeOptions::new().with_limits(tight);
    let err = Trace::read(&mut hostile.as_slice(), &options).unwrap_err();
    assert!(matches!(err, TraceError::LimitExceeded { declared, .. } if declared == 1 << 60));
}
