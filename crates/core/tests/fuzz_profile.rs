//! Tier-1 seeded fuzz gate for the profile codec.
//!
//! Mirrors `crates/trace/tests/fuzz_trace.rs`: thousands of
//! deterministically mutated profile encodings are decoded; each must
//! either decode cleanly — and then validate, round-trip canonically and
//! synthesize safely — or fail with a typed [`ProfileError`]. A panic,
//! abort or unbounded allocation anywhere fails the suite.

use mocktails_core::profile::{read_profile, write_profile};
use mocktails_core::{HierarchyConfig, ModelOptions, Profile, ProfileError, ProfileRecord};
use mocktails_pool::Parallelism;
use mocktails_trace::{fnv1a, fuzz, DecodeOptions, Request, Trace};

/// Fixed campaign seed; keep stable so CI failures replay locally.
const FUZZ_SEED: u64 = 0x4d50_524f_0000_0001; // "MPRO" | campaign 1

/// Cases per corpus entry; the corpus has 4 entries, so ≥ 2000 total.
const CASES_PER_ENTRY: usize = 600;

/// Accepted mutants are only synthesized when their total request count is
/// small; a mutation that inflates a leaf count to billions must not turn
/// the gate into an endurance test.
const SYNTH_BUDGET: u64 = 50_000;

fn corpus() -> Vec<Vec<u8>> {
    let patterned: Trace = (0..400u64)
        .map(|i| {
            let addr = 0x8000_0000 + (i % 13) * 64 + (i / 100) * 0x10_0000;
            if i % 5 == 0 {
                Request::write(i * 11, addr, 128)
            } else {
                Request::read(i * 11, addr, 64)
            }
        })
        .collect();
    let stochastic: Trace = {
        let offsets = [0u64, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        offsets
            .iter()
            .cycle()
            .take(300)
            .enumerate()
            .map(|(i, &o)| Request::read(i as u64 * 7, 0x1000 + o * 64, 64))
            .collect()
    };
    let tiny: Trace = vec![Request::read(0, 0x40, 32)].into_iter().collect();
    let profiles = [
        Profile::fit(&patterned, &HierarchyConfig::two_level_ts(500)),
        Profile::fit(&stochastic, &HierarchyConfig::two_level_ts(100)),
        Profile::fit(
            &tiny,
            &HierarchyConfig::two_level_requests_fixed(100, 4096).with_options(ModelOptions {
                strict_convergence: false,
                merge_lonely: false,
                merge_similar: false,
            }),
        ),
        Profile::fit(&Trace::new(), &HierarchyConfig::two_level_ts(100)),
    ];
    profiles
        .iter()
        .map(|p| {
            let mut buf = Vec::new();
            write_profile(&mut buf, p);
            buf
        })
        .collect()
}

#[test]
fn mutated_profiles_decode_cleanly_or_fail_typed() {
    // Fans out across the session's thread count; every mutated case (and
    // the final report) is identical at any MOCKTAILS_THREADS.
    let report = fuzz::run_parallel(
        Parallelism::current(),
        &corpus(),
        CASES_PER_ENTRY,
        FUZZ_SEED,
        |bytes| match read_profile(&mut &bytes[..]) {
            Ok(profile) => {
                // Decode implies validity...
                profile.validate().expect("decoded profile must validate");
                // ...and canonical round-trip stability.
                let mut re = Vec::new();
                write_profile(&mut re, &profile);
                let again = read_profile(&mut re.as_slice()).unwrap();
                assert_eq!(again, profile, "canonical round-trip diverged");
                // ...and bounded synthesis must succeed, not panic or loop.
                if profile.total_requests() <= SYNTH_BUDGET {
                    let trace = profile.try_synthesize(7).expect("validated synth");
                    assert_eq!(trace.len() as u64, profile.total_requests());
                }
                true
            }
            Err(
                ProfileError::Codec(_)
                | ProfileError::Corrupt(_)
                | ProfileError::Invalid(_)
                | ProfileError::UnknownTag { .. },
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

#[test]
fn spliced_profiles_with_trace_bytes_never_panic() {
    // Cross-format splicing: profile headers with trace payload fragments
    // and vice versa — a realistic mixed-up-files failure mode.
    let mut corpus = corpus();
    let trace: Trace = (0..100u64)
        .map(|i| Request::read(i, 0x2000 + i * 64, 64))
        .collect();
    let mut trace_bytes = Vec::new();
    mocktails_trace::codec::write_trace(&mut trace_bytes, &trace).unwrap();
    corpus.push(trace_bytes);
    let report = fuzz::run_parallel(
        Parallelism::current(),
        &corpus,
        200,
        FUZZ_SEED ^ 0x0051_1ce5,
        |bytes| read_profile(&mut &bytes[..]).is_ok(),
    );
    assert!(report.cases >= 1000);
    assert!(report.rejected > 0, "{report:?}");
}

#[test]
fn mutated_profile_records_decode_cleanly_or_fail_typed() {
    // Store records around each corpus profile, with and without a fit
    // key. Framing damage must be a typed `Corrupt`; an accepted record
    // is canonical and carries bytes matching its fingerprint, and its
    // profile then decodes or fails typed like any other.
    let records: Vec<Vec<u8>> = corpus()
        .into_iter()
        .enumerate()
        .map(|(i, profile_bytes)| {
            ProfileRecord {
                fingerprint: fnv1a(&profile_bytes),
                fit_key: (i % 2 == 0).then_some(0x5eed_0000 + i as u64),
                profile_bytes,
            }
            .encode()
        })
        .collect();
    let report = fuzz::run_parallel(
        Parallelism::current(),
        &records,
        CASES_PER_ENTRY,
        FUZZ_SEED ^ 0x5245_4344, // "RECD"
        |bytes| match ProfileRecord::decode(bytes) {
            Ok(record) => {
                assert_eq!(record.encode(), bytes, "record framing is not canonical");
                assert_eq!(fnv1a(&record.profile_bytes), record.fingerprint);
                let _ = record.decode_profile(&DecodeOptions::default());
                true
            }
            Err(ProfileError::Corrupt(_)) => false,
            Err(other) => panic!("record framing failed with a non-Corrupt error: {other:?}"),
        },
    );
    assert!(report.cases >= 2000, "only {} cases ran", report.cases);
    assert!(report.accepted > 0 && report.rejected > 0, "{report:?}");
}
