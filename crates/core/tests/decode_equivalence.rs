//! Positive-path equivalence of the profile decoder.
//!
//! `tests/decode_errors.rs` pins what the decoder rejects; this suite
//! covers what it accepts. Every input is encoded twice: canonically, by
//! `write_profile`, and with each Markov chain's rows in a shuffled order,
//! by a writer local to this file that otherwise follows the same layout.
//! Under both [`DecodeOptions`], each encoding must decode back to the
//! profile it came from, and re-encoding the result must give the
//! canonical bytes.

use std::collections::BTreeMap;

use mocktails_core::profile::{read_profile_with, write_profile};
use mocktails_core::{HierarchyConfig, LeafModel, MarkovChain, McC, ModelOptions, Profile};
use mocktails_trace::codec::{write_i64, write_u64};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{AddrRange, DecodeOptions};
use mocktails_workloads::catalog;

fn encode(profile: &Profile) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_profile(&mut bytes, profile);
    bytes
}

/// Encodes `profile` with the rows of each Markov chain written in the
/// order `order(rows)` gives (a permutation of `0..rows`).
fn encode_with_row_order(profile: &Profile, mut order: impl FnMut(usize) -> Vec<usize>) -> Vec<u8> {
    // The header and configuration are those of the same profile without
    // leaves, whose encoding ends in a one-byte leaf count of zero.
    let mut bytes = encode(&Profile::from_parts(profile.config().clone(), Vec::new()));
    assert_eq!(bytes.pop(), Some(0));
    write_u64(&mut bytes, profile.leaves().len() as u64);
    for leaf in profile.leaves() {
        for value in [
            leaf.start_time(),
            leaf.start_address(),
            leaf.range().start(),
            leaf.range().len(),
            leaf.count(),
        ] {
            write_u64(&mut bytes, value);
        }
        for model in [
            leaf.delta_time_model(),
            leaf.stride_model(),
            leaf.op_model(),
            leaf.size_model(),
        ] {
            match model {
                McC::Constant(value) => {
                    bytes.push(0);
                    write_i64(&mut bytes, *value);
                }
                McC::Markov(chain) => {
                    bytes.push(1);
                    write_i64(&mut bytes, chain.initial());
                    let rows: Vec<_> = chain.rows().collect();
                    write_u64(&mut bytes, rows.len() as u64);
                    for row in order(rows.len()) {
                        let (from, edges) = rows[row];
                        write_i64(&mut bytes, from);
                        write_u64(&mut bytes, edges.len() as u64);
                        for &(to, count) in edges {
                            write_i64(&mut bytes, to);
                            write_u64(&mut bytes, count);
                        }
                    }
                }
            }
        }
    }
    bytes
}

/// Asserts that `bytes` decodes to `profile` under both options, and that
/// the decoded profile re-encodes to the canonical bytes.
fn assert_decodes_to(bytes: &[u8], profile: &Profile, what: &str) {
    let canonical = encode(profile);
    for options in [DecodeOptions::default(), DecodeOptions::trusted()] {
        let mut input = bytes;
        let decoded = read_profile_with(&mut input, &options)
            .unwrap_or_else(|e| panic!("{what} ({options:?}): {e}"));
        assert!(input.is_empty(), "{what}: {} bytes left", input.len());
        assert!(decoded == *profile, "{what} ({options:?}): decoded differs");
        assert!(
            encode(&decoded) == canonical,
            "{what} ({options:?}): re-encoding differs"
        );
    }
}

/// Checks `profile` written canonically, with every chain's rows
/// reversed, and with each chain's rows in a seeded random order.
fn check(profile: &Profile, rng: &mut Prng, what: &str) {
    let canonical = encode(profile);
    assert_eq!(
        encode_with_row_order(profile, |rows| (0..rows).collect()),
        canonical,
        "{what}: the local writer disagrees with write_profile"
    );
    assert_decodes_to(&canonical, profile, what);
    let reversed = encode_with_row_order(profile, |rows| (0..rows).rev().collect());
    assert_decodes_to(&reversed, profile, &format!("{what}, rows reversed"));
    let shuffled = encode_with_row_order(profile, |rows| {
        let mut order: Vec<usize> = (0..rows).collect();
        for i in (1..rows).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    });
    assert_decodes_to(&shuffled, profile, &format!("{what}, rows shuffled"));
}

#[test]
fn every_table_ii_profile_decodes_to_itself() {
    let config = HierarchyConfig::two_level_ts(500_000);
    let mut rng = Prng::seed_from_u64(0x5441_424c_4532);
    for spec in catalog::all() {
        let profile = Profile::fit(&spec.generate(), &config);
        check(&profile, &mut rng, spec.name());
    }
}

/// States a random chain draws from: the extremes, small values and
/// multi-byte varints of both signs.
const STATES: [i64; 10] = [
    i64::MIN,
    i64::MIN + 1,
    -4096,
    -1,
    0,
    1,
    64,
    1 << 40,
    i64::MAX - 1,
    i64::MAX,
];

/// A random chain: one to six rows of one to four edges, whose successors
/// include terminal states (states without a row of their own).
fn random_chain(rng: &mut Prng) -> MarkovChain {
    let pick = |rng: &mut Prng| {
        if rng.gen_range(0..4) == 0 {
            rng.gen_range(-1_000_000..1_000_000i64)
        } else {
            STATES[rng.gen_range(0..STATES.len())]
        }
    };
    let mut rows = BTreeMap::new();
    for _ in 0..rng.gen_range(1..=6) {
        let from = pick(rng);
        let mut edges = BTreeMap::new();
        for _ in 0..rng.gen_range(1..=4) {
            let count = match rng.gen_range(0..8) {
                0 => rng.gen_range(1..1u64 << 40),
                _ => rng.gen_range(1..=50),
            };
            edges.insert(pick(rng), count);
        }
        rows.insert(from, edges.into_iter().collect());
    }
    MarkovChain::from_parts(pick(rng), rows)
}

fn random_mcc(rng: &mut Prng) -> McC {
    if rng.gen_range(0..3) == 0 {
        McC::Constant(STATES[rng.gen_range(0..STATES.len())])
    } else {
        McC::Markov(random_chain(rng))
    }
}

fn random_profile(rng: &mut Prng) -> Profile {
    let options = ModelOptions {
        strict_convergence: rng.gen_range(0..2) == 0,
        merge_lonely: rng.gen_range(0..2) == 0,
        merge_similar: rng.gen_range(0..2) == 0,
    };
    let config = match rng.gen_range(0..3) {
        0 => HierarchyConfig::two_level_ts(rng.gen_range(1..1_000_000)),
        1 => HierarchyConfig::two_level_requests_fixed(rng.gen_range(1..10_000), 4096),
        _ => HierarchyConfig::two_level_st(rng.gen_range(1..64)),
    }
    .with_options(options);
    let leaves = (0..rng.gen_range(0..12))
        .map(|_| {
            let start = rng.gen_range(0..1u64 << 48);
            let range = AddrRange::from_start_size(start, rng.gen_range(1..1u64 << 20));
            LeafModel::from_parts(
                rng.gen_range(0..1u64 << 40),
                start + rng.gen_range(0..range.len()),
                range,
                rng.gen_range(1..10_000),
                random_mcc(rng),
                random_mcc(rng),
                random_mcc(rng),
                random_mcc(rng),
            )
        })
        .collect();
    Profile::from_parts(config, leaves)
}

#[test]
fn random_profiles_decode_to_themselves() {
    let mut rng = Prng::seed_from_u64(0x4d50_524f_0000_0002);
    for case in 0..200 {
        let profile = random_profile(&mut rng);
        profile.validate().unwrap();
        check(&profile, &mut rng, &format!("random profile {case}"));
    }
}
