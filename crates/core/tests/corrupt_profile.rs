//! Corrupt-input decode matrix and golden regression for the profile codec.
//!
//! Each test hand-crafts one specific corruption and asserts the *typed*
//! error it must produce — not just "some error". The golden fixture at
//! the bottom pins exact bytes to an exact error string, so an accidental
//! change in decode behaviour (accepting garbage, or reporting a different
//! failure) shows up as a test diff.

use mocktails_core::profile::{read_profile, read_profile_with, write_profile};
use mocktails_core::{HierarchyConfig, Profile, ProfileError};
use mocktails_trace::codec::{write_i64, write_u64};
use mocktails_trace::{DecodeOptions, Request, Trace, TraceError};

fn decode(bytes: &[u8]) -> Result<Profile, ProfileError> {
    read_profile(&mut &bytes[..])
}

fn encoded_sample() -> Vec<u8> {
    let trace: Trace = (0..100u64)
        .map(|i| Request::read(i * 3, 0x4000 + (i % 16) * 64, 64))
        .collect();
    let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(200));
    let mut buf = Vec::new();
    write_profile(&mut buf, &profile);
    buf
}

/// Header for hand-built bodies: magic, version, one SpatialDynamic layer,
/// strict-convergence options byte.
fn header() -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"MPRO\x01");
    write_u64(&mut buf, 1);
    buf.push(3);
    write_u64(&mut buf, 0);
    buf.push(0b01);
    buf
}

/// Appends leaf metadata (start_time, start_addr, range_start, range_len,
/// count) to a hand-built body.
fn push_leaf_meta(buf: &mut Vec<u8>, meta: [u64; 5]) {
    for v in meta {
        write_u64(buf, v);
    }
}

#[test]
fn truncated_magic_is_unexpected_eof() {
    for len in 0..4 {
        let err = decode(&b"MPRO"[..len]).unwrap_err();
        match err {
            ProfileError::Codec(TraceError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "len {len}");
            }
            other => panic!("len {len}: expected EOF, got {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_is_corrupt() {
    let err = decode(b"MTRC\x01").unwrap_err();
    assert!(
        matches!(&err, ProfileError::Corrupt(m) if m.contains("magic")),
        "{err:?}"
    );
}

#[test]
fn wrong_version_byte_is_corrupt() {
    let mut bytes = encoded_sample();
    bytes[4] = 0x7f;
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Corrupt(m) if m.contains("version 127")),
        "{err:?}"
    );
}

#[test]
fn varint_overflow_is_corrupt() {
    // An 11-byte continuation run cannot fit in u64: the layer count slot
    // is fed 0xFF forever.
    let mut bytes = b"MPRO\x01".to_vec();
    bytes.extend_from_slice(&[0xff; 11]);
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Codec(TraceError::Corrupt(m)) if m.contains("varint overflows")),
        "{err:?}"
    );
}

#[test]
fn declared_count_beyond_payload_is_eof() {
    // A modest leaf count with no leaf bytes behind it: decode must stop at
    // EOF, not fabricate leaves.
    let mut bytes = header();
    write_u64(&mut bytes, 5);
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Codec(TraceError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "{err:?}"
    );
}

#[test]
fn zero_layer_count_is_corrupt() {
    let mut bytes = b"MPRO\x01".to_vec();
    write_u64(&mut bytes, 0);
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Corrupt(m) if m.contains("zero layer count")),
        "{err:?}"
    );
}

#[test]
fn zero_leaf_request_count_is_corrupt() {
    let mut bytes = header();
    write_u64(&mut bytes, 1);
    push_leaf_meta(&mut bytes, [0, 0, 0, 64, 0]); // count = 0
    for _ in 0..4 {
        bytes.push(0); // constant models
        write_i64(&mut bytes, 0);
    }
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Corrupt(m) if m.contains("zero requests")),
        "{err:?}"
    );
}

#[test]
fn leaf_start_outside_range_is_corrupt() {
    let mut bytes = header();
    write_u64(&mut bytes, 1);
    push_leaf_meta(&mut bytes, [0, 0x9999, 0, 64, 3]); // start addr ∉ [0, 64)
    for _ in 0..4 {
        bytes.push(0);
        write_i64(&mut bytes, 0);
    }
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Corrupt(m) if m.contains("outside its range")),
        "{err:?}"
    );
}

#[test]
fn zero_markov_transition_count_is_corrupt() {
    // The counts analog of a non-positive probability: a declared edge that
    // was never observed.
    let mut bytes = header();
    write_u64(&mut bytes, 1);
    push_leaf_meta(&mut bytes, [0, 0, 0, 64, 3]);
    bytes.push(1); // markov delta-time
    write_i64(&mut bytes, 0);
    write_u64(&mut bytes, 1); // one state
    write_i64(&mut bytes, 0);
    write_u64(&mut bytes, 1); // one edge
    write_i64(&mut bytes, 4);
    write_u64(&mut bytes, 0); // count 0
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Corrupt(m) if m.contains("zero transition count")),
        "{err:?}"
    );
}

#[test]
fn overflowing_markov_row_is_rejected() {
    // Two edges of 2^63 each: the row total (and hence the normalized
    // probability mass) overflows u64 — the counts analog of a NaN row.
    let mut bytes = header();
    write_u64(&mut bytes, 1);
    push_leaf_meta(&mut bytes, [0, 0, 0, 64, 3]);
    bytes.push(1); // markov delta-time
    write_i64(&mut bytes, 0);
    write_u64(&mut bytes, 1); // one state
    write_i64(&mut bytes, 0);
    write_u64(&mut bytes, 2); // two edges
    for to in [1i64, 2] {
        write_i64(&mut bytes, to);
        write_u64(&mut bytes, 1u64 << 63);
    }
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Corrupt(m) if m.contains("overflow")),
        "{err:?}"
    );
}

#[test]
fn a_row_fault_waits_for_the_rest_of_its_chain() {
    // The first of two declared rows overflows, and the input ends before
    // the second: the short input is reported, because a chain's fault is
    // reported only once all of the chain's bytes are read.
    let mut bytes = header();
    write_u64(&mut bytes, 1);
    push_leaf_meta(&mut bytes, [0, 0, 0, 64, 3]);
    bytes.push(1); // markov delta-time
    write_i64(&mut bytes, 0);
    write_u64(&mut bytes, 2); // two states, only the first present
    write_i64(&mut bytes, 0);
    write_u64(&mut bytes, 2);
    for to in [1i64, 2] {
        write_i64(&mut bytes, to);
        write_u64(&mut bytes, 1u64 << 63);
    }
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Codec(TraceError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "{err:?}"
    );
}

#[test]
fn overflowing_request_total_is_invalid_only_when_validating() {
    // Two well-formed leaves of 2^63 requests each: every leaf and chain
    // is fine, only their total overflows u64.
    let mut bytes = header();
    write_u64(&mut bytes, 2);
    for _ in 0..2 {
        push_leaf_meta(&mut bytes, [0, 0, 0, 64, 1 << 63]);
        for _ in 0..4 {
            bytes.push(0);
            write_i64(&mut bytes, 0);
        }
    }
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(&err, ProfileError::Invalid(m) if m == "total request count overflows u64"),
        "{err:?}"
    );
    let trusted = read_profile_with(&mut &bytes[..], &DecodeOptions::trusted()).unwrap();
    assert_eq!(trusted.leaves().len(), 2);
    assert!(matches!(
        trusted.validate(),
        Err(ProfileError::Invalid(m)) if m == "total request count overflows u64"
    ));
    // Cut inside the second leaf, the short input is reported instead.
    let err = decode(&bytes[..bytes.len() - 1]).unwrap_err();
    assert!(
        matches!(err, ProfileError::Codec(TraceError::Io(_))),
        "{err:?}"
    );
}

#[test]
fn unknown_mcc_tag_is_corrupt() {
    let mut bytes = header();
    write_u64(&mut bytes, 1);
    push_leaf_meta(&mut bytes, [0, 0, 0, 64, 3]);
    bytes.push(9); // no such model tag
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(
            &err,
            ProfileError::UnknownTag {
                what: "McC",
                tag: 9
            }
        ),
        "{err:?}"
    );
}

#[test]
fn unknown_layer_tag_is_corrupt() {
    let mut bytes = b"MPRO\x01".to_vec();
    write_u64(&mut bytes, 1);
    bytes.push(200);
    write_u64(&mut bytes, 1);
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(
            &err,
            ProfileError::UnknownTag {
                what: "layer",
                tag: 200
            }
        ),
        "{err:?}"
    );
}

/// Golden regression: exact fixture bytes → exact error string.
///
/// The fixture is a hostile profile declaring 2^60 leaves after a valid
/// header. Both the byte layout and the rendered error are pinned; if
/// either changes, this test fails and the change must be deliberate.
#[test]
fn golden_corrupt_fixture_pins_bytes_and_error() {
    const FIXTURE: &[u8] = &[
        b'M', b'P', b'R', b'O', // magic
        0x01, // version
        0x01, // layer count = 1
        0x03, // SpatialDynamic
        0x00, // layer parameter = 0
        0x01, // options: strict convergence
        // leaf count = 2^60 as LEB128
        0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10,
    ];
    let err = decode(FIXTURE).unwrap_err();
    assert_eq!(
        err.to_string(),
        "codec error: declared leaves count 1152921504606846976 exceeds decode limit 16777216"
    );
}

/// The hostile declaration above must be rejected quickly and without
/// allocating in proportion to the declared count (acceptance criterion:
/// < 1 s, bounded memory).
#[test]
fn hostile_declaration_fails_fast() {
    let mut bytes = header();
    write_u64(&mut bytes, 1 << 60);
    let start = std::time::Instant::now();
    assert!(decode(&bytes).is_err());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(1),
        "took {:?}",
        start.elapsed()
    );
}
