//! Wire-protocol fuzzing: mutated frames and payloads must decode
//! cleanly or fail with a typed error — never panic (satellite of the
//! serving-layer PR, built on the PR 2 deterministic fuzz harness).

use mocktails_serve::frame::{read_frame, write_frame};
use mocktails_serve::protocol::{ProfileSource, Request, Response, PROTOCOL_VERSION};
use mocktails_serve::ServeError;
use mocktails_trace::fuzz;

const MAX_LEN: usize = 1 << 20;

/// A representative message corpus covering every request and response
/// tag, as framed byte streams.
fn corpus() -> Vec<Vec<u8>> {
    let requests = [
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
        Request::FitProfile {
            cycles: 500_000,
            trace_bytes: b"MTRC\x01\x02\x00\x00\x80\x01\x04\x40\x80\x01".to_vec(),
        },
        Request::Synthesize {
            seed: 42,
            chunk_len: 4096,
            source: ProfileSource::Fingerprint(0xdead_beef_cafe_f00d),
        },
        Request::Synthesize {
            seed: 7,
            chunk_len: 1,
            source: ProfileSource::Inline(vec![0x4d, 0x50, 0x52, 0x46, 1, 0]),
        },
        Request::Stats {
            source: ProfileSource::Fingerprint(1),
        },
        Request::Metricsz,
        Request::Shutdown,
        Request::Ack,
        Request::Cancel,
    ];
    let responses = [
        Response::HelloOk {
            version: PROTOCOL_VERSION,
        },
        Response::FitResult {
            fingerprint: 99,
            cache_hit: true,
            profile_bytes: vec![1, 2, 3, 4, 5, 6, 7, 8],
        },
        Response::SynthStart {
            total_requests: 1_000,
        },
        Response::SynthChunk {
            count: 3,
            records: vec![0x02, 0x00, 0x00, 0x80, 0x01, 0x04, 0x40, 0x80, 0x01],
        },
        Response::SynthEnd {
            total_requests: 1_000,
            fingerprint: 0x1234_5678,
        },
        Response::StatsText {
            text: "leaves 4\nrequests 100\n".into(),
        },
        Response::MetricsText {
            text: "requests_total 3\nuptime_micros 17\n".into(),
        },
        Response::ShutdownOk,
    ];
    let mut corpus = Vec::new();
    for payload in requests
        .iter()
        .map(Request::encode)
        .chain(responses.iter().map(|r| r.encode()))
    {
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("framing a small payload");
        corpus.push(framed);
    }
    corpus
}

/// Reads every frame in `bytes` and decodes each payload both ways;
/// `true` iff the whole stream was accepted.
fn decode_stream(bytes: &[u8]) -> bool {
    let mut cursor = bytes;
    let mut all_ok = true;
    loop {
        match read_frame(&mut cursor, MAX_LEN) {
            Ok(Some(payload)) => {
                // A mutated payload may be a valid request OR a valid
                // response (tags overlap); exercise both decoders.
                let req_ok = Request::decode(&payload).is_ok();
                let resp_ok = Response::decode(&payload).is_ok();
                all_ok &= req_ok || resp_ok;
            }
            Ok(None) => return all_ok,
            Err(_) => return false,
        }
    }
}

#[test]
fn mutated_frames_never_panic_2000_cases() {
    let corpus = corpus();
    let cases_per_entry = 2000usize.div_ceil(corpus.len());
    let report = fuzz::run(&corpus, cases_per_entry, 0x5eed_f4a3, |bytes| {
        decode_stream(bytes)
    });
    assert!(report.cases >= 2000, "{report:?}");
    // A fuzz loop that only ever rejects (or only ever accepts) is not
    // exercising both paths of the decoder.
    assert!(report.accepted > 0, "{report:?}");
    assert!(report.rejected > 0, "{report:?}");
}

#[test]
fn mutated_bare_payloads_never_panic() {
    let corpus: Vec<Vec<u8>> = corpus()
        .into_iter()
        .map(|framed| framed[4..].to_vec())
        .collect();
    let report = fuzz::run(&corpus, 200, 0xfeed_beef, |bytes| {
        let req_ok = Request::decode(bytes).is_ok();
        let resp_ok = Response::decode(bytes).is_ok();
        req_ok || resp_ok
    });
    assert!(report.accepted > 0, "{report:?}");
    assert!(report.rejected > 0, "{report:?}");
}

// --- The corrupt-frame matrix: each known-bad shape must produce a
// --- typed `Frame`/`Protocol` error, never a panic or an accept.

#[test]
fn truncated_length_prefix_is_typed_error() {
    for cut in 1..4 {
        let mut framed = Vec::new();
        write_frame(&mut framed, &Request::Metricsz.encode()).unwrap();
        framed.truncate(cut);
        let err = read_frame(&mut framed.as_slice(), MAX_LEN).unwrap_err();
        assert!(
            matches!(&err, ServeError::Frame(m) if m.contains("truncated length prefix")),
            "cut={cut}: {err}"
        );
    }
}

#[test]
fn truncated_payload_is_typed_error() {
    let mut framed = Vec::new();
    write_frame(
        &mut framed,
        &Request::FitProfile {
            cycles: 1,
            trace_bytes: vec![0; 64],
        }
        .encode(),
    )
    .unwrap();
    framed.truncate(framed.len() - 10);
    let err = read_frame(&mut framed.as_slice(), MAX_LEN).unwrap_err();
    assert!(
        matches!(&err, ServeError::Frame(m) if m.contains("truncated frame payload")),
        "{err}"
    );
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let mut framed = Vec::new();
    framed.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = read_frame(&mut framed.as_slice(), MAX_LEN).unwrap_err();
    assert!(
        matches!(&err, ServeError::Frame(m) if m.contains("exceeds maximum")),
        "{err}"
    );
}

#[test]
fn unknown_request_tag_is_typed_error() {
    for tag in [0u8, 10, 100, 255] {
        let err = Request::decode(&[tag]).unwrap_err();
        assert!(
            matches!(err, ServeError::Protocol(_)),
            "tag {tag} must be a typed protocol error"
        );
    }
}

#[test]
fn unknown_response_tag_is_typed_error() {
    for tag in [0u8, 11, 200, 255] {
        let err = Response::decode(&[tag]).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "tag {tag}");
    }
}

#[test]
fn short_fixed_fields_are_typed_errors() {
    // Hello with a 2-byte version, Synthesize cut inside the seed, a
    // fingerprint source with 3 of 8 bytes.
    for payload in [
        vec![1u8, 0, 0],
        vec![3u8, 1, 2, 3],
        vec![3u8, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 2, 3],
    ] {
        let err = Request::decode(&payload).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{payload:?}");
    }
}

#[test]
fn empty_payload_is_typed_error() {
    assert!(matches!(
        Request::decode(&[]).unwrap_err(),
        ServeError::Protocol(_)
    ));
    assert!(matches!(
        Response::decode(&[]).unwrap_err(),
        ServeError::Protocol(_)
    ));
}

#[test]
fn fuzz_campaign_is_deterministic() {
    let corpus = corpus();
    let a = fuzz::run(&corpus, 50, 7, decode_stream);
    let b = fuzz::run(&corpus, 50, 7, decode_stream);
    assert_eq!(a, b);
}
