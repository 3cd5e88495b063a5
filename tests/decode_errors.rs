//! Error equivalence of every in-memory decoder.
//!
//! Each format's encoding is decoded cut at every byte offset and again
//! with each single byte flipped. Every case's outcome — the offset, the
//! error variant and its `Display` text (or a digest of what decoded) —
//! is folded into one FNV-1a fingerprint per format. The fingerprints are
//! pinned, so a change to how bytes are read cannot move a single error
//! message, error kind or accepted input without failing here.

use std::fmt::Write as _;

use mocktails::core::{ProfileError, ProfileRecord};
use mocktails::serve::protocol::{ProfileSource, Request as Msg, Response, PROTOCOL_VERSION};
use mocktails::serve::{ErrorCode, ServeError};
use mocktails::store::{checkpoint, wal, StoreError};
use mocktails::trace::codec::{read_trace, write_trace};
use mocktails::trace::{fingerprint, fnv1a, TraceError};
use mocktails::workloads::catalog;
use mocktails::{DecodeOptions, HierarchyConfig, Profile, Request, Trace};

/// Runs `decode` on every truncation and every single-byte flip of
/// `bytes`, returning the FNV-1a digest of the outcome lines.
fn campaign(bytes: &[u8], mut decode: impl FnMut(&[u8]) -> String) -> u64 {
    let mut log = String::new();
    for cut in 0..bytes.len() {
        writeln!(log, "cut {cut} {}", decode(&bytes[..cut])).unwrap();
    }
    for at in 0..bytes.len() {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 0xff;
        writeln!(log, "flip {at} {}", decode(&flipped)).unwrap();
    }
    fnv1a(log.as_bytes())
}

fn trace_variant(e: &TraceError) -> String {
    match e {
        TraceError::Io(io) => format!("Io/{:?}", io.kind()),
        TraceError::Corrupt(_) => "Corrupt".into(),
        TraceError::UnsupportedVersion { .. } => "UnsupportedVersion".into(),
        TraceError::LimitExceeded { .. } => "LimitExceeded".into(),
    }
}

fn profile_variant(e: &ProfileError) -> String {
    match e {
        ProfileError::Codec(t) => format!("Codec/{}", trace_variant(t)),
        ProfileError::Corrupt(_) => "Corrupt".into(),
        ProfileError::Invalid(_) => "Invalid".into(),
        ProfileError::UnknownTag { .. } => "UnknownTag".into(),
    }
}

fn serve_variant(e: &ServeError) -> &'static str {
    match e {
        ServeError::Io(_) => "Io",
        ServeError::Frame(_) => "Frame",
        ServeError::Protocol(_) => "Protocol",
        ServeError::Remote { .. } => "Remote",
        ServeError::Store(_) => "Store",
        ServeError::Config(_) => "Config",
    }
}

fn store_variant(e: &StoreError) -> String {
    match e {
        StoreError::Io(io) => format!("Io/{:?}", io.kind()),
        StoreError::Corrupt(_) => "Corrupt".into(),
        StoreError::Profile(p) => format!("Profile/{}", profile_variant(p)),
        StoreError::Wedged => "Wedged".into(),
    }
}

fn sample_trace() -> Trace {
    // Multi-byte time and address deltas in both directions, both ops,
    // several sizes, and a far jump near the top of the address space.
    Trace::from_requests(vec![
        Request::read(0, 0x8100_2eb8, 128),
        Request::read(8, 0x8100_2ec0, 64),
        Request::write(16, 0x8100_2f00, 64),
        Request::read(1_000_000, 0x10, 32),
        Request::write(1_000_000, 0x7fff_ffff_0000_0000, 4),
        Request::read(1_000_300, 0x40, 4096),
        Request::write(u64::from(u32::MAX) * 5, 0x1000, 1),
    ])
}

fn sample_profile() -> Profile {
    let trace = catalog::by_name("HEVC2")
        .unwrap()
        .generate()
        .truncate_to(160);
    Profile::fit(&trace, &HierarchyConfig::two_level_ts(2_000))
}

fn trace_outcome(bytes: &[u8]) -> String {
    let mut input = bytes;
    match read_trace(&mut input) {
        Ok(trace) => format!("ok {:016x} {}", fingerprint(&trace), input.len()),
        Err(e) => format!("{} {e}", trace_variant(&e)),
    }
}

fn profile_outcome(bytes: &[u8]) -> String {
    profile_outcome_with(bytes, &DecodeOptions::default())
}

fn profile_outcome_with(bytes: &[u8], options: &DecodeOptions) -> String {
    let mut input = bytes;
    match Profile::read(&mut input, options) {
        Ok(p) => format!("ok {:016x} {}", p.content_fingerprint(), input.len()),
        Err(e) => format!("{} {e}", profile_variant(&e)),
    }
}

fn record_outcome(bytes: &[u8]) -> String {
    match ProfileRecord::decode(bytes) {
        Ok(r) => format!(
            "ok {:016x} {:?} {}",
            r.fingerprint,
            r.fit_key,
            r.profile_bytes.len()
        ),
        Err(e) => format!("{} {e}", profile_variant(&e)),
    }
}

fn request_outcome(bytes: &[u8]) -> String {
    match Msg::decode(bytes) {
        Ok(m) => format!("ok {m:?}"),
        Err(e) => format!("{} {e}", serve_variant(&e)),
    }
}

fn response_outcome(bytes: &[u8]) -> String {
    match Response::decode(bytes) {
        Ok(m) => format!("ok {m:?}"),
        Err(e) => format!("{} {e}", serve_variant(&e)),
    }
}

fn check(format: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{format}: outcome fingerprint {got:#018x} moved from the pinned {pinned:#018x}"
    );
}

#[test]
fn trace_decode_errors_are_pinned() {
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &sample_trace()).unwrap();
    check(
        "trace",
        campaign(&bytes, trace_outcome),
        0xe638_6b8d_a32e_1b3b,
    );
}

#[test]
fn profile_decode_errors_are_pinned() {
    let mut bytes = Vec::new();
    sample_profile().write(&mut bytes).unwrap();
    check(
        "profile",
        campaign(&bytes, profile_outcome),
        0x2a38_8502_0551_ff0b,
    );
}

/// The server's trusted decodes and store warm-up read profiles with
/// [`DecodeOptions::trusted`]: no limits and no post-decode validation,
/// but the same structural and per-chain checks.
#[test]
fn trusted_profile_decode_errors_are_pinned() {
    let mut bytes = Vec::new();
    sample_profile().write(&mut bytes).unwrap();
    check(
        "trusted profile",
        campaign(&bytes, |b| {
            profile_outcome_with(b, &DecodeOptions::trusted())
        }),
        0xa996_bf03_1fa0_2944,
    );
}

#[test]
fn profile_record_decode_errors_are_pinned() {
    let profile = sample_profile();
    let mut digest = String::new();
    for fit_key in [None, Some(0x0123_4567_89ab_cdef)] {
        let record = ProfileRecord::from_profile(&profile, fit_key);
        let got = campaign(&record.encode(), record_outcome);
        write!(digest, "{got:016x} ").unwrap();
    }
    check(
        "profile record",
        fnv1a(digest.as_bytes()),
        0xd951_8aa8_6db8_9098,
    );
}

#[test]
fn checkpoint_decode_errors_are_pinned() {
    let dir = std::env::temp_dir().join(format!("mocktails-decode-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpoint.mstore");
    let payloads = vec![b"alpha".to_vec(), Vec::new(), vec![0x5a; 40]];
    checkpoint::write_checkpoint(&path, 9, &payloads).unwrap();
    let good = std::fs::read(&path).unwrap();
    let mut read = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        match checkpoint::read_checkpoint(&path, 48) {
            Ok(Some(c)) => format!("ok {} {}", c.generation, c.payloads.len()),
            Ok(None) => "absent".to_string(),
            Err(e) => format!("{} {e}", store_variant(&e)),
        }
    };
    let plain = campaign(&good, &mut read);
    // Re-seal each case's digest so the structural checks behind it run
    // too, not just the digest comparison.
    let resealed = campaign(&good[..good.len() - 8], |body| {
        let mut sealed = body.to_vec();
        sealed.extend_from_slice(&fnv1a(body).to_le_bytes());
        read(&sealed)
    });
    std::fs::remove_dir_all(&dir).unwrap();
    check(
        "checkpoint",
        fnv1a(format!("{plain:016x} {resealed:016x}").as_bytes()),
        0x44bf_f371_a828_00c1,
    );
}

#[test]
fn wal_scan_outcomes_are_pinned() {
    let mut log = wal::header_bytes(4).to_vec();
    let mut appender = wal::WalAppender::new(Vec::new(), wal::WAL_HEADER_LEN, 0);
    for payload in [&b"first"[..], b"", &[0xa5; 30]] {
        appender.append(payload).unwrap();
    }
    log.extend_from_slice(&appender.into_inner());
    let got = campaign(&log, |bytes| {
        let header = wal::read_header(bytes);
        let scan = match header {
            wal::WalHeader::Valid { .. } => {
                let scan = wal::scan_frames(bytes, 24);
                let offsets: Vec<u64> = scan.frames.iter().map(|f| f.offset).collect();
                format!("{} {offsets:?}", scan.valid_len)
            }
            _ => String::new(),
        };
        format!("{header:?} {scan}")
    });
    check("wal", got, 0xc82d_f3a2_f83b_64d2);
}

#[test]
fn protocol_decode_errors_are_pinned() {
    let requests = vec![
        Msg::Hello {
            version: PROTOCOL_VERSION,
        },
        Msg::FitProfile {
            cycles: 500_000,
            trace_bytes: vec![1, 2, 3],
        },
        Msg::Synthesize {
            seed: 42,
            chunk_len: 4096,
            source: ProfileSource::Fingerprint(0xdead_beef),
        },
        Msg::Synthesize {
            seed: 7,
            chunk_len: 1,
            source: ProfileSource::Inline(vec![9; 3]),
        },
        Msg::Stats {
            source: ProfileSource::Fingerprint(7),
        },
        Msg::Stats {
            source: ProfileSource::Inline(vec![8; 2]),
        },
        Msg::Metricsz,
        Msg::Shutdown,
        Msg::Ack,
        Msg::Cancel,
        Msg::Compact,
        Msg::CoupledSynthesize {
            seed: 11,
            chunk_len: 256,
            source: ProfileSource::Fingerprint(0xfeed),
        },
    ];
    let responses = vec![
        Response::HelloOk {
            version: PROTOCOL_VERSION,
        },
        Response::FitResult {
            fingerprint: 0x0123_4567_89ab_cdef,
            cache_hit: true,
            profile_bytes: vec![77; 3],
        },
        Response::SynthStart { total_requests: 12 },
        Response::SynthChunk {
            count: 3,
            records: vec![1, 2, 3],
        },
        Response::SynthEnd {
            total_requests: 12,
            fingerprint: 99,
        },
        Response::StatsText {
            text: "leaves: 4".into(),
        },
        Response::MetricsText {
            text: "up 1\n".into(),
        },
        Response::ShutdownOk,
        Response::Error {
            code: ErrorCode::Busy,
            message: "queue full".into(),
        },
        Response::CompactOk {
            generation: 2,
            profiles: 5,
            checkpoint_bytes: 4096,
            wal_bytes_dropped: 1024,
        },
        Response::CoupledChunk {
            count: 3,
            simulated_cycles: 70_000,
            stall_cycles: 1200,
            records: vec![4, 5, 6],
        },
    ];
    let mut digest = String::new();
    for request in &requests {
        let got = campaign(&request.encode(), request_outcome);
        write!(digest, "{got:016x} ").unwrap();
    }
    for response in &responses {
        let got = campaign(&response.encode(), response_outcome);
        write!(digest, "{got:016x} ").unwrap();
    }
    check("protocol", fnv1a(digest.as_bytes()), 0x6e67_da87_0a0a_e776);
}
