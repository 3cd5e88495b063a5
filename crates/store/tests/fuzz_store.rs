//! Tier-1 seeded fuzz gate for the store's on-disk formats.
//!
//! Thousands of deterministically mutated checkpoint files and
//! write-ahead logs are parsed. A checkpoint either reads back — and then
//! rewrites to the same bytes — or fails with a typed
//! [`StoreError::Corrupt`]; a log scan never fails and always recovers a
//! consistent, checksum-valid prefix no longer than its input.

use std::path::{Path, PathBuf};

use mocktails_pool::Parallelism;
use mocktails_store::checkpoint::{read_checkpoint, write_checkpoint};
use mocktails_store::{wal, StoreError};
use mocktails_trace::{fnv1a, fuzz};

/// Fixed campaign seed; keep stable so CI failures replay locally.
const FUZZ_SEED: u64 = 0x4d53_544f_0000_0001; // "MSTO" | campaign 1

/// Cases per corpus entry; each corpus has 4 entries, so ≥ 2000 total.
const CASES_PER_ENTRY: usize = 600;

/// Record size limit handed to the parsers: small enough that mutated
/// length fields trip it.
const MAX_RECORD: usize = 256;

fn payload_sets() -> Vec<(u64, Vec<Vec<u8>>)> {
    vec![
        (
            1,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma-gamma".to_vec()],
        ),
        (7, vec![(0..200u8).collect()]),
        (0, Vec::new()),
        (
            2,
            (0..6u8)
                .map(|i| vec![i.wrapping_mul(37); usize::from(i) * 9])
                .collect(),
        ),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mocktails-fuzz-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one checkpoint campaign over `corpus`, passing each mutated case
/// through `seal` before it is written and read back.
fn checkpoint_campaign(
    dir: &Path,
    corpus: &[Vec<u8>],
    seed: u64,
    seal: impl Fn(&[u8]) -> Vec<u8>,
) -> fuzz::FuzzReport {
    let path = dir.join("checkpoint.mstore");
    let rewrite = dir.join("rewrite.mstore");
    fuzz::run(corpus, CASES_PER_ENTRY, seed, |mutated| {
        let bytes = seal(mutated);
        std::fs::write(&path, &bytes).unwrap();
        match read_checkpoint(&path, MAX_RECORD) {
            Ok(Some(checkpoint)) => {
                write_checkpoint(&rewrite, checkpoint.generation, &checkpoint.payloads).unwrap();
                assert_eq!(std::fs::read(&rewrite).unwrap(), bytes, "not canonical");
                true
            }
            Ok(None) => panic!("an existing checkpoint file read as absent"),
            Err(StoreError::Corrupt(_)) => false,
            Err(other) => panic!("checkpoint parse failed with a non-Corrupt error: {other}"),
        }
    })
}

#[test]
fn mutated_checkpoints_read_back_or_fail_typed() {
    let dir = temp_dir("checkpoint");
    let corpus: Vec<Vec<u8>> = payload_sets()
        .iter()
        .map(|(generation, payloads)| {
            let path = dir.join("seed.mstore");
            write_checkpoint(&path, *generation, payloads).unwrap();
            std::fs::read(&path).unwrap()
        })
        .collect();
    // Raw mutations: the trailing digest catches nearly all of them.
    let raw = checkpoint_campaign(&dir, &corpus, FUZZ_SEED, <[u8]>::to_vec);
    assert!(raw.cases >= 2000, "only {} cases ran", raw.cases);
    assert!(raw.rejected > 0, "{raw:?}");
    // Mutate the body only and re-seal its digest, so the structural
    // checks behind the digest see every mutation.
    let bodies: Vec<Vec<u8>> = corpus.iter().map(|c| c[..c.len() - 8].to_vec()).collect();
    let resealed = checkpoint_campaign(&dir, &bodies, FUZZ_SEED ^ 0x5ea1, |body| {
        let mut sealed = body.to_vec();
        sealed.extend_from_slice(&fnv1a(body).to_le_bytes());
        sealed
    });
    assert!(resealed.cases >= 2000, "only {} cases ran", resealed.cases);
    assert!(
        resealed.accepted > 0 && resealed.rejected > 0,
        "{resealed:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mutated_logs_scan_to_a_consistent_prefix() {
    let corpus: Vec<Vec<u8>> = payload_sets()
        .into_iter()
        .map(|(generation, payloads)| {
            let mut log = wal::header_bytes(generation).to_vec();
            let mut appender = wal::WalAppender::new(Vec::new(), wal::WAL_HEADER_LEN, 0);
            for payload in &payloads {
                appender.append(payload).unwrap();
            }
            log.extend_from_slice(&appender.into_inner());
            log
        })
        .collect();
    let report = fuzz::run_parallel(
        Parallelism::current(),
        &corpus,
        CASES_PER_ENTRY,
        FUZZ_SEED ^ 0x5741_4c00, // "WAL"
        |bytes| {
            let header = wal::read_header(bytes);
            let scan = wal::scan_frames(bytes, MAX_RECORD);
            let len = bytes.len() as u64;
            assert!(scan.valid_len <= len, "valid prefix past the input");
            // Frames tile the prefix from the header on, each one
            // checksum-valid and within the record limit.
            let mut end = wal::WAL_HEADER_LEN.min(len);
            for frame in &scan.frames {
                assert_eq!(frame.offset, end, "frames are not contiguous");
                assert!(frame.payload.len() <= MAX_RECORD);
                let at = frame.offset as usize + 4;
                let crc = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                assert_eq!(crc, fnv1a(&frame.payload));
                end += wal::FRAME_HEADER_LEN + frame.payload.len() as u64;
            }
            assert_eq!(scan.valid_len, end, "valid prefix ends between frames");
            // Recovery is idempotent: rescanning the prefix changes nothing.
            assert_eq!(wal::scan_frames(&bytes[..end as usize], MAX_RECORD), scan);
            matches!(header, wal::WalHeader::Valid { .. }) && scan.valid_len == len
        },
    );
    assert!(report.cases >= 2000, "only {} cases ran", report.cases);
    assert!(report.accepted > 0 && report.rejected > 0, "{report:?}");
}
