//! Fault-injected recovery proofs: the kill-point sweep.
//!
//! The store's contract is that a crash at *any* write boundary — a torn
//! page, a partial frame, garbage past the durable prefix — recovers to a
//! consistent prefix of acknowledged operations, deterministically at any
//! thread count. These tests prove it exhaustively on a golden log:
//! every byte-boundary truncation, every single-bit flip, and seeded
//! torn-write tails all land in exactly the predicted state.

use std::path::PathBuf;
use std::sync::Arc;

use mocktails_core::{HierarchyConfig, Profile, ProfileRecord};
use mocktails_pool::Parallelism;
use mocktails_store::{wal, ProfileStore, StoreOptions, CHECKPOINT_FILE, WAL_FILE};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{Request, Trace};

const MAX_RECORD: usize = 1 << 20;
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mocktails-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deliberately tiny profile so the golden log stays small enough to
/// sweep every byte of.
fn small_profile(salt: u64) -> Arc<Profile> {
    let trace = Trace::from_requests(
        (0..24u64)
            .map(|i| Request::read(i * 5 + salt, 0x8000 + ((i * 7 + salt) % 12) * 64, 64))
            .collect(),
    );
    Arc::new(Profile::fit(&trace, &HierarchyConfig::two_level_ts(48)))
}

/// The acknowledged operations, in append order, as their durable records.
fn golden_records() -> Vec<ProfileRecord> {
    (0..3u64)
        .map(|salt| ProfileRecord::from_profile(&small_profile(salt), Some(0x1000 + salt)))
        .collect()
}

/// Builds the golden write-ahead log by running the real append path,
/// and returns its bytes.
fn golden_log(dir: &PathBuf, records: &[ProfileRecord]) -> Vec<u8> {
    let mut store = ProfileStore::open(dir).unwrap();
    for (salt, record) in records.iter().enumerate() {
        let fingerprint = store
            .put_profile(&small_profile(salt as u64), record.fit_key)
            .unwrap();
        assert_eq!(fingerprint, record.fingerprint);
    }
    drop(store);
    std::fs::read(dir.join(WAL_FILE)).unwrap()
}

fn options(threads: usize) -> StoreOptions {
    StoreOptions {
        parallelism: Parallelism::new(threads),
        ..StoreOptions::default()
    }
}

/// Opens a fresh store directory whose log is `bytes`, at `threads`.
fn recover(dir: &PathBuf, bytes: &[u8], threads: usize) -> ProfileStore {
    let _ = std::fs::remove_file(dir.join(WAL_FILE));
    let _ = std::fs::remove_file(dir.join(CHECKPOINT_FILE));
    std::fs::write(dir.join(WAL_FILE), bytes).unwrap();
    ProfileStore::open_with(dir, options(threads)).unwrap()
}

/// Asserts the recovered store holds exactly `expected` — same
/// fingerprints, same fit keys, byte-identical profile encodings.
fn assert_state(store: &ProfileStore, expected: &[&ProfileRecord], context: &str) {
    assert_eq!(store.len(), expected.len(), "{context}");
    for record in expected {
        let entry = store
            .get(record.fingerprint)
            .unwrap_or_else(|| panic!("{context}: fingerprint {:#x} missing", record.fingerprint));
        assert_eq!(entry.fit_key, record.fit_key, "{context}");
        let roundtrip = ProfileRecord::from_profile(&entry.profile, entry.fit_key);
        assert_eq!(
            roundtrip.profile_bytes, record.profile_bytes,
            "{context}: recovered profile re-encodes differently"
        );
        assert_eq!(roundtrip.fingerprint, record.fingerprint, "{context}");
    }
}

#[test]
fn kill_point_sweep_recovers_a_consistent_prefix_at_every_byte() {
    let golden_dir = temp_dir("sweep-golden");
    let records = golden_records();
    let log = golden_log(&golden_dir, &records);
    let frames = wal::scan_frames(&log, MAX_RECORD).frames;
    assert_eq!(frames.len(), records.len());
    // Each frame's end offset: a record survives a cut iff it lies wholly
    // below it.
    let ends: Vec<u64> = (0..frames.len())
        .map(|i| frames.get(i + 1).map_or(log.len() as u64, |f| f.offset))
        .collect();

    let dir = temp_dir("sweep-run");
    for cut in 0..=log.len() {
        let survivors: Vec<&ProfileRecord> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| cut >= wal::WAL_HEADER_LEN as usize && ends[*i] <= cut as u64)
            .map(|(_, r)| r)
            .collect();
        // Torn header resets the log to a bare header; otherwise the
        // durable prefix ends where the last surviving record does.
        let expected_len = match survivors.len() {
            0 => wal::WAL_HEADER_LEN,
            n => ends[n - 1],
        };
        for threads in THREAD_SWEEP {
            let store = recover(&dir, &log[..cut], threads);
            assert_state(&store, &survivors, &format!("cut {cut}, {threads} threads"));
            assert_eq!(
                store.wal_bytes(),
                expected_len,
                "cut {cut}, {threads} threads: durable prefix length"
            );
            assert_eq!(store.wal_records(), survivors.len() as u64);
        }
        // The truncation must be physical: a second open sees a clean log.
        let reopened = ProfileStore::open_with(&dir, options(1)).unwrap();
        assert_eq!(reopened.recovery().wal_bytes_truncated, 0, "cut {cut}");
        assert!(!reopened.recovery().wal_reset, "cut {cut}");
    }
    std::fs::remove_dir_all(&golden_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_after_a_kill_still_accepts_new_appends() {
    let golden_dir = temp_dir("resume-golden");
    let records = golden_records();
    let log = golden_log(&golden_dir, &records);
    let frames = wal::scan_frames(&log, MAX_RECORD).frames;
    // Cut mid-way through the second frame.
    let cut = (frames[1].offset + 5) as usize;

    let dir = temp_dir("resume-run");
    let mut store = recover(&dir, &log[..cut], 2);
    assert_state(&store, &[&records[0]], "post-kill");
    let late = small_profile(99);
    let fingerprint = store.put_profile(&late, None).unwrap();
    drop(store);

    let store = ProfileStore::open_with(&dir, options(8)).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(store.recovery().wal_records_replayed, 2);
    assert!(store.get(fingerprint).is_some());
    let survivor = store.get(records[0].fingerprint).unwrap();
    assert_eq!(
        ProfileRecord::from_profile(&survivor.profile, survivor.fit_key).profile_bytes,
        records[0].profile_bytes,
        "post-resume prefix re-encodes differently"
    );
    std::fs::remove_dir_all(&golden_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_sweep_never_loads_a_damaged_record() {
    let golden_dir = temp_dir("flip-golden");
    let records = golden_records();
    let log = golden_log(&golden_dir, &records);
    let frames = wal::scan_frames(&log, MAX_RECORD).frames;
    let dir = temp_dir("flip-run");
    // Flip one bit at a stride through the record region: recovery must
    // keep exactly the frames before the damaged one — never a record
    // carrying the flipped byte.
    for position in (wal::WAL_HEADER_LEN as usize..log.len()).step_by(11) {
        let mut damaged = log.clone();
        damaged[position] ^= 0x10;
        let hit = frames
            .iter()
            .position(|f| {
                let end = frames
                    .iter()
                    .find(|next| next.offset > f.offset)
                    .map_or(log.len() as u64, |next| next.offset);
                (f.offset as usize..end as usize).contains(&position)
            })
            .expect("position inside some frame");
        let survivors: Vec<&ProfileRecord> = records.iter().take(hit).collect();
        for threads in THREAD_SWEEP {
            let store = recover(&dir, &damaged, threads);
            assert_state(
                &store,
                &survivors,
                &format!("flip at {position}, {threads} threads"),
            );
        }
    }
    std::fs::remove_dir_all(&golden_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_garbage_tails_recover_to_the_durable_prefix() {
    let golden_dir = temp_dir("garbage-golden");
    let records = golden_records();
    let log = golden_log(&golden_dir, &records);
    let dir = temp_dir("garbage-run");
    let mut rng = Prng::seed_from_u64(0xC0FFEE);
    // A torn final append leaves the durable prefix plus arbitrary bytes
    // that never completed; model that as seeded garbage of varied length.
    for case in 0..32u64 {
        let tail_len = rng.gen_range(1..64) as usize;
        let mut damaged = log.clone();
        for _ in 0..tail_len {
            damaged.push(rng.gen_range(0..256) as u8);
        }
        let all: Vec<&ProfileRecord> = records.iter().collect();
        for threads in THREAD_SWEEP {
            let store = recover(&dir, &damaged, threads);
            // Random bytes cannot forge a frame past the checksum plus
            // record fingerprint, so recovery keeps exactly the
            // acknowledged records and truncates the garbage.
            assert_state(&store, &all, &format!("case {case}, {threads} threads"));
        }
    }
    std::fs::remove_dir_all(&golden_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
