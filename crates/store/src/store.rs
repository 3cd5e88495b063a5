//! The crash-recoverable profile store: checkpoint + write-ahead log +
//! deterministic recovery.
//!
//! # On-disk layout
//!
//! A store directory holds at most two files:
//!
//! * `checkpoint.mstore` — an atomic, digest-sealed snapshot of every
//!   live record at some *generation* (see [`crate::checkpoint`]);
//! * `wal.mlog` — the write-ahead log of records accepted since that
//!   checkpoint, stamped with the same generation (see [`crate::wal`]).
//!
//! # Invariants
//!
//! 1. **Durability before acknowledgement.** [`ProfileStore::put_profile`]
//!    returns only after the record's frame is written *and* fsynced; a
//!    crash can lose at most operations that were never acknowledged.
//! 2. **Prefix consistency.** Recovery replays the longest valid prefix
//!    of the log — structural scan first, then per-record validation via
//!    [`Parallelism::map`] (bit-identical at any thread count) — and
//!    truncates the torn tail so the next append extends a clean log.
//! 3. **Generation reconciliation.** Compaction writes checkpoint
//!    `g + 1` atomically *before* resetting the log to `g + 1`. A crash
//!    between the two leaves checkpoint `g + 1` next to log `g`; recovery
//!    discards such a stale log (its records are all in the checkpoint).
//!    A log *ahead* of its checkpoint is unreachable by crashes and
//!    refuses to load as [`StoreError::Corrupt`].

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mocktails_core::{Profile, ProfileError, ProfileRecord};
use mocktails_pool::Parallelism;
use mocktails_trace::fault::AtomicFileWriter;
use mocktails_trace::DecodeOptions;

use crate::checkpoint::{read_checkpoint, write_checkpoint};
use crate::wal::{self, WalAppender, WalHeader};
use crate::StoreError;

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.mlog";

/// File name of the checkpoint inside a store directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.mstore";

/// Tuning knobs for opening a store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Decode limits applied to every recovered profile.
    pub decode: DecodeOptions,
    /// Thread policy for recovery's per-record validation pass. The
    /// recovered state is bit-identical at any setting.
    pub parallelism: Parallelism,
    /// Upper bound on a single record's framed payload; larger lengths in
    /// the log are treated as a torn tail, in the checkpoint as
    /// corruption.
    pub max_record_len: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            decode: DecodeOptions::default(),
            parallelism: Parallelism::current(),
            max_record_len: 64 << 20,
        }
    }
}

/// One live store entry: the decoded profile plus its fit metadata.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    /// The recovered (or just-put) profile.
    pub profile: Arc<Profile>,
    /// Fit key aliasing repeat fits to this profile, if known.
    pub fit_key: Option<u64>,
}

/// What recovery found and did while opening a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Records loaded from the checkpoint.
    pub checkpoint_profiles: usize,
    /// Valid records replayed from the write-ahead log.
    pub wal_records_replayed: usize,
    /// Torn-tail bytes truncated off the log (0 on a clean open).
    pub wal_bytes_truncated: u64,
    /// Whether a stale or torn log was discarded and reset wholesale
    /// (the crash window between checkpoint write and log reset).
    pub wal_reset: bool,
}

/// Outcome of a [`ProfileStore::compact`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Records snapshotted into the new checkpoint.
    pub profiles: u64,
    /// Size of the new checkpoint file in bytes.
    pub checkpoint_bytes: u64,
    /// Log payload bytes dropped by the reset (everything past the
    /// header).
    pub wal_bytes_dropped: u64,
}

/// A write-ahead-logged, checkpointed, crash-recoverable store of fitted
/// profiles keyed by content fingerprint.
///
/// See the [module docs](self) for the on-disk layout and invariants.
/// The store is single-writer: callers needing concurrent access wrap it
/// in a mutex (as `mocktails-serve` does).
#[derive(Debug)]
pub struct ProfileStore {
    dir: PathBuf,
    appender: WalAppender<File>,
    entries: BTreeMap<u64, StoredEntry>,
    generation: u64,
    recovery: RecoveryReport,
}

impl ProfileStore {
    /// Opens (creating if absent) the store in `dir` with default
    /// options, running full recovery.
    ///
    /// # Errors
    ///
    /// See [`ProfileStore::open_with`].
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (creating if absent) the store in `dir`, running full
    /// recovery: load + validate the checkpoint, replay the log's longest
    /// valid prefix, truncate any torn tail, and reconcile generations.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for filesystem failures; [`StoreError::Corrupt`]
    /// for states no crash can produce (checkpoint digest mismatch,
    /// foreign magic, a log generation ahead of its checkpoint).
    pub fn open_with<P: AsRef<Path>>(dir: P, options: StoreOptions) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        // 1. Checkpoint: absent means generation 0, empty.
        let checkpoint = read_checkpoint(&dir.join(CHECKPOINT_FILE), options.max_record_len)?;
        let (generation, checkpoint_payloads) = match checkpoint {
            Some(checkpoint) => (checkpoint.generation, checkpoint.payloads),
            None => (0, Vec::new()),
        };
        let mut entries = BTreeMap::new();
        let decoded = decode_records(&checkpoint_payloads, &options);
        for (index, result) in decoded.into_iter().enumerate() {
            // The digest verified, so an invalid record is written-state
            // corruption, not a crash artifact: refuse to load.
            let (record, profile) = result
                .map_err(|err| StoreError::Corrupt(format!("checkpoint entry {index}: {err}")))?;
            entries.insert(
                record.fingerprint,
                StoredEntry {
                    profile: Arc::new(profile),
                    fit_key: record.fit_key,
                },
            );
        }
        let mut recovery = RecoveryReport {
            checkpoint_profiles: entries.len(),
            ..RecoveryReport::default()
        };

        // 2. Write-ahead log: replay, truncate, or reset.
        let wal_path = dir.join(WAL_FILE);
        let wal_bytes = match std::fs::read(&wal_path) {
            Ok(bytes) => Some(bytes),
            Err(err) if err.kind() == io::ErrorKind::NotFound => None,
            Err(err) => return Err(StoreError::Io(err)),
        };
        let appender = match wal_bytes {
            // First open (or crash before the log's atomic creation
            // committed, which leaves no file at all).
            None => reset_wal(&dir, generation)?,
            Some(bytes) => match wal::read_header(&bytes) {
                // A header shorter than 13 bytes cannot survive the log's
                // atomic creation; treat the file as never-created.
                WalHeader::Torn => {
                    recovery.wal_reset = true;
                    recovery.wal_bytes_truncated = bytes.len() as u64;
                    reset_wal(&dir, generation)?
                }
                WalHeader::Foreign(what) => return Err(StoreError::Corrupt(what)),
                WalHeader::Valid {
                    generation: wal_generation,
                } => {
                    if wal_generation > generation {
                        return Err(StoreError::Corrupt(format!(
                            "write-ahead log generation {wal_generation} is ahead of \
                             checkpoint generation {generation}"
                        )));
                    }
                    if wal_generation < generation {
                        // Crash between checkpoint write and log reset:
                        // every stale record is already in the checkpoint.
                        recovery.wal_reset = true;
                        recovery.wal_bytes_truncated =
                            (bytes.len() as u64).saturating_sub(wal::WAL_HEADER_LEN);
                        reset_wal(&dir, generation)?
                    } else {
                        let scan = wal::scan_frames(&bytes, options.max_record_len);
                        let payloads: Vec<Vec<u8>> =
                            scan.frames.iter().map(|f| f.payload.clone()).collect();
                        let decoded = decode_records(&payloads, &options);
                        // The first record whose *contents* fail to
                        // validate marks the truncation point, exactly as
                        // a structural tear would.
                        let mut valid_len = scan.valid_len;
                        let mut replayed = 0usize;
                        for (frame, result) in scan.frames.iter().zip(decoded) {
                            let Ok((record, profile)) = result else {
                                valid_len = frame.offset;
                                break;
                            };
                            entries.insert(
                                record.fingerprint,
                                StoredEntry {
                                    profile: Arc::new(profile),
                                    fit_key: record.fit_key,
                                },
                            );
                            replayed += 1;
                        }
                        recovery.wal_records_replayed = replayed;
                        recovery.wal_bytes_truncated =
                            (bytes.len() as u64).saturating_sub(valid_len);
                        if valid_len < bytes.len() as u64 {
                            let file = OpenOptions::new().write(true).open(&wal_path)?;
                            file.set_len(valid_len)?;
                            file.sync_data()?;
                        }
                        let file = OpenOptions::new().append(true).open(&wal_path)?;
                        WalAppender::new(file, valid_len, replayed as u64)
                    }
                }
            },
        };

        Ok(Self {
            dir,
            appender,
            entries,
            generation,
            recovery,
        })
    }

    /// Appends a profile (and its fit key) to the log, fsyncs, and only
    /// then makes it visible in memory — the caller may acknowledge the
    /// operation once this returns. Returns the profile's content
    /// fingerprint. A repeat put of an identical `(profile, fit_key)`
    /// pair is recognised and does not grow the log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Wedged`] if an earlier append failed (compact or
    /// reopen to recover); [`StoreError::Io`] for the write/fsync failure
    /// itself. On error the entry is *not* inserted in memory, keeping
    /// memory and disk consistent.
    pub fn put_profile(
        &mut self,
        profile: &Arc<Profile>,
        fit_key: Option<u64>,
    ) -> Result<u64, StoreError> {
        let record = ProfileRecord::from_profile(profile, fit_key);
        self.put_record(profile, &record)
    }

    /// [`ProfileStore::put_profile`] for a caller that already holds the
    /// profile's record (from [`ProfileRecord::from_profile`]), so the
    /// profile is not encoded a second time.
    ///
    /// # Errors
    ///
    /// As [`ProfileStore::put_profile`].
    pub fn put_record(
        &mut self,
        profile: &Arc<Profile>,
        record: &ProfileRecord,
    ) -> Result<u64, StoreError> {
        if let Some(existing) = self.entries.get(&record.fingerprint) {
            if existing.fit_key == record.fit_key {
                return Ok(record.fingerprint);
            }
        }
        self.appender.append(&record.encode())?;
        self.entries.insert(
            record.fingerprint,
            StoredEntry {
                profile: Arc::clone(profile),
                fit_key: record.fit_key,
            },
        );
        Ok(record.fingerprint)
    }

    /// Snapshots every live record into checkpoint `generation + 1`
    /// (atomically), then resets the log to the new generation. Also the
    /// recovery path from a [wedged](StoreError::Wedged) store: the new
    /// log gets a fresh appender.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] — if the checkpoint write fails the old
    /// checkpoint and log are untouched; if the log reset fails after the
    /// checkpoint committed, a reopen recovers (the stale-log case).
    pub fn compact(&mut self) -> Result<CompactStats, StoreError> {
        let next = self.generation + 1;
        let payloads = self
            .entries
            .values()
            .map(|entry| ProfileRecord::from_profile(&entry.profile, entry.fit_key).encode())
            .collect::<Vec<_>>();
        let checkpoint_bytes = write_checkpoint(&self.dir.join(CHECKPOINT_FILE), next, &payloads)?;
        let dropped = self.appender.bytes().saturating_sub(wal::WAL_HEADER_LEN);
        self.appender = reset_wal(&self.dir, next)?;
        self.generation = next;
        Ok(CompactStats {
            profiles: payloads.len() as u64,
            checkpoint_bytes,
            wal_bytes_dropped: dropped,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current checkpoint/log generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by content fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<&StoredEntry> {
        self.entries.get(&fingerprint)
    }

    /// Iterates live entries in ascending fingerprint order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &StoredEntry)> {
        self.entries.iter().map(|(fp, entry)| (*fp, entry))
    }

    /// Durable log size in bytes, header included.
    pub fn wal_bytes(&self) -> u64 {
        self.appender.bytes()
    }

    /// Records in the current log (replayed + appended this session).
    pub fn wal_records(&self) -> u64 {
        self.appender.records()
    }

    /// Whether a failed append has wedged the log (see
    /// [`StoreError::Wedged`]).
    pub fn is_wedged(&self) -> bool {
        self.appender.is_wedged()
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }
}

/// Decodes and validates record payloads across threads; output order and
/// contents are independent of the thread count.
fn decode_records(
    payloads: &[Vec<u8>],
    options: &StoreOptions,
) -> Vec<Result<(ProfileRecord, Profile), ProfileError>> {
    options.parallelism.map(payloads, |payload| {
        let record = ProfileRecord::decode(payload)?;
        let profile = record.decode_profile(&options.decode)?;
        Ok((record, profile))
    })
}

/// Atomically (re)creates the log as a bare `generation` header and
/// returns a fresh appender positioned after it.
fn reset_wal(dir: &Path, generation: u64) -> Result<WalAppender<File>, StoreError> {
    let path = dir.join(WAL_FILE);
    let mut writer = AtomicFileWriter::create(&path)?;
    writer.write_all(&wal::header_bytes(generation))?;
    writer.commit()?;
    let file = OpenOptions::new().append(true).open(&path)?;
    Ok(WalAppender::new(file, wal::WAL_HEADER_LEN, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_core::HierarchyConfig;
    use mocktails_trace::{Request, Trace};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mocktails-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_profile(salt: u64) -> Arc<Profile> {
        let trace = Trace::from_requests(
            (0..80u64)
                .map(|i| Request::read(i * 3 + salt, 0x4000 + (i % 32) * 64, 64))
                .collect(),
        );
        Arc::new(Profile::fit(&trace, &HierarchyConfig::two_level_ts(160)))
    }

    #[test]
    fn put_survives_reopen_byte_identically() {
        let dir = temp_dir("reopen");
        let (a, b) = (sample_profile(0), sample_profile(1));
        let (fp_a, fp_b);
        {
            let mut store = ProfileStore::open(&dir).unwrap();
            assert!(store.is_empty());
            fp_a = store.put_profile(&a, Some(0xAA)).unwrap();
            fp_b = store.put_profile(&b, None).unwrap();
            assert_eq!(store.wal_records(), 2);
        }
        let store = ProfileStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.recovery().wal_records_replayed, 2);
        assert_eq!(store.recovery().wal_bytes_truncated, 0);
        assert_eq!(store.get(fp_a).unwrap().fit_key, Some(0xAA));
        assert_eq!(*store.get(fp_a).unwrap().profile, *a);
        assert_eq!(*store.get(fp_b).unwrap().profile, *b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_put_does_not_grow_the_log() {
        let dir = temp_dir("dedup");
        let mut store = ProfileStore::open(&dir).unwrap();
        let profile = sample_profile(2);
        store.put_profile(&profile, Some(1)).unwrap();
        let bytes = store.wal_bytes();
        store.put_profile(&profile, Some(1)).unwrap();
        assert_eq!(store.wal_bytes(), bytes);
        // A *changed* fit key is new metadata and must be logged.
        store.put_profile(&profile, Some(2)).unwrap();
        assert!(store.wal_bytes() > bytes);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_checkpoints_and_truncates_the_log() {
        let dir = temp_dir("compact");
        let mut store = ProfileStore::open(&dir).unwrap();
        let (a, b) = (sample_profile(3), sample_profile(4));
        store.put_profile(&a, Some(7)).unwrap();
        store.put_profile(&b, None).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.profiles, 2);
        assert!(stats.wal_bytes_dropped > 0);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.wal_bytes(), wal::WAL_HEADER_LEN);
        drop(store);
        let store = ProfileStore::open(&dir).unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(store.recovery().checkpoint_profiles, 2);
        assert_eq!(store.recovery().wal_records_replayed, 0);
        assert_eq!(*store.get(a.content_fingerprint()).unwrap().profile, *a);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_log_after_compact_crash_is_discarded() {
        let dir = temp_dir("stale");
        let mut store = ProfileStore::open(&dir).unwrap();
        let keep = sample_profile(5);
        store.put_profile(&keep, None).unwrap();
        let old_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        store.compact().unwrap();
        drop(store);
        // Simulate a crash between checkpoint write and log reset by
        // restoring the generation-0 log next to the generation-1
        // checkpoint.
        std::fs::write(dir.join(WAL_FILE), &old_wal).unwrap();
        let store = ProfileStore::open(&dir).unwrap();
        assert!(store.recovery().wal_reset);
        assert_eq!(store.recovery().wal_records_replayed, 0);
        assert_eq!(store.len(), 1);
        assert_eq!(
            *store.get(keep.content_fingerprint()).unwrap().profile,
            *keep
        );
        // The reset log is back on the checkpoint's generation.
        drop(store);
        let header = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(
            wal::read_header(&header),
            WalHeader::Valid { generation: 1 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_ahead_of_checkpoint_is_corrupt() {
        let dir = temp_dir("ahead");
        let mut store = ProfileStore::open(&dir).unwrap();
        store.put_profile(&sample_profile(6), None).unwrap();
        drop(store);
        let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        bytes[5..13].copy_from_slice(&9u64.to_le_bytes());
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        assert!(matches!(
            ProfileStore::open(&dir),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_tail_is_truncated_on_open() {
        let dir = temp_dir("tail");
        let mut store = ProfileStore::open(&dir).unwrap();
        let profile = sample_profile(7);
        store.put_profile(&profile, Some(3)).unwrap();
        drop(store);
        let wal_path = dir.join(WAL_FILE);
        let clean_len = std::fs::metadata(&wal_path).unwrap().len();
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&[0x5A; 37]);
        std::fs::write(&wal_path, &bytes).unwrap();
        let store = ProfileStore::open(&dir).unwrap();
        assert_eq!(store.recovery().wal_records_replayed, 1);
        assert_eq!(store.recovery().wal_bytes_truncated, 37);
        assert_eq!(
            *store.get(profile.content_fingerprint()).unwrap().profile,
            *profile
        );
        // The tail is physically gone, not just ignored.
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), clean_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_thread_count_invariant() {
        let dir = temp_dir("threads");
        let mut store = ProfileStore::open(&dir).unwrap();
        let profiles: Vec<_> = (0..6).map(sample_profile).collect();
        for (i, profile) in profiles.iter().enumerate() {
            store.put_profile(profile, Some(i as u64)).unwrap();
        }
        drop(store);
        let mut snapshots = Vec::new();
        for threads in [1usize, 2, 8] {
            let options = StoreOptions {
                parallelism: Parallelism::new(threads),
                ..StoreOptions::default()
            };
            let store = ProfileStore::open_with(&dir, options).unwrap();
            let snapshot: Vec<(u64, Option<u64>)> =
                store.iter().map(|(fp, e)| (fp, e.fit_key)).collect();
            snapshots.push(snapshot);
        }
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
