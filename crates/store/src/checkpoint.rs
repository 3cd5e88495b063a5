//! Checkpoint files: an atomic, digest-sealed snapshot of every live
//! record, written by compaction so the write-ahead log can be truncated.
//!
//! ```text
//! magic "MCKP" | version u8 | generation u64 LE | entry_count u64 LE
//! entries: payload_len u32 LE | payload         (entry_count times)
//! fnv1a digest u64 LE of every preceding byte
//! ```
//!
//! A checkpoint is built in one buffer and written through
//! [`AtomicFileWriter`] in one `write_all` (temp file, fsync, rename,
//! parent-directory fsync), so a crash mid-write leaves the
//! previous checkpoint — or none — fully intact; a *torn* checkpoint is
//! not a reachable state. The trailing digest therefore guards against
//! bit rot and foreign files, not crashes, and a mismatch is a hard
//! [`StoreError::Corrupt`] rather than something recovery silently
//! truncates.

use std::io::{self, Write};
use std::path::Path;

use mocktails_trace::codec::ByteCursor;
use mocktails_trace::fault::AtomicFileWriter;
use mocktails_trace::fnv1a;

use crate::StoreError;

/// First four bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"MCKP";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;

/// Fixed bytes before the entries: magic + version + generation + count.
const CHECKPOINT_HEADER_LEN: usize = 21;

/// A parsed checkpoint: the generation it seals and the record payloads
/// it snapshots (structural framing verified; record contents are the
/// caller's to validate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Generation stamped into the snapshot; the write-ahead log that
    /// extends it carries the same number.
    pub generation: u64,
    /// Snapshot record payloads, in the order they were written.
    pub payloads: Vec<Vec<u8>>,
}

/// Atomically writes a checkpoint of `payloads` at `generation`,
/// returning the file's size in bytes.
///
/// # Errors
///
/// [`StoreError::Corrupt`] for a payload too large to frame;
/// [`StoreError::Io`] for any underlying failure (in which case the
/// previous checkpoint, if any, is untouched).
pub fn write_checkpoint(
    path: &Path,
    generation: u64,
    payloads: &[Vec<u8>],
) -> Result<u64, StoreError> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&CHECKPOINT_MAGIC);
    bytes.push(CHECKPOINT_VERSION);
    bytes.extend_from_slice(&generation.to_le_bytes());
    bytes.extend_from_slice(&(payloads.len() as u64).to_le_bytes());
    for payload in payloads {
        let len = u32::try_from(payload.len()).map_err(|_| {
            StoreError::Corrupt(format!(
                "checkpoint entry of {} bytes exceeds frame limit",
                payload.len()
            ))
        })?;
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    let digest = fnv1a(&bytes);
    bytes.extend_from_slice(&digest.to_le_bytes());
    let mut file = AtomicFileWriter::create(path)?;
    file.write_all(&bytes)?;
    file.commit()?;
    Ok(bytes.len() as u64)
}

/// Reads and verifies the checkpoint at `path`; `Ok(None)` if the file
/// does not exist (a store that has never compacted).
///
/// # Errors
///
/// [`StoreError::Corrupt`] for a digest mismatch, structural damage, or
/// an entry larger than `max_record_len`; [`StoreError::Io`] for read
/// failures other than not-found.
pub fn read_checkpoint(
    path: &Path,
    max_record_len: usize,
) -> Result<Option<Checkpoint>, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(StoreError::Io(err)),
    };
    let corrupt = |what: &str| StoreError::Corrupt(format!("checkpoint {what}"));
    let (mut body, digest) = match bytes.split_last_chunk::<8>() {
        Some((body, digest)) if body.len() >= CHECKPOINT_HEADER_LEN => {
            (body, u64::from_le_bytes(*digest))
        }
        _ => return Err(corrupt("shorter than its fixed header")),
    };
    if fnv1a(body) != digest {
        return Err(corrupt("digest mismatch"));
    }
    let mut c = ByteCursor::new(&mut body);
    let (Ok(magic), Ok(version), Ok(generation), Ok(count)) =
        (c.array::<4>(), c.u8(), c.u64(), c.u64())
    else {
        return Err(corrupt("shorter than its fixed header"));
    };
    if magic != CHECKPOINT_MAGIC {
        return Err(corrupt("magic mismatch"));
    }
    if version != CHECKPOINT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )));
    }
    let mut payloads = Vec::new();
    for index in 0..count {
        let len = c
            .u32()
            .map_err(|_| corrupt("truncated inside an entry length"))? as usize;
        if len > max_record_len {
            return Err(StoreError::Corrupt(format!(
                "checkpoint entry {index} of {len} bytes exceeds the record limit"
            )));
        }
        let payload = c
            .take(len)
            .ok_or_else(|| corrupt("truncated inside an entry payload"))?;
        payloads.push(payload.to_vec());
    }
    if !c.is_empty() {
        return Err(corrupt("has trailing bytes after its last entry"));
    }
    Ok(Some(Checkpoint {
        generation,
        payloads,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mocktails-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_and_reports_size() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("checkpoint.mstore");
        let payloads = vec![b"one".to_vec(), Vec::new(), b"three".to_vec()];
        let bytes = write_checkpoint(&path, 7, &payloads).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let back = read_checkpoint(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(back.generation, 7);
        assert_eq!(back.payloads, payloads);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_file_reads_as_none() {
        let dir = temp_dir("absent");
        assert!(read_checkpoint(&dir.join("nope"), 1 << 20)
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_damage_is_a_hard_error() {
        let dir = temp_dir("damage");
        let path = dir.join("checkpoint.mstore");
        write_checkpoint(&path, 1, &[b"payload".to_vec()]).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Flip every byte in turn: either the digest catches it or (for
        // the digest's own bytes) the re-hash disagrees.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let err = read_checkpoint(&path, 1 << 20).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "byte {i}: {err}");
        }
        // Truncation anywhere is also corruption, never silent.
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(
                read_checkpoint(&path, 1 << 20).is_err(),
                "truncated at {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_entries_are_rejected_on_read() {
        let dir = temp_dir("oversize");
        let path = dir.join("checkpoint.mstore");
        write_checkpoint(&path, 1, &[vec![0u8; 64]]).unwrap();
        assert!(matches!(
            read_checkpoint(&path, 16),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
