//! Write-ahead log framing: append path and crash-tolerant replay scan.
//!
//! The log is a header followed by length-and-checksum-framed records:
//!
//! ```text
//! header:  magic "MWAL" | version u8 | generation u64 LE      (13 bytes)
//! record:  payload_len u32 LE | fnv1a(payload) u64 LE | payload
//! ```
//!
//! The append path writes one whole frame, flushes, then
//! [`SyncWrite::sync`]s before reporting success — a record is either
//! acknowledged *and* durable, or not acknowledged at all. A crash
//! (`kill -9`, power loss) can therefore leave at most a torn final
//! frame, and [`scan_frames`] recovers the longest valid prefix: it stops
//! at the first frame that is short, oversized, or fails its checksum,
//! and reports the byte offset to truncate back to. Nothing after a torn
//! frame is trusted, even if it happens to re-frame — the log's contract
//! is prefix consistency, not salvage.
//!
//! The generation number in the header ties a log to the checkpoint it
//! extends; [`crate::ProfileStore`] documents the reconciliation rules.

use mocktails_trace::codec::ByteCursor;
use mocktails_trace::fault::SyncWrite;
use mocktails_trace::fnv1a;

use crate::StoreError;

/// First four bytes of every write-ahead log.
pub const WAL_MAGIC: [u8; 4] = *b"MWAL";

/// Current log format version.
pub const WAL_VERSION: u8 = 1;

/// Size of the log header in bytes.
pub const WAL_HEADER_LEN: u64 = 13;

/// Size of one record frame's header (length + checksum) in bytes.
pub const FRAME_HEADER_LEN: u64 = 12;

/// Encodes a log header for `generation`.
pub fn header_bytes(generation: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut header = [0u8; WAL_HEADER_LEN as usize];
    header[..4].copy_from_slice(&WAL_MAGIC);
    header[4] = WAL_VERSION;
    header[5..].copy_from_slice(&generation.to_le_bytes());
    header
}

/// The append half of the log, generic over the sink so the identical
/// code path runs against a real file in production and a
/// [`mocktails_trace::fault::FaultyWriter`] under fault injection.
///
/// After any write or sync failure the appender *wedges*: the on-disk
/// tail may be torn, so every later [`append`](Self::append) is refused
/// with [`StoreError::Wedged`] rather than risking interleaving good
/// frames after a bad one. Recovery is a log rewrite (compaction) or a
/// reopen-and-replay.
#[derive(Debug)]
pub struct WalAppender<S> {
    sink: S,
    bytes: u64,
    records: u64,
    wedged: bool,
}

impl<S: SyncWrite> WalAppender<S> {
    /// Wraps `sink`, which must be positioned at the end of a log already
    /// holding `bytes` bytes (header included) and `records` valid
    /// records.
    pub fn new(sink: S, bytes: u64, records: u64) -> Self {
        Self {
            sink,
            bytes,
            records,
            wedged: false,
        }
    }

    /// Appends one record frame and syncs it to stable storage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Wedged`] if a previous append failed;
    /// [`StoreError::Corrupt`] for a payload too large to frame;
    /// [`StoreError::Io`] for the underlying write/sync failure (which
    /// also wedges the appender).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        if self.wedged {
            return Err(StoreError::Wedged);
        }
        let len = u32::try_from(payload.len()).map_err(|_| {
            StoreError::Corrupt(format!(
                "record of {} bytes exceeds frame limit",
                payload.len()
            ))
        })?;
        let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN as usize);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let written = self
            .sink
            .write_all(&frame)
            .and_then(|()| self.sink.flush())
            .and_then(|()| self.sink.sync());
        if let Err(err) = written {
            self.wedged = true;
            return Err(StoreError::Io(err));
        }
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Total log bytes (header included) known durable.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended plus records the log already held at wrap time.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Whether a failed append has wedged this appender.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Unwraps the sink (test hook).
    pub fn into_inner(self) -> S {
        self.sink
    }
}

/// Outcome of parsing a log header from raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalHeader {
    /// A complete, recognised header.
    Valid {
        /// The checkpoint generation this log extends.
        generation: u64,
    },
    /// Fewer than [`WAL_HEADER_LEN`] bytes: the file's atomic creation
    /// never completed (or an empty placeholder), recoverable by
    /// resetting the log.
    Torn,
    /// A full-length header with the wrong magic or version — not a state
    /// any crash of this code can produce, so not recoverable.
    Foreign(String),
}

/// Parses the log header at the start of `bytes`.
pub fn read_header(bytes: &[u8]) -> WalHeader {
    let mut input = bytes;
    let mut c = ByteCursor::new(&mut input);
    let (Ok(magic), Ok(version), Ok(generation)) = (c.array::<4>(), c.u8(), c.u64()) else {
        return WalHeader::Torn;
    };
    if magic != WAL_MAGIC {
        return WalHeader::Foreign(format!("bad WAL magic {magic:02x?}"));
    }
    if version != WAL_VERSION {
        return WalHeader::Foreign(format!(
            "unsupported WAL version {version} (expected {WAL_VERSION})"
        ));
    }
    WalHeader::Valid { generation }
}

/// One structurally valid record recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Byte offset of the frame's length prefix within the log file —
    /// the truncation point if this record turns out to be the first
    /// invalid one.
    pub offset: u64,
    /// The framed payload (checksum already verified).
    pub payload: Vec<u8>,
}

/// Result of a structural replay scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Checksum-valid frames, in log order.
    pub frames: Vec<WalFrame>,
    /// Length of the valid prefix; anything past it is a torn tail to
    /// truncate away.
    pub valid_len: u64,
}

/// Scans the records after a [valid](WalHeader::Valid) header, stopping
/// at the first frame that is short, larger than `max_record_len`, or
/// fails its checksum. Never errors: any byte state maps to a (possibly
/// empty) consistent prefix, at most `bytes.len()` long.
pub fn scan_frames(bytes: &[u8], max_record_len: usize) -> WalScan {
    let mut frames = Vec::new();
    let mut rest = bytes.get(WAL_HEADER_LEN as usize..).unwrap_or_default();
    let mut c = ByteCursor::new(&mut rest);
    let valid_len = loop {
        let offset = (bytes.len() - c.len()) as u64;
        let (Ok(len), Ok(crc)) = (c.u32(), c.u64()) else {
            break offset;
        };
        if len as usize > max_record_len {
            break offset;
        }
        let Some(payload) = c.take(len as usize) else {
            break offset;
        };
        if fnv1a(payload) != crc {
            break offset;
        }
        frames.push(WalFrame {
            offset,
            payload: payload.to_vec(),
        });
    };
    WalScan { frames, valid_len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_trace::fault::{FaultPlan, FaultyWriter};

    const MAX: usize = 1 << 20;

    fn golden_log(payloads: &[&[u8]]) -> Vec<u8> {
        let mut log = header_bytes(3).to_vec();
        let mut appender = WalAppender::new(Vec::new(), WAL_HEADER_LEN, 0);
        for payload in payloads {
            appender.append(payload).unwrap();
        }
        log.extend_from_slice(&appender.into_inner());
        log
    }

    #[test]
    fn append_then_scan_round_trips() {
        let log = golden_log(&[b"alpha", b"", b"gamma-gamma"]);
        assert_eq!(read_header(&log), WalHeader::Valid { generation: 3 });
        let scan = scan_frames(&log, MAX);
        assert_eq!(scan.valid_len, log.len() as u64);
        let payloads: Vec<&[u8]> = scan.frames.iter().map(|f| f.payload.as_slice()).collect();
        assert_eq!(payloads, vec![&b"alpha"[..], &b""[..], &b"gamma-gamma"[..]]);
        // Frame offsets are the truncation points: cutting at one must
        // drop exactly that frame and its successors.
        assert_eq!(scan.frames[0].offset, WAL_HEADER_LEN);
        let cut = scan.frames[2].offset as usize;
        let rescan = scan_frames(&log[..cut], MAX);
        assert_eq!(rescan.frames.len(), 2);
        assert_eq!(rescan.valid_len, cut as u64);
    }

    #[test]
    fn every_truncation_recovers_a_consistent_prefix() {
        let log = golden_log(&[b"one", b"two-two", b"three"]);
        let full = scan_frames(&log, MAX);
        for cut in WAL_HEADER_LEN as usize..=log.len() {
            let scan = scan_frames(&log[..cut], MAX);
            // The recovered frames are exactly those wholly below the cut.
            let expected: Vec<_> = full
                .frames
                .iter()
                .enumerate()
                .take_while(|(i, frame)| {
                    let end = full
                        .frames
                        .get(i + 1)
                        .map_or(log.len() as u64, |next| next.offset);
                    frame.offset <= cut as u64 && end <= cut as u64
                })
                .map(|(_, frame)| frame.clone())
                .collect();
            assert_eq!(scan.frames, expected, "cut at {cut}");
            assert!(scan.valid_len <= cut as u64);
        }
    }

    #[test]
    fn garbage_and_bitflips_stop_the_scan() {
        let mut log = golden_log(&[b"first", b"second"]);
        let second = scan_frames(&log, MAX).frames[1].offset;
        // A flipped payload byte fails the checksum: scan keeps frame 0.
        log[second as usize + FRAME_HEADER_LEN as usize] ^= 0x40;
        let scan = scan_frames(&log, MAX);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, second);
        // A garbage tail claiming an absurd length also stops cleanly.
        let mut log = golden_log(&[b"first"]);
        let end = log.len() as u64;
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0xAA; 16]);
        let scan = scan_frames(&log, MAX);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, end);
    }

    #[test]
    fn header_states_are_distinguished() {
        assert_eq!(read_header(&[]), WalHeader::Torn);
        assert_eq!(read_header(&header_bytes(9)[..7]), WalHeader::Torn);
        assert!(matches!(
            read_header(b"XWAL_________"),
            WalHeader::Foreign(_)
        ));
        let mut versioned = header_bytes(0);
        versioned[4] = 99;
        assert!(matches!(read_header(&versioned), WalHeader::Foreign(_)));
    }

    #[test]
    fn failed_sync_wedges_the_appender() {
        let plan = FaultPlan {
            fsync_fail_after: Some(0),
            ..FaultPlan::none()
        };
        let sink = FaultyWriter::new(Vec::new(), plan, 7);
        let mut appender = WalAppender::new(sink, WAL_HEADER_LEN, 0);
        assert!(matches!(appender.append(b"doomed"), Err(StoreError::Io(_))));
        assert!(appender.is_wedged());
        assert!(matches!(appender.append(b"after"), Err(StoreError::Wedged)));
        // The unacknowledged tail must be treated as lost even though the
        // bytes reached the (non-durable) sink.
        assert_eq!(appender.bytes(), WAL_HEADER_LEN);
        assert_eq!(appender.records(), 0);
    }

    #[test]
    fn torn_write_leaves_a_recoverable_prefix() {
        // Tear mid-way through the second frame: replay must keep exactly
        // the first record.
        let good = golden_log(&[b"keep-me", b"lose-me"]);
        let tear_at = scan_frames(&good, MAX).frames[1].offset + 5 - WAL_HEADER_LEN;
        let plan = FaultPlan {
            torn_at: Some(tear_at),
            ..FaultPlan::none()
        };
        let sink = FaultyWriter::new(Vec::new(), plan, 11);
        let mut appender = WalAppender::new(sink, WAL_HEADER_LEN, 0);
        appender.append(b"keep-me").unwrap();
        assert!(appender.append(b"lose-me").is_err());
        assert!(appender.is_wedged());
        let mut log = header_bytes(3).to_vec();
        log.extend_from_slice(&appender.into_inner().into_inner());
        let scan = scan_frames(&log, MAX);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].payload, b"keep-me");
    }
}
