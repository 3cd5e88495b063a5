//! Versioned request/response messages carried in frame payloads.
//!
//! Every payload is `tag u8` followed by tag-specific fields. Fixed-width
//! integers are little-endian; the *final* variable-length field of a
//! message is the remainder of the payload, so no message carries a
//! redundant inner length that could disagree with the frame's.
//!
//! ```text
//! requests                              responses
//! 1 Hello      { version u32 }          1 HelloOk    { version u32 }
//! 2 FitProfile { cycles u64,            2 FitResult  { fingerprint u64,
//!                trace bytes* }                        cache_hit u8,
//!                                                      profile bytes* }
//! 3 Synthesize { seed u64,              3 SynthStart { total u64 }
//!                chunk_len u32,         4 SynthChunk { count u32, records* }
//!                source }               5 SynthEnd   { total u64,
//! 4 Stats      { source }                              fingerprint u64 }
//! 5 Metricsz                            6 StatsText  { text* }
//! 6 Shutdown                            7 MetricsText{ text* }
//! 7 Ack                                 8 ShutdownOk
//! 8 Cancel                              9 Error      { code u8, message* }
//! 9 Compact                            10 CompactOk  { generation u64,
//! 10 CoupledSynthesize                                 profiles u64,
//!              { seed u64,                             checkpoint_bytes u64,
//!                chunk_len u32,                        wal_bytes_dropped u64 }
//!                source }              11 CoupledChunk { count u32,
//!                                                       simulated_cycles u64,
//!                                                       stall_cycles u64,
//!                                                       records* }
//! ```
//!
//! `source` is `0` + fingerprint u64 (cache reference) or `1` + profile
//! bytes to end of payload (inline upload). Decoding is pure — no I/O, no
//! allocation proportional to declared-but-absent bytes — which makes the
//! whole parser directly fuzzable (see `tests/fuzz_frames.rs`).

use crate::error::{ErrorCode, ServeError};

/// Version of the message set defined in this module; negotiated by
/// `Hello`/`HelloOk` before anything else is processed.
pub const PROTOCOL_VERSION: u32 = 4;

/// Where a `Synthesize`/`Stats` request finds its profile.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileSource {
    /// A profile already resident in the server's cache, addressed by the
    /// content fingerprint a previous `FitResult` reported.
    Fingerprint(u64),
    /// An encoded profile uploaded inline with the request.
    Inline(Vec<u8>),
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Protocol handshake; must be the first frame on a connection.
    Hello {
        /// The client's protocol version.
        version: u32,
    },
    /// Upload encoded trace bytes, fit a profile, get the encoding back.
    FitProfile {
        /// Temporal window (cycles) for the hierarchy's first layer.
        cycles: u64,
        /// The encoded trace (`mocktails_trace::codec` format).
        trace_bytes: Vec<u8>,
    },
    /// Stream a synthesized trace, chunk by acknowledged chunk.
    Synthesize {
        /// Synthesis seed.
        seed: u64,
        /// Requests per `SynthChunk` frame (0 is rejected).
        chunk_len: u32,
        /// The profile to synthesize from.
        source: ProfileSource,
    },
    /// Render a profile's composition summary as text.
    Stats {
        /// The profile to summarize.
        source: ProfileSource,
    },
    /// Render the server's metrics registry as text.
    Metricsz,
    /// Begin graceful shutdown: drain in-flight work, then exit.
    Shutdown,
    /// Client-driven backpressure: release the next `SynthChunk`.
    Ack,
    /// Abandon the in-flight streaming request on this connection.
    Cancel,
    /// Admin: checkpoint the persistent store and truncate its
    /// write-ahead log. Answered `CompactOk`, or `NotFound` when the
    /// server runs without a store.
    Compact,
    /// Stream a synthesized trace with the generator coupled to the DRAM
    /// simulator (the paper's Fig. 1 Option B): the server injects every
    /// request into `mocktails-dram` as it is synthesized, feeds stalls
    /// back into the generator's timestamps, and each chunk reports the
    /// simulated time reached.
    CoupledSynthesize {
        /// Synthesis seed.
        seed: u64,
        /// Requests per `CoupledChunk` frame (0 is rejected).
        chunk_len: u32,
        /// The profile to synthesize from.
        source: ProfileSource,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The server's protocol version.
        version: u32,
    },
    /// A completed fit.
    FitResult {
        /// Content fingerprint of the profile (cache key for later
        /// `Synthesize { source: Fingerprint }` requests).
        fingerprint: u64,
        /// Whether the fit was served from the profile cache.
        cache_hit: bool,
        /// The encoded profile.
        profile_bytes: Vec<u8>,
    },
    /// Stream opening: the exact number of requests that will follow.
    SynthStart {
        /// Total requests across all chunks.
        total_requests: u64,
    },
    /// One chunk of encoded trace records (no header; concatenating all
    /// chunks yields the record section of a whole-trace encoding).
    SynthChunk {
        /// Requests encoded in this chunk.
        count: u32,
        /// The records, `mocktails_trace::codec::RecordEncoder` format.
        records: Vec<u8>,
    },
    /// Clean end of stream.
    SynthEnd {
        /// Total requests streamed.
        total_requests: u64,
        /// Order-sensitive fingerprint of the streamed requests, for
        /// client-side integrity verification.
        fingerprint: u64,
    },
    /// Profile summary text.
    StatsText {
        /// Human-readable summary.
        text: String,
    },
    /// Metrics registry rendering.
    MetricsText {
        /// Deterministic text rendering of every metric.
        text: String,
    },
    /// Shutdown acknowledged; the server is draining.
    ShutdownOk,
    /// A completed store compaction.
    CompactOk {
        /// The store's new checkpoint/log generation.
        generation: u64,
        /// Profiles snapshotted into the checkpoint.
        profiles: u64,
        /// Size of the new checkpoint file in bytes.
        checkpoint_bytes: u64,
        /// Write-ahead-log payload bytes dropped by the truncation.
        wal_bytes_dropped: u64,
    },
    /// A typed failure; the connection stays usable unless the transport
    /// itself broke.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// One chunk of a coupled (Option B) stream: the records plus the
    /// simulated-time backpressure the DRAM model exerted on them.
    CoupledChunk {
        /// Requests encoded in this chunk.
        count: u32,
        /// Simulated cycle count reached by the last request in the
        /// chunk (its issue timestamp including fed-back stalls).
        simulated_cycles: u64,
        /// Cumulative stall cycles the generator has absorbed so far.
        stall_cycles: u64,
        /// The records, `mocktails_trace::codec::RecordEncoder` format.
        records: Vec<u8>,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A zero-copy cursor over a payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn u8(&mut self, what: &str) -> Result<u8, ServeError> {
        let (&b, rest) = self
            .bytes
            .split_first()
            .ok_or_else(|| ServeError::Protocol(format!("payload ends before {what}")))?;
        self.bytes = rest;
        Ok(b)
    }

    fn u32(&mut self, what: &str) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], ServeError> {
        if self.bytes.len() < N {
            return Err(ServeError::Protocol(format!(
                "payload ends before {what} ({} of {N} bytes)",
                self.bytes.len()
            )));
        }
        let (head, rest) = self.bytes.split_at(N);
        self.bytes = rest;
        let mut out = [0u8; N];
        out.copy_from_slice(head);
        Ok(out)
    }

    /// Consumes the remainder of the payload (the final variable field).
    fn rest(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.bytes).to_vec()
    }

    fn rest_utf8(&mut self, what: &str) -> Result<String, ServeError> {
        String::from_utf8(self.rest())
            .map_err(|_| ServeError::Protocol(format!("{what} is not valid UTF-8")))
    }

    fn finish(&self, what: &str) -> Result<(), ServeError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes after {what}",
                self.bytes.len()
            )))
        }
    }
}

impl ProfileSource {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Fingerprint(fp) => {
                buf.push(0);
                put_u64(buf, *fp);
            }
            Self::Inline(bytes) => {
                buf.push(1);
                buf.extend_from_slice(bytes);
            }
        }
    }

    fn decode_from(cursor: &mut Cursor<'_>) -> Result<Self, ServeError> {
        match cursor.u8("profile source kind")? {
            0 => Ok(Self::Fingerprint(cursor.u64("profile fingerprint")?)),
            1 => Ok(Self::Inline(cursor.rest())),
            k => Err(ServeError::Protocol(format!(
                "unknown profile source kind {k}"
            ))),
        }
    }
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Self::Hello { version } => {
                buf.push(1);
                put_u32(&mut buf, *version);
            }
            Self::FitProfile {
                cycles,
                trace_bytes,
            } => {
                buf.push(2);
                put_u64(&mut buf, *cycles);
                buf.extend_from_slice(trace_bytes);
            }
            Self::Synthesize {
                seed,
                chunk_len,
                source,
            } => {
                buf.push(3);
                put_u64(&mut buf, *seed);
                put_u32(&mut buf, *chunk_len);
                source.encode_into(&mut buf);
            }
            Self::Stats { source } => {
                buf.push(4);
                source.encode_into(&mut buf);
            }
            Self::Metricsz => buf.push(5),
            Self::Shutdown => buf.push(6),
            Self::Ack => buf.push(7),
            Self::Cancel => buf.push(8),
            Self::Compact => buf.push(9),
            Self::CoupledSynthesize {
                seed,
                chunk_len,
                source,
            } => {
                buf.push(10);
                put_u64(&mut buf, *seed);
                put_u32(&mut buf, *chunk_len);
                source.encode_into(&mut buf);
            }
        }
        buf
    }

    /// Decodes a frame payload as a request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for an empty payload, unknown tag, short
    /// body, or trailing bytes after a fixed-size message.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        let tag = c.u8("request tag")?;
        let request = match tag {
            1 => {
                let version = c.u32("hello version")?;
                c.finish("hello")?;
                Self::Hello { version }
            }
            2 => Self::FitProfile {
                cycles: c.u64("fit cycles")?,
                trace_bytes: c.rest(),
            },
            3 => Self::Synthesize {
                seed: c.u64("synthesize seed")?,
                chunk_len: c.u32("synthesize chunk length")?,
                source: ProfileSource::decode_from(&mut c)?,
            },
            4 => Self::Stats {
                source: ProfileSource::decode_from(&mut c)?,
            },
            5 => {
                c.finish("metricsz")?;
                Self::Metricsz
            }
            6 => {
                c.finish("shutdown")?;
                Self::Shutdown
            }
            7 => {
                c.finish("ack")?;
                Self::Ack
            }
            8 => {
                c.finish("cancel")?;
                Self::Cancel
            }
            9 => {
                c.finish("compact")?;
                Self::Compact
            }
            10 => Self::CoupledSynthesize {
                seed: c.u64("coupled seed")?,
                chunk_len: c.u32("coupled chunk length")?,
                source: ProfileSource::decode_from(&mut c)?,
            },
            t => return Err(ServeError::Protocol(format!("unknown request tag {t}"))),
        };
        Ok(request)
    }
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Self::HelloOk { version } => {
                buf.push(1);
                put_u32(&mut buf, *version);
            }
            Self::FitResult {
                fingerprint,
                cache_hit,
                profile_bytes,
            } => {
                buf.push(2);
                put_u64(&mut buf, *fingerprint);
                buf.push(u8::from(*cache_hit));
                buf.extend_from_slice(profile_bytes);
            }
            Self::SynthStart { total_requests } => {
                buf.push(3);
                put_u64(&mut buf, *total_requests);
            }
            Self::SynthChunk { count, records } => {
                buf.push(4);
                put_u32(&mut buf, *count);
                buf.extend_from_slice(records);
            }
            Self::SynthEnd {
                total_requests,
                fingerprint,
            } => {
                buf.push(5);
                put_u64(&mut buf, *total_requests);
                put_u64(&mut buf, *fingerprint);
            }
            Self::StatsText { text } => {
                buf.push(6);
                buf.extend_from_slice(text.as_bytes());
            }
            Self::MetricsText { text } => {
                buf.push(7);
                buf.extend_from_slice(text.as_bytes());
            }
            Self::ShutdownOk => buf.push(8),
            Self::Error { code, message } => {
                buf.push(9);
                buf.push(code.as_byte());
                buf.extend_from_slice(message.as_bytes());
            }
            Self::CompactOk {
                generation,
                profiles,
                checkpoint_bytes,
                wal_bytes_dropped,
            } => {
                buf.push(10);
                put_u64(&mut buf, *generation);
                put_u64(&mut buf, *profiles);
                put_u64(&mut buf, *checkpoint_bytes);
                put_u64(&mut buf, *wal_bytes_dropped);
            }
            Self::CoupledChunk {
                count,
                simulated_cycles,
                stall_cycles,
                records,
            } => {
                buf.push(11);
                put_u32(&mut buf, *count);
                put_u64(&mut buf, *simulated_cycles);
                put_u64(&mut buf, *stall_cycles);
                buf.extend_from_slice(records);
            }
        }
        buf
    }

    /// Decodes a frame payload as a response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for an empty payload, unknown tag, short
    /// body, unknown error code, or trailing bytes after a fixed-size
    /// message.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        let tag = c.u8("response tag")?;
        let response = match tag {
            1 => {
                let version = c.u32("hello version")?;
                c.finish("hello-ok")?;
                Self::HelloOk { version }
            }
            2 => Self::FitResult {
                fingerprint: c.u64("fit fingerprint")?,
                cache_hit: c.u8("fit cache-hit flag")? != 0,
                profile_bytes: c.rest(),
            },
            3 => {
                let total_requests = c.u64("synth total")?;
                c.finish("synth-start")?;
                Self::SynthStart { total_requests }
            }
            4 => Self::SynthChunk {
                count: c.u32("chunk count")?,
                records: c.rest(),
            },
            5 => {
                let total_requests = c.u64("synth total")?;
                let fingerprint = c.u64("synth fingerprint")?;
                c.finish("synth-end")?;
                Self::SynthEnd {
                    total_requests,
                    fingerprint,
                }
            }
            6 => Self::StatsText {
                text: c.rest_utf8("stats text")?,
            },
            7 => Self::MetricsText {
                text: c.rest_utf8("metrics text")?,
            },
            8 => {
                c.finish("shutdown-ok")?;
                Self::ShutdownOk
            }
            9 => {
                let byte = c.u8("error code")?;
                let code = ErrorCode::from_byte(byte)
                    .ok_or_else(|| ServeError::Protocol(format!("unknown error code {byte}")))?;
                Self::Error {
                    code,
                    message: c.rest_utf8("error message")?,
                }
            }
            10 => {
                let generation = c.u64("compact generation")?;
                let profiles = c.u64("compact profile count")?;
                let checkpoint_bytes = c.u64("compact checkpoint bytes")?;
                let wal_bytes_dropped = c.u64("compact dropped bytes")?;
                c.finish("compact-ok")?;
                Self::CompactOk {
                    generation,
                    profiles,
                    checkpoint_bytes,
                    wal_bytes_dropped,
                }
            }
            11 => Self::CoupledChunk {
                count: c.u32("coupled chunk count")?,
                simulated_cycles: c.u64("coupled simulated cycles")?,
                stall_cycles: c.u64("coupled stall cycles")?,
                records: c.rest(),
            },
            t => return Err(ServeError::Protocol(format!("unknown response tag {t}"))),
        };
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_corpus() -> Vec<Request> {
        vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::FitProfile {
                cycles: 500_000,
                trace_bytes: vec![1, 2, 3, 4, 5],
            },
            Request::FitProfile {
                cycles: 0,
                trace_bytes: Vec::new(),
            },
            Request::Synthesize {
                seed: 42,
                chunk_len: 4096,
                source: ProfileSource::Fingerprint(0xdead_beef),
            },
            Request::Synthesize {
                seed: u64::MAX,
                chunk_len: 1,
                source: ProfileSource::Inline(vec![9; 64]),
            },
            Request::Stats {
                source: ProfileSource::Fingerprint(7),
            },
            Request::Stats {
                source: ProfileSource::Inline(Vec::new()),
            },
            Request::Metricsz,
            Request::Shutdown,
            Request::Ack,
            Request::Cancel,
            Request::Compact,
            Request::CoupledSynthesize {
                seed: 11,
                chunk_len: 256,
                source: ProfileSource::Fingerprint(0xfeed),
            },
            Request::CoupledSynthesize {
                seed: 0,
                chunk_len: u32::MAX,
                source: ProfileSource::Inline(vec![3; 12]),
            },
        ]
    }

    fn response_corpus() -> Vec<Response> {
        vec![
            Response::HelloOk {
                version: PROTOCOL_VERSION,
            },
            Response::FitResult {
                fingerprint: 0x0123_4567_89ab_cdef,
                cache_hit: true,
                profile_bytes: vec![77; 9],
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
                text: "requests_total 7\n".into(),
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
            Response::CoupledChunk {
                count: 0,
                simulated_cycles: 0,
                stall_cycles: 0,
                records: Vec::new(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in request_corpus() {
            let back = Request::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in response_corpus() {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            Request::decode(&[0]),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            Request::decode(&[250]),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            Response::decode(&[0]),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn trailing_bytes_after_fixed_messages_rejected() {
        for fixed in [
            Request::Metricsz,
            Request::Shutdown,
            Request::Ack,
            Request::Cancel,
            Request::Compact,
        ] {
            let mut payload = fixed.encode();
            payload.push(0);
            assert!(Request::decode(&payload).is_err(), "{fixed:?}");
        }
        let mut payload = Response::ShutdownOk.encode();
        payload.push(1);
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn short_bodies_rejected() {
        // Synthesize cut inside the seed.
        assert!(Request::decode(&[3, 1, 2]).is_err());
        // Stats with a fingerprint source cut inside the fingerprint.
        assert!(Request::decode(&[4, 0, 1, 2, 3]).is_err());
        // FitProfile cut inside the cycle window.
        assert!(Request::decode(&[2, 0, 0, 0, 0, 9]).is_err());
        // CoupledSynthesize cut inside the seed.
        assert!(Request::decode(&[10, 1, 2]).is_err());
        // CoupledChunk cut inside the simulated-cycle counter.
        assert!(Response::decode(&[11, 1, 0, 0, 0, 5]).is_err());
        // Error response with an unknown code byte.
        assert!(Response::decode(&[9, 0]).is_err());
    }

    #[test]
    fn non_utf8_text_rejected() {
        let mut payload = vec![6u8];
        payload.extend_from_slice(&[0xff, 0xfe]);
        assert!(Response::decode(&payload).is_err());
    }
}
