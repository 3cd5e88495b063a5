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

use mocktails_trace::codec::ByteCursor;

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
    /// One credit: the server encodes one chunk per banked ack, so a
    /// client may ack ahead of the chunks it has read (the last credit
    /// releases `SynthEnd`).
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

// Payload fields are read through the workspace's one byte cursor; these
// helpers give a short or malformed field the protocol's own message.

fn byte(c: &mut ByteCursor<'_, '_>, what: &str) -> Result<u8, ServeError> {
    c.u8()
        .map_err(|_| ServeError::Protocol(format!("payload ends before {what}")))
}

fn field<const N: usize>(c: &mut ByteCursor<'_, '_>, what: &str) -> Result<[u8; N], ServeError> {
    let have = c.len();
    c.array().map_err(|_| {
        ServeError::Protocol(format!("payload ends before {what} ({have} of {N} bytes)"))
    })
}

fn u32_field(c: &mut ByteCursor<'_, '_>, what: &str) -> Result<u32, ServeError> {
    field(c, what).map(u32::from_le_bytes)
}

fn u64_field(c: &mut ByteCursor<'_, '_>, what: &str) -> Result<u64, ServeError> {
    field(c, what).map(u64::from_le_bytes)
}

/// The remainder of the payload as text (the final variable field).
fn text(c: &mut ByteCursor<'_, '_>, what: &str) -> Result<String, ServeError> {
    std::str::from_utf8(c.rest())
        .map(str::to_owned)
        .map_err(|_| ServeError::Protocol(format!("{what} is not valid UTF-8")))
}

/// Rejects bytes left after a fixed-size message.
fn finish(c: &ByteCursor<'_, '_>, what: &str) -> Result<(), ServeError> {
    if c.is_empty() {
        Ok(())
    } else {
        Err(ServeError::Protocol(format!(
            "{} trailing bytes after {what}",
            c.len()
        )))
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

    fn decode_from(c: &mut ByteCursor<'_, '_>) -> Result<Self, ServeError> {
        match byte(c, "profile source kind")? {
            0 => Ok(Self::Fingerprint(u64_field(c, "profile fingerprint")?)),
            1 => Ok(Self::Inline(c.rest().to_vec())),
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
        let mut input = payload;
        let mut c = ByteCursor::new(&mut input);
        let tag = byte(&mut c, "request tag")?;
        let request = match tag {
            1 => {
                let version = u32_field(&mut c, "hello version")?;
                finish(&c, "hello")?;
                Self::Hello { version }
            }
            2 => Self::FitProfile {
                cycles: u64_field(&mut c, "fit cycles")?,
                trace_bytes: c.rest().to_vec(),
            },
            3 => Self::Synthesize {
                seed: u64_field(&mut c, "synthesize seed")?,
                chunk_len: u32_field(&mut c, "synthesize chunk length")?,
                source: ProfileSource::decode_from(&mut c)?,
            },
            4 => Self::Stats {
                source: ProfileSource::decode_from(&mut c)?,
            },
            5 => {
                finish(&c, "metricsz")?;
                Self::Metricsz
            }
            6 => {
                finish(&c, "shutdown")?;
                Self::Shutdown
            }
            7 => {
                finish(&c, "ack")?;
                Self::Ack
            }
            8 => {
                finish(&c, "cancel")?;
                Self::Cancel
            }
            9 => {
                finish(&c, "compact")?;
                Self::Compact
            }
            10 => Self::CoupledSynthesize {
                seed: u64_field(&mut c, "coupled seed")?,
                chunk_len: u32_field(&mut c, "coupled chunk length")?,
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
        let mut input = payload;
        let mut c = ByteCursor::new(&mut input);
        let tag = byte(&mut c, "response tag")?;
        let response = match tag {
            1 => {
                let version = u32_field(&mut c, "hello version")?;
                finish(&c, "hello-ok")?;
                Self::HelloOk { version }
            }
            2 => Self::FitResult {
                fingerprint: u64_field(&mut c, "fit fingerprint")?,
                cache_hit: byte(&mut c, "fit cache-hit flag")? != 0,
                profile_bytes: c.rest().to_vec(),
            },
            3 => {
                let total_requests = u64_field(&mut c, "synth total")?;
                finish(&c, "synth-start")?;
                Self::SynthStart { total_requests }
            }
            4 => Self::SynthChunk {
                count: u32_field(&mut c, "chunk count")?,
                records: c.rest().to_vec(),
            },
            5 => {
                let total_requests = u64_field(&mut c, "synth total")?;
                let fingerprint = u64_field(&mut c, "synth fingerprint")?;
                finish(&c, "synth-end")?;
                Self::SynthEnd {
                    total_requests,
                    fingerprint,
                }
            }
            6 => Self::StatsText {
                text: text(&mut c, "stats text")?,
            },
            7 => Self::MetricsText {
                text: text(&mut c, "metrics text")?,
            },
            8 => {
                finish(&c, "shutdown-ok")?;
                Self::ShutdownOk
            }
            9 => {
                let byte = byte(&mut c, "error code")?;
                let code = ErrorCode::from_byte(byte)
                    .ok_or_else(|| ServeError::Protocol(format!("unknown error code {byte}")))?;
                Self::Error {
                    code,
                    message: text(&mut c, "error message")?,
                }
            }
            10 => {
                let generation = u64_field(&mut c, "compact generation")?;
                let profiles = u64_field(&mut c, "compact profile count")?;
                let checkpoint_bytes = u64_field(&mut c, "compact checkpoint bytes")?;
                let wal_bytes_dropped = u64_field(&mut c, "compact dropped bytes")?;
                finish(&c, "compact-ok")?;
                Self::CompactOk {
                    generation,
                    profiles,
                    checkpoint_bytes,
                    wal_bytes_dropped,
                }
            }
            11 => Self::CoupledChunk {
                count: u32_field(&mut c, "coupled chunk count")?,
                simulated_cycles: u64_field(&mut c, "coupled simulated cycles")?,
                stall_cycles: u64_field(&mut c, "coupled stall cycles")?,
                records: c.rest().to_vec(),
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
