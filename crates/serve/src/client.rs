//! A synchronous client for the serving protocol.
//!
//! [`Client`] speaks the framed protocol over one TCP connection:
//! handshake on connect, then any number of requests. The streaming
//! `Synthesize` response can be consumed two ways:
//!
//! * [`Client::synthesize`] — auto-acks every chunk, reassembles a
//!   complete whole-trace encoding, and verifies the server's
//!   end-of-stream fingerprint by replaying the records through the
//!   codec. The returned bytes are byte-identical to what the offline
//!   [`mocktails_core::Profile::synthesize`] path writes.
//! * [`Client::begin_synthesize`] — hands back a [`SynthStream`] whose
//!   acks the caller sends explicitly, for consumers that want real
//!   backpressure (or tests that withhold acks on purpose).
//!
//! Every stream runs a credit window: each `Ack` is one credit, and the
//! server encodes one chunk per banked credit. On `SynthStart` the client
//! sends up to `WINDOW - 1` credits at once, then one more per chunk it
//! takes, so the server runs up to `WINDOW` chunks ahead of the reader
//! instead of paying one round trip per chunk. The client never sends more
//! credits than the stream will consume — one per chunk, the last one
//! releasing `SynthEnd` — so a stream that ends normally or by
//! [`SynthStream::cancel`] leaves no ack behind and the connection stays
//! reusable.
//!
//! The coupled (Option B) stream is the same stream with a richer chunk:
//! [`Client::couple`] and [`Client::begin_couple`] mirror the two calls
//! above, and [`SynthStream`]`<'_, CoupledChunk>` carries each chunk's
//! simulated-time backpressure alongside its records.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

use mocktails_trace::codec::{write_u64, RecordDecoder, CODEC_VERSION, TRACE_MAGIC};
use mocktails_trace::Fingerprinter;

use crate::error::ServeError;
use crate::frame::{read_frame, write_frame};
use crate::protocol::{ProfileSource, Request, Response, PROTOCOL_VERSION};

/// Result of a `FitProfile` request.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// Content fingerprint of the fitted profile; later `Synthesize` and
    /// `Stats` requests can name the profile by it.
    pub fingerprint: u64,
    /// Whether the server answered from its profile cache.
    pub cache_hit: bool,
    /// The encoded profile bytes.
    pub profile_bytes: Vec<u8>,
}

/// Result of a fully-consumed `Synthesize` request.
#[derive(Debug, Clone)]
pub struct SynthOutcome {
    /// A complete whole-trace encoding (header + records), byte-identical
    /// to the offline synthesis path's output for the same profile/seed.
    pub trace_bytes: Vec<u8>,
    /// Requests in the trace.
    pub total_requests: u64,
    /// The server's order-sensitive request fingerprint (verified against
    /// a local replay before this outcome is returned).
    pub fingerprint: u64,
}

/// Result of a fully-consumed `CoupledSynthesize` request.
#[derive(Debug, Clone)]
pub struct CoupledOutcome {
    /// A complete whole-trace encoding (header + records) whose
    /// timestamps carry the DRAM model's fed-back stalls — byte-identical
    /// to the offline `MemorySystem::run_synthesizer` path's trace.
    pub trace_bytes: Vec<u8>,
    /// Requests in the trace.
    pub total_requests: u64,
    /// The server's order-sensitive request fingerprint (verified against
    /// a local replay before this outcome is returned).
    pub fingerprint: u64,
    /// Simulated cycle count the stream reached (last request's issue
    /// timestamp, including stalls).
    pub simulated_cycles: u64,
    /// Total stall cycles the DRAM model fed back into the generator.
    pub stall_cycles: u64,
}

/// One chunk of a coupled stream, as received by [`Client::begin_couple`]'s
/// [`SynthStream`].
#[derive(Debug, Clone)]
pub struct CoupledChunk {
    /// Requests encoded in `records`.
    pub count: u32,
    /// Simulated cycles reached by the last request in the chunk.
    pub simulated_cycles: u64,
    /// Cumulative stall cycles fed back so far.
    pub stall_cycles: u64,
    /// The chunk's record bytes.
    pub records: Vec<u8>,
}

/// Result of a `Compact` request: the store checkpointed and truncated
/// its write-ahead log.
#[derive(Debug, Clone, Copy)]
pub struct CompactOutcome {
    /// Store generation after the compaction.
    pub generation: u64,
    /// Live profiles captured in the checkpoint.
    pub profiles: u64,
    /// Size of the checkpoint file, in bytes.
    pub checkpoint_bytes: u64,
    /// Log bytes reclaimed by the truncation.
    pub wal_bytes_dropped: u64,
}

/// Inbound frame size limit of a [`Client`]: the server's default
/// `max_frame_len`, so any response a default server sends fits.
const MAX_FRAME_LEN: usize = 64 << 20;

/// Chunks a stream keeps in flight: the client stays `WINDOW - 1` acks
/// ahead of the chunk it is reading.
const WINDOW: u64 = 8;

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.reader.get_ref().peer_addr().ok())
            .finish()
    }
}

impl Client {
    /// Connects to `addr` and performs the protocol handshake.
    ///
    /// # Errors
    ///
    /// Connection failures, or a typed [`ServeError::Remote`] if the
    /// server rejects the protocol version.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Self {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        };
        client.send(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match client.recv()? {
            Response::HelloOk { .. } => Ok(client),
            other => Err(unexpected("hello-ok", &other)),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ServeError> {
        write_frame(&mut self.writer, &request.encode())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Sends `count` `Ack` frames in one flush.
    fn send_acks(&mut self, count: u64) -> Result<(), ServeError> {
        let ack = Request::Ack.encode();
        for _ in 0..count {
            write_frame(&mut self.writer, &ack)?;
        }
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ServeError> {
        match read_frame(&mut self.reader, MAX_FRAME_LEN)? {
            Some(payload) => Response::decode(&payload),
            None => Err(ServeError::Frame("connection closed mid-exchange".into())),
        }
    }

    /// Uploads encoded trace bytes and fits a profile server-side.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server's typed error as
    /// [`ServeError::Remote`].
    pub fn fit(&mut self, cycles: u64, trace_bytes: Vec<u8>) -> Result<FitOutcome, ServeError> {
        self.send(&Request::FitProfile {
            cycles,
            trace_bytes,
        })?;
        match self.recv()? {
            Response::FitResult {
                fingerprint,
                cache_hit,
                profile_bytes,
            } => Ok(FitOutcome {
                fingerprint,
                cache_hit,
                profile_bytes,
            }),
            other => Err(unexpected("fit-result", &other)),
        }
    }

    /// Streams a full synthesis, acking every chunk, and returns the
    /// reassembled whole-trace encoding after verifying the server's
    /// stream fingerprint against a local replay of the record bytes.
    ///
    /// # Errors
    ///
    /// Transport failures, the server's typed error, or
    /// [`ServeError::Protocol`] if the fingerprint check fails.
    pub fn synthesize(
        &mut self,
        seed: u64,
        chunk_len: u32,
        source: ProfileSource,
    ) -> Result<SynthOutcome, ServeError> {
        self.begin_synthesize(seed, chunk_len, source)?
            .drain(|records| records)
    }

    /// Streams a full coupled (Option B) synthesis, acking every chunk,
    /// and returns the reassembled paced trace plus the simulated-time
    /// totals the DRAM model reported.
    ///
    /// # Errors
    ///
    /// Transport failures, the server's typed error, or
    /// [`ServeError::Protocol`] if the fingerprint check fails.
    pub fn couple(
        &mut self,
        seed: u64,
        chunk_len: u32,
        source: ProfileSource,
    ) -> Result<CoupledOutcome, ServeError> {
        let mut simulated_cycles = 0u64;
        let mut stall_cycles = 0u64;
        let synth = self.begin_couple(seed, chunk_len, source)?.drain(|chunk| {
            simulated_cycles = chunk.simulated_cycles;
            stall_cycles = chunk.stall_cycles;
            chunk.records
        })?;
        Ok(CoupledOutcome {
            trace_bytes: synth.trace_bytes,
            total_requests: synth.total_requests,
            fingerprint: synth.fingerprint,
            simulated_cycles,
            stall_cycles,
        })
    }

    /// Starts a coupled stream whose acks the caller controls. Each
    /// chunk carries the simulated-time backpressure alongside the
    /// records (see [`CoupledChunk`]).
    ///
    /// # Errors
    ///
    /// Transport failures, or the server's typed error as
    /// [`ServeError::Remote`].
    pub fn begin_couple(
        &mut self,
        seed: u64,
        chunk_len: u32,
        source: ProfileSource,
    ) -> Result<SynthStream<'_, CoupledChunk>, ServeError> {
        let request = Request::CoupledSynthesize {
            seed,
            chunk_len,
            source,
        };
        self.begin_stream(&request, chunk_len, |response| match response {
            Response::CoupledChunk {
                count,
                simulated_cycles,
                stall_cycles,
                records,
            } => Ok(CoupledChunk {
                count,
                simulated_cycles,
                stall_cycles,
                records,
            }),
            other => Err(unexpected("coupled-chunk", &other)),
        })
    }

    /// Starts a synthesis stream whose acks the caller controls.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server's typed error (e.g. `NotFound`,
    /// `Busy`) as [`ServeError::Remote`].
    pub fn begin_synthesize(
        &mut self,
        seed: u64,
        chunk_len: u32,
        source: ProfileSource,
    ) -> Result<SynthStream<'_>, ServeError> {
        let request = Request::Synthesize {
            seed,
            chunk_len,
            source,
        };
        self.begin_stream(&request, chunk_len, |response| match response {
            Response::SynthChunk { records, .. } => Ok(records),
            other => Err(unexpected("synth-chunk", &other)),
        })
    }

    /// Sends a stream-opening request, reads its `SynthStart` and opens
    /// the credit window; `chunk` decodes every later chunk frame.
    fn begin_stream<C>(
        &mut self,
        request: &Request,
        chunk_len: u32,
        chunk: fn(Response) -> Result<C, ServeError>,
    ) -> Result<SynthStream<'_, C>, ServeError> {
        self.send(request)?;
        let total_requests = match self.recv()? {
            Response::SynthStart { total_requests } => total_requests,
            other => return Err(unexpected("synth-start", &other)),
        };
        // One ack per chunk, the last releasing `SynthEnd`; the server
        // refuses `chunk_len` 0 before `SynthStart`.
        let owed = total_requests.div_ceil(u64::from(chunk_len.max(1)));
        let ahead = owed.min(WINDOW - 1);
        self.send_acks(ahead)?;
        Ok(SynthStream {
            client: self,
            declared_total: total_requests,
            acks_owed: owed - ahead,
            end: None,
            chunk,
        })
    }

    /// Requests a profile summary.
    ///
    /// # Errors
    ///
    /// Transport failures or the server's typed error.
    pub fn stats(&mut self, source: ProfileSource) -> Result<String, ServeError> {
        self.send(&Request::Stats { source })?;
        match self.recv()? {
            Response::StatsText { text } => Ok(text),
            other => Err(unexpected("stats-text", &other)),
        }
    }

    /// Fetches the server's metrics rendering.
    ///
    /// # Errors
    ///
    /// Transport failures or the server's typed error.
    pub fn metricsz(&mut self) -> Result<String, ServeError> {
        self.send(&Request::Metricsz)?;
        match self.recv()? {
            Response::MetricsText { text } => Ok(text),
            other => Err(unexpected("metrics-text", &other)),
        }
    }

    /// Asks the server to checkpoint its profile store and truncate the
    /// write-ahead log.
    ///
    /// # Errors
    ///
    /// Transport failures, `NotFound` when the server runs without a
    /// store, or the server's typed error.
    pub fn compact(&mut self) -> Result<CompactOutcome, ServeError> {
        self.send(&Request::Compact)?;
        match self.recv()? {
            Response::CompactOk {
                generation,
                profiles,
                checkpoint_bytes,
                wal_bytes_dropped,
            } => Ok(CompactOutcome {
                generation,
                profiles,
                checkpoint_bytes,
                wal_bytes_dropped,
            }),
            other => Err(unexpected("compact-ok", &other)),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures or the server's typed error.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::ShutdownOk => Ok(()),
            other => Err(unexpected("shutdown-ok", &other)),
        }
    }
}

/// An in-progress synthesis stream with caller-controlled acks.
///
/// Call [`SynthStream::next_chunk`] until it returns `None`, sending
/// [`SynthStream::ack`] after each chunk, then read the end-of-stream
/// totals with [`SynthStream::end`]. The stream opens with a window of
/// credits already granted and each ack grants one more, so the server
/// runs up to `WINDOW` (8) chunks ahead of the reader; a caller that
/// stops acking stops the stream within that window. A plain stream's
/// chunks are their record bytes; a coupled stream
/// ([`Client::begin_couple`]) yields [`CoupledChunk`]s.
#[derive(Debug)]
pub struct SynthStream<'a, C = Vec<u8>> {
    client: &'a mut Client,
    declared_total: u64,
    /// Acks the server will still consume that have not been sent.
    acks_owed: u64,
    end: Option<(u64, u64)>,
    chunk: fn(Response) -> Result<C, ServeError>,
}

impl<C> SynthStream<'_, C> {
    /// Total requests the server announced for this stream.
    pub fn declared_total(&self) -> u64 {
        self.declared_total
    }

    /// Receives the next chunk, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Transport failures or the server's typed error (a mid-stream
    /// `DeadlineExceeded`, for instance).
    pub fn next_chunk(&mut self) -> Result<Option<C>, ServeError> {
        if self.end.is_some() {
            return Ok(None);
        }
        match self.client.recv()? {
            Response::SynthEnd {
                total_requests,
                fingerprint,
            } => {
                self.end = Some((total_requests, fingerprint));
                Ok(None)
            }
            other => (self.chunk)(other).map(Some),
        }
    }

    /// Acknowledges the chunk just received, granting the server one
    /// more credit. Once every credit the stream will consume has been
    /// sent this sends nothing.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ack(&mut self) -> Result<(), ServeError> {
        if self.acks_owed == 0 {
            return Ok(());
        }
        self.acks_owed -= 1;
        self.client.send(&Request::Ack)
    }

    /// Cancels the stream and drains it to its (clean) end-of-stream
    /// frame, so the connection is reusable afterwards. Chunks already
    /// in flight are read and dropped; the end frame's totals count them.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn cancel(mut self) -> Result<(u64, u64), ServeError> {
        // With every credit sent the server ends the stream by itself,
        // and a `Cancel` racing that end would answer as a stray error.
        if self.end.is_none() && self.acks_owed > 0 {
            self.client.send(&Request::Cancel)?;
        }
        while self.next_chunk()?.is_some() {}
        self.end()
    }

    /// The end-of-stream `(total_requests, fingerprint)` pair.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] if the stream has not ended yet.
    pub fn end(&self) -> Result<(u64, u64), ServeError> {
        self.end
            .ok_or_else(|| ServeError::Protocol("stream has not reached its end frame".into()))
    }

    /// Acks every chunk through to the end frame, taking each chunk's
    /// record bytes with `records`, then verifies and reassembles them.
    fn drain(mut self, mut records: impl FnMut(C) -> Vec<u8>) -> Result<SynthOutcome, ServeError> {
        let mut streamed = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            streamed.extend_from_slice(&records(chunk));
            self.ack()?;
        }
        let (total_requests, fingerprint) = self.end()?;
        Ok(SynthOutcome {
            trace_bytes: verify_and_assemble(streamed, total_requests, fingerprint)?,
            total_requests,
            fingerprint,
        })
    }
}

/// Verifies streamed record bytes against the server's order-sensitive
/// fingerprint (by replaying them through the codec) and reassembles the
/// whole-trace encoding: header + record section.
fn verify_and_assemble(
    records: Vec<u8>,
    total_requests: u64,
    fingerprint: u64,
) -> Result<Vec<u8>, ServeError> {
    let mut decoder = RecordDecoder::new();
    let mut replay = Fingerprinter::new();
    let mut cursor = records.as_slice();
    for i in 0..total_requests {
        let request = decoder
            .decode(&mut cursor)
            .map_err(|e| ServeError::Protocol(format!("streamed record {i} undecodable: {e}")))?;
        replay.push(&request);
    }
    if !cursor.is_empty() {
        return Err(ServeError::Protocol(format!(
            "{} trailing record bytes after {total_requests} requests",
            cursor.len()
        )));
    }
    if replay.digest() != fingerprint {
        return Err(ServeError::Protocol(format!(
            "stream fingerprint mismatch: server {fingerprint:#018x}, replay {:#018x}",
            replay.digest()
        )));
    }
    let mut trace_bytes = Vec::with_capacity(records.len() + 16);
    trace_bytes.extend_from_slice(&TRACE_MAGIC);
    trace_bytes.push(CODEC_VERSION);
    write_u64(&mut trace_bytes, total_requests);
    trace_bytes.extend_from_slice(&records);
    Ok(trace_bytes)
}

fn unexpected(wanted: &str, got: &Response) -> ServeError {
    match got {
        Response::Error { code, message } => ServeError::Remote {
            code: *code,
            message: message.clone(),
        },
        other => ServeError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}
