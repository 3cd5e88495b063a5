//! Connection-layer building blocks for the readiness-driven reactor.
//!
//! The reactor (see [`crate::reactor`]) owns every [`Conn`] exclusively
//! and sweeps them with nonblocking reads and writes; worker jobs never
//! touch a socket. The pieces here are the seams between the two:
//!
//! * [`FrameAssembler`] — incremental length-prefixed frame reassembly
//!   from whatever byte chunks the socket yields, with the same typed
//!   error strings as [`crate::frame::read_frame`].
//! * [`Outbox`] / [`ConnTx`] — the lock-protected queue worker jobs push
//!   responses and stream events into; pushing wakes the reactor.
//! * [`WriteQueue`] — per-connection pending output with write
//!   backpressure and per-frame latency observation.
//! * [`SynthState`] — a streaming synthesis parked between chunk jobs,
//!   so a stream holds no worker while waiting for the client's ack.
//! * [`WakeFlag`] — the condvar the reactor parks on when no socket or
//!   job has work for it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use mocktails_core::Synthesizer;
use mocktails_dram::MemorySystem;
use mocktails_trace::codec::RecordEncoder;
use mocktails_trace::Fingerprinter;

use crate::error::ErrorCode;
use crate::metrics::ServeMetrics;
use crate::protocol::{Request, Response};

/// Allocation granularity for payload reassembly; memory tracks bytes
/// actually received, never the declared length alone (mirrors
/// [`crate::frame`]).
const READ_CHUNK: usize = 1 << 16;

/// Bytes of queued output above which a connection's reads pause: a
/// client that stops draining its responses stops being read.
pub(crate) const WRITE_HIGH_WATERMARK: usize = 1 << 20;

/// The condvar the reactor parks on between sweeps. Worker jobs `wake`
/// it when they queue output; socket readiness never does, so the
/// reactor `wait_for`s with its backoff timeout: a missed edge costs
/// tens of microseconds after activity and at most one 1 ms tick when
/// idle.
pub(crate) struct WakeFlag {
    state: Mutex<WakeState>,
    cond: Condvar,
}

/// What [`WakeFlag`]'s mutex guards.
#[derive(Default)]
struct WakeState {
    /// A wake arrived since the reactor last consumed one.
    flagged: bool,
    /// The reactor is parked in `wait_for`.
    parked: bool,
}

impl WakeFlag {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(WakeState::default()),
            cond: Condvar::new(),
        }
    }

    /// Flags the reactor awake. Cheap enough to call on every push: it
    /// signals the condvar only when the reactor is parked. No wake is
    /// lost, because the flag is set under the same lock the reactor
    /// checks before it parks.
    pub(crate) fn wake(&self) {
        let parked = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.flagged = true;
            state.parked
        };
        if parked {
            self.cond.notify_one();
        }
    }

    /// Parks until woken or `micros` elapse, consuming the flag either
    /// way. A wake that raced in before the park returns immediately.
    pub(crate) fn wait_for(&self, micros: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.flagged {
            state.parked = true;
            let (guard, _timed_out) = self
                .cond
                .wait_timeout(state, Duration::from_micros(micros))
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            state.parked = false;
        }
        state.flagged = false;
    }
}

/// Incremental reassembly of length-prefixed frames from arbitrary byte
/// chunks. Error strings mirror [`crate::frame::read_frame`] so the
/// server's oversize/truncation mapping works unchanged.
pub(crate) struct FrameAssembler {
    max_len: usize,
    prefix: [u8; 4],
    prefix_filled: usize,
    /// Declared payload length once the prefix is complete.
    need: Option<usize>,
    payload: Vec<u8>,
}

impl FrameAssembler {
    pub(crate) fn new(max_len: usize) -> Self {
        Self {
            max_len,
            prefix: [0; 4],
            prefix_filled: 0,
            need: None,
            payload: Vec::new(),
        }
    }

    /// Feeds `chunk` in, appending every completed frame to `out`.
    ///
    /// # Errors
    ///
    /// A declared length above `max_len` returns the same "exceeds
    /// maximum" message [`crate::frame::read_frame`] produces; the
    /// connection must close after it (frame sync is lost).
    pub(crate) fn push(&mut self, chunk: &[u8], out: &mut VecDeque<Vec<u8>>) -> Result<(), String> {
        let mut rest = chunk;
        loop {
            match self.need {
                None => {
                    if rest.is_empty() {
                        return Ok(());
                    }
                    let take = (4 - self.prefix_filled).min(rest.len());
                    self.prefix[self.prefix_filled..self.prefix_filled + take]
                        .copy_from_slice(&rest[..take]);
                    self.prefix_filled += take;
                    rest = &rest[take..];
                    if self.prefix_filled == 4 {
                        let len = u32::from_le_bytes(self.prefix) as usize;
                        if len > self.max_len {
                            return Err(format!(
                                "frame length {len} exceeds maximum {}",
                                self.max_len
                            ));
                        }
                        self.prefix_filled = 0;
                        self.need = Some(len);
                        self.payload = Vec::with_capacity(len.min(READ_CHUNK));
                    }
                }
                Some(need) => {
                    if self.payload.len() == need {
                        out.push_back(std::mem::take(&mut self.payload));
                        self.need = None;
                        continue; // zero-length frames complete with no payload bytes
                    }
                    if rest.is_empty() {
                        return Ok(());
                    }
                    let take = (need - self.payload.len()).min(rest.len());
                    self.payload.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                }
            }
        }
    }

    /// The typed truncation message for an EOF that lands mid-frame, or
    /// `None` when the stream closed on a clean frame boundary.
    pub(crate) fn eof_error(&self) -> Option<String> {
        if let Some(need) = self.need {
            return Some(format!(
                "truncated frame payload ({} of {need} bytes)",
                self.payload.len()
            ));
        }
        if self.prefix_filled > 0 {
            return Some(format!(
                "truncated length prefix ({} of 4 bytes)",
                self.prefix_filled
            ));
        }
        None
    }
}

/// The DRAM model a coupled (Option B) stream paces against. Chunk jobs
/// inject every synthesized request into it and feed the resulting
/// stalls back into the generator before encoding the request, exactly
/// like `MemorySystem::run_synthesizer` but one chunk at a time.
pub(crate) struct Coupling {
    /// The simulator exerting backpressure on the stream.
    pub(crate) mem: MemorySystem,
    /// Issue timestamp of the last synthesized request: simulated cycles
    /// reached, including every stall fed back so far.
    pub(crate) simulated_cycles: u64,
}

/// A streaming synthesis parked between chunk jobs. A chunk job locks it
/// for each chunk it encodes and releases it before sending the frame;
/// the reactor never computes on it.
pub(crate) struct SynthState {
    pub(crate) synth: Synthesizer,
    pub(crate) encoder: RecordEncoder,
    pub(crate) fingerprinter: Fingerprinter,
    pub(crate) chunk_len: u32,
    /// When the synthesize request entered its worker job; end-of-stream
    /// observes `synth_latency_micros` against it.
    pub(crate) started_micros: u64,
    /// Set once `SynthEnd` has been produced; later chunk/finalize jobs
    /// become no-ops.
    pub(crate) finished: bool,
    /// `Some` for a coupled (Option B) stream; `None` for the open-loop
    /// `Synthesize` stream.
    pub(crate) coupling: Option<Coupling>,
}

/// One event a worker job hands back to the reactor.
pub(crate) enum Outgoing {
    /// An encoded response frame to queue on the socket.
    Frame(Vec<u8>),
    /// The connection's one-shot job finished; return to `Idle`.
    Done,
    /// A synthesize job produced `SynthStart` + first chunk and parked
    /// its state; the connection enters `Streaming`.
    StreamStarted(Arc<Mutex<SynthState>>),
    /// A chunk or finalize job finished; `ended` means `SynthEnd` went
    /// out and the stream is over.
    StreamProgress { ended: bool },
}

struct OutboxInner {
    queue: VecDeque<Outgoing>,
    /// Set when the connection dies; late pushes from an orphaned job
    /// are dropped instead of accumulating.
    closed: bool,
}

/// The queue worker jobs push [`Outgoing`] events into; every push wakes
/// the reactor. One per connection, shared via [`ConnTx`].
pub(crate) struct Outbox {
    inner: Mutex<OutboxInner>,
    wake: Arc<WakeFlag>,
}

impl Outbox {
    pub(crate) fn new(wake: Arc<WakeFlag>) -> Self {
        Self {
            inner: Mutex::new(OutboxInner {
                queue: VecDeque::new(),
                closed: false,
            }),
            wake,
        }
    }

    fn push(&self, item: Outgoing) {
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if inner.closed {
                return;
            }
            inner.queue.push_back(item);
        }
        self.wake.wake();
    }

    /// Marks the connection dead and discards anything queued.
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        inner.queue.clear();
    }

    /// Takes everything queued so far (the reactor's per-sweep drain).
    pub(crate) fn drain(&self) -> VecDeque<Outgoing> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut inner.queue)
    }

    pub(crate) fn is_empty(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.queue.is_empty()
    }
}

/// A worker job's handle to its connection: responses and stream events
/// go through here, never to the socket directly.
#[derive(Clone)]
pub(crate) struct ConnTx {
    outbox: Arc<Outbox>,
}

impl ConnTx {
    pub(crate) fn new(outbox: Arc<Outbox>) -> Self {
        Self { outbox }
    }

    pub(crate) fn send(&self, response: &Response) {
        self.outbox.push(Outgoing::Frame(response.encode()));
    }

    pub(crate) fn done(&self) {
        self.outbox.push(Outgoing::Done);
    }

    pub(crate) fn stream_started(&self, state: Arc<Mutex<SynthState>>) {
        self.outbox.push(Outgoing::StreamStarted(state));
    }

    pub(crate) fn stream_progress(&self, ended: bool) {
        self.outbox.push(Outgoing::StreamProgress { ended });
    }
}

/// What one write sweep over a connection accomplished.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WriteOutcome {
    /// Bytes left the queue.
    Progress,
    /// Nothing to write, or the socket is full (`WouldBlock`).
    Idle,
    /// The socket is dead; the connection must be dropped.
    Closed,
}

struct PendingWrite {
    /// Length prefix plus payload, written as one unit.
    bytes: Vec<u8>,
    offset: usize,
    enqueued_micros: u64,
}

/// Per-connection pending output. Frames queue here and drain as the
/// socket accepts them; completing a frame observes its queue-to-wire
/// latency.
pub(crate) struct WriteQueue {
    queue: VecDeque<PendingWrite>,
    queued_bytes: usize,
}

impl WriteQueue {
    pub(crate) fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            queued_bytes: 0,
        }
    }

    /// Queues one frame (prefix + payload). A payload above `u32::MAX`
    /// bytes cannot be framed; the message mirrors
    /// [`crate::frame::write_frame`].
    pub(crate) fn push(&mut self, payload: &[u8], now: u64) -> Result<(), String> {
        let len = u32::try_from(payload.len())
            .map_err(|_| "payload exceeds u32 length prefix".to_string())?;
        let mut bytes = Vec::with_capacity(payload.len() + 4);
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(payload);
        self.queued_bytes += bytes.len();
        self.queue.push_back(PendingWrite {
            bytes,
            offset: 0,
            enqueued_micros: now,
        });
        Ok(())
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub(crate) fn frames(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// When the oldest frame still (partly) unwritten was queued.
    pub(crate) fn oldest_enqueued_micros(&self) -> Option<u64> {
        self.queue.front().map(|front| front.enqueued_micros)
    }

    /// Writes as much as the nonblocking socket accepts. A dead socket
    /// is an outcome, not an error: the reactor drops the connection.
    pub(crate) fn write_to(
        &mut self,
        stream: &mut TcpStream,
        metrics: &ServeMetrics,
        now: u64,
    ) -> WriteOutcome {
        let mut progressed = false;
        while let Some(front) = self.queue.front_mut() {
            match stream.write(&front.bytes[front.offset..]) {
                Ok(0) => return WriteOutcome::Closed,
                Ok(n) => {
                    progressed = true;
                    front.offset += n;
                    self.queued_bytes -= n;
                    if front.offset == front.bytes.len() {
                        metrics
                            .frame_latency_micros
                            .observe(now.saturating_sub(front.enqueued_micros));
                        self.queue.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Closed,
            }
        }
        if progressed {
            WriteOutcome::Progress
        } else {
            WriteOutcome::Idle
        }
    }
}

/// A streaming connection's control block: the parked synthesis plus
/// what the reactor owes it.
pub(crate) struct StreamCtl {
    pub(crate) state: Arc<Mutex<SynthState>>,
    /// True while a chunk/finalize job for this stream is in the pool;
    /// at most one is ever in flight, so chunks stay ordered.
    pub(crate) job_in_flight: bool,
    /// Credits (acks) banked but not yet handed to a chunk job; each
    /// releases one chunk, or `SynthEnd` after the last.
    pub(crate) pending_acks: u32,
    /// Set by `Cancel`, client EOF, or a superseding request: the next
    /// dispatch finalizes the stream instead of chunking.
    pub(crate) cancel: bool,
    /// When the reactor started waiting for the client's next ack; the
    /// deadline check measures against this.
    pub(crate) awaiting_ack_since: Option<u64>,
}

/// Where a connection is in its protocol lifecycle.
pub(crate) enum Phase {
    /// Nothing but a version-compatible `Hello` is acceptable.
    Handshake,
    /// Between requests.
    Idle,
    /// A one-shot job (fit/stats/compact) is in the pool; reads pause
    /// until its `Done` comes back.
    Job,
    /// A synthesize stream is in progress.
    Streaming(StreamCtl),
}

/// One client connection, owned exclusively by the reactor thread.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) assembler: FrameAssembler,
    /// Completed frames not yet dispatched.
    pub(crate) inbound: VecDeque<Vec<u8>>,
    pub(crate) writeq: WriteQueue,
    pub(crate) outbox: Arc<Outbox>,
    pub(crate) phase: Phase,
    /// A request that arrived while a stream was still winding down; it
    /// dispatches once the stream's finalize completes.
    pub(crate) pending: Option<Request>,
    /// Set once the connection should close as soon as its output
    /// flushes.
    pub(crate) closing: bool,
    /// Set when the socket is unwritable; the connection drops without
    /// waiting for its queue to flush.
    pub(crate) dead: bool,
    pub(crate) read_eof: bool,
    /// A framing error (sync lost); answered with a typed error frame
    /// once earlier frames have been served, then the connection closes.
    pub(crate) frame_error: Option<String>,
    /// A typed error to send after the in-flight stream winds down.
    pub(crate) close_error: Option<(ErrorCode, String)>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, max_len: usize, wake: Arc<WakeFlag>) -> Self {
        Self {
            stream,
            assembler: FrameAssembler::new(max_len),
            inbound: VecDeque::new(),
            writeq: WriteQueue::new(),
            outbox: Arc::new(Outbox::new(wake)),
            phase: Phase::Handshake,
            pending: None,
            closing: false,
            dead: false,
            read_eof: false,
            frame_error: None,
            close_error: None,
        }
    }

    pub(crate) fn tx(&self) -> ConnTx {
        ConnTx::new(Arc::clone(&self.outbox))
    }

    /// Whether the reactor should stop pulling bytes off this socket:
    /// output is backed up, a close is pending, or the protocol phase
    /// cannot consume another request yet.
    pub(crate) fn read_paused(&self) -> bool {
        self.closing
            || self.read_eof
            || self.frame_error.is_some()
            || self.close_error.is_some()
            || self.pending.is_some()
            || matches!(self.phase, Phase::Job)
            || self.writeq.queued_bytes() > WRITE_HIGH_WATERMARK
    }

    /// Pulls whatever the nonblocking socket has (bounded per sweep for
    /// fairness), assembling frames into `inbound`. Returns `true` if
    /// any bytes arrived.
    pub(crate) fn pump_read(&mut self) -> bool {
        let mut buf = [0u8; 16 * 1024];
        let mut progressed = false;
        // 8 reads x 16 KiB bounds one connection's share of a sweep.
        for _ in 0..8 {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.read_eof = true;
                    if self.frame_error.is_none() {
                        self.frame_error = self.assembler.eof_error();
                    }
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    let mut frames = std::mem::take(&mut self.inbound);
                    // lint: allow(L019, completed frames are drained by process_inbound every sweep and the partial-payload buffer is bounded by max_len)
                    let pushed = self.assembler.push(&buf[..n], &mut frames);
                    self.inbound = frames;
                    if let Err(msg) = pushed {
                        self.frame_error = Some(msg);
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // A dead socket reads like EOF: wind down in order.
                    self.read_eof = true;
                    break;
                }
            }
        }
        progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A wake that lands while the reactor is busy (not parked) sends no
    /// signal, but its flag makes the next park return at once.
    #[test]
    fn a_wake_while_not_parked_makes_the_next_wait_return_at_once() {
        let flag = WakeFlag::new();
        flag.wake();
        let started = Instant::now();
        flag.wait_for(10_000_000);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the flagged wait parked for {:?}",
            started.elapsed()
        );
        // The wait consumed the flag and left the reactor unparked.
        let state = flag.state.lock().unwrap();
        assert!(!state.flagged && !state.parked);
    }

    /// A wake while the reactor is parked signals the condvar.
    #[test]
    fn a_wake_while_parked_ends_the_park() {
        let flag = Arc::new(WakeFlag::new());
        let parked = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let started = Instant::now();
                flag.wait_for(30_000_000);
                started.elapsed()
            })
        };
        // Wake only once the other thread is parked.
        while !flag.state.lock().unwrap().parked {
            std::thread::yield_now();
        }
        flag.wake();
        let waited = parked.join().unwrap();
        assert!(waited < Duration::from_secs(10), "parked for {waited:?}");
    }

    fn frames_of(assembler: &mut FrameAssembler, chunks: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut out = VecDeque::new();
        for chunk in chunks {
            assembler.push(chunk, &mut out).unwrap();
        }
        out.into_iter().collect()
    }

    fn encode(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_splits() {
        let mut wire = encode(b"hello");
        wire.extend_from_slice(&encode(b""));
        wire.extend_from_slice(&encode(b"world!"));
        for split in 0..wire.len() {
            let mut asm = FrameAssembler::new(1024);
            let (a, b) = wire.split_at(split);
            let frames = frames_of(&mut asm, &[a, b]);
            assert_eq!(
                frames,
                vec![b"hello".to_vec(), Vec::new(), b"world!".to_vec()]
            );
            assert!(asm.eof_error().is_none(), "split={split}");
        }
    }

    #[test]
    fn assembler_byte_at_a_time() {
        let wire = encode(b"abc");
        let mut asm = FrameAssembler::new(16);
        let mut out = VecDeque::new();
        for byte in &wire {
            asm.push(std::slice::from_ref(byte), &mut out).unwrap();
        }
        assert_eq!(out.pop_front().unwrap(), b"abc");
        assert!(out.is_empty());
    }

    #[test]
    fn assembler_oversize_matches_read_frame_message() {
        let mut asm = FrameAssembler::new(16);
        let mut out = VecDeque::new();
        let err = asm.push(&encode(&[0u8; 17]), &mut out).unwrap_err();
        assert_eq!(err, "frame length 17 exceeds maximum 16");
        assert!(
            err.contains("exceeds maximum"),
            "server maps this to LimitExceeded"
        );
    }

    #[test]
    fn assembler_eof_error_mirrors_read_frame() {
        let mut asm = FrameAssembler::new(1024);
        let mut out = VecDeque::new();
        asm.push(&encode(b"xyz")[..2], &mut out).unwrap();
        assert_eq!(
            asm.eof_error().unwrap(),
            "truncated length prefix (2 of 4 bytes)"
        );
        let mut asm = FrameAssembler::new(1024);
        asm.push(&encode(b"xyz")[..5], &mut out).unwrap();
        assert_eq!(
            asm.eof_error().unwrap(),
            "truncated frame payload (1 of 3 bytes)"
        );
    }

    #[test]
    fn wake_flag_consumed_by_wait() {
        let flag = WakeFlag::new();
        flag.wake();
        flag.wait_for(0); // flagged: returns immediately
        let started = std::time::Instant::now();
        flag.wait_for(5_000); // unflagged: must actually park
        assert!(started.elapsed() >= Duration::from_micros(1_000));
    }

    #[test]
    fn outbox_drops_pushes_after_close() {
        let outbox = Outbox::new(Arc::new(WakeFlag::new()));
        let tx = ConnTx::new(Arc::new(Outbox::new(Arc::new(WakeFlag::new()))));
        drop(tx);
        outbox.push(Outgoing::Done);
        assert_eq!(outbox.drain().len(), 1);
        outbox.close();
        outbox.push(Outgoing::Done);
        assert!(outbox.is_empty());
    }
}
