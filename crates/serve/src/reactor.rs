//! The readiness-driven event loop that owns every connection.
//!
//! One thread — the caller of [`run`] — sweeps all sockets with
//! nonblocking accepts, reads and writes; there are no per-connection
//! threads. The workspace forbids `unsafe`, so instead of an OS
//! readiness API the reactor is a sweep loop that parks on a condvar
//! ([`crate::conn::WakeFlag`]) whenever a full pass makes no progress.
//! Worker jobs wake it when they queue output; socket readiness cannot
//! (std has no poll/epoll), so the park timeout backs off with idleness
//! instead: [`PARK_FLOOR_MICROS`] after a sweep that made progress,
//! doubling per idle sweep up to [`PARK_MICROS`]. An ack, hello,
//! connect or write drain that lands just after activity is swept
//! within tens of microseconds; an idle server sweeps once a tick.
//!
//! Per sweep, each connection gets: its outbox drained (worker events →
//! state transitions), queued frames written as the socket accepts them,
//! bounded reads assembled into frames (unless paused by backpressure or
//! phase), and completed frames dispatched. Compute never happens here —
//! requests are submitted to the pool, whose queue cap sheds the excess.
//! A stream banks its client's acks as credits and hands every
//! banked credit (up to [`STREAM_JOB_CHUNKS`]) to one chunk job; while
//! the connection's output sits above
//! [`crate::conn::WRITE_HIGH_WATERMARK`] it starts no chunk job, so
//! credits banked by a client that stopped reading cannot grow the
//! write queue without bound.

use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mocktails_pool::bounded::SubmitError;

use crate::conn::{Conn, Outgoing, Phase, StreamCtl, WriteOutcome, WRITE_HIGH_WATERMARK};
use crate::error::{ErrorCode, ServeError};
use crate::protocol::{Request, Response, PROTOCOL_VERSION};
use crate::server::{self, Job, Shared, StreamWork};

/// Connections accepted per sweep before yielding to existing ones.
const ACCEPT_BURST: usize = 64;

/// Most banked credits one stream job turns into chunks before it hands
/// its worker back, so one fast client cannot monopolise a worker.
const STREAM_JOB_CHUNKS: u32 = 16;

/// Park timeout ceiling: an upper bound on how stale an idle reactor can
/// be about anything that did not explicitly wake it.
const PARK_MICROS: u64 = 1_000;

/// Park timeout after a sweep that made progress: the latency floor for
/// socket readiness that follows activity (a client's next ack, a
/// pipelined request, a reconnect).
const PARK_FLOOR_MICROS: u64 = 16;

/// The park backoff: back to the floor after progress, else double, never
/// past [`PARK_MICROS`]. From the floor, an idle spell costs seven parks
/// (16 µs … 1 ms) before settling at one per tick.
fn next_park_micros(park: u64, progress: bool) -> u64 {
    if progress {
        PARK_FLOOR_MICROS
    } else {
        park.saturating_mul(2).min(PARK_MICROS)
    }
}

/// Runs the event loop until a `Shutdown` request has been honored and
/// every admitted piece of work has drained.
///
/// # Errors
///
/// Only a listener-level accept failure aborts the loop; per-connection
/// failures are answered on that connection (typed error frame, never a
/// silent drop) and the server keeps serving.
pub(crate) fn run(listener: &TcpListener, shared: &Arc<Shared>) -> Result<(), ServeError> {
    let mut conns: Vec<Conn> = Vec::new();
    let mut park = PARK_MICROS;
    loop {
        // Scheduling-dependent by design; see the field's metrics doc.
        shared
            .metrics
            .reactor_wakeups_total
            .fetch_add(1, Ordering::SeqCst);
        let mut progress = false;
        if !shared.shutting_down.load(Ordering::SeqCst) {
            progress |= accept_burst(listener, shared, &mut conns)?;
        }
        let open_conns = conns.len();
        let now = shared.clock.now_micros();
        for conn in &mut conns {
            progress |= sweep_conn(shared, conn, now, open_conns);
        }
        let draining = shared.shutting_down.load(Ordering::SeqCst);
        conns.retain_mut(|conn| {
            let drop_now = conn.dead
                || (conn.closing && conn.writeq.is_empty())
                || (draining && write_stalled(shared, conn, now));
            if drop_now {
                // Orphaned jobs may still hold a ConnTx; their pushes
                // must not accumulate against a gone connection.
                conn.outbox.close();
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            !drop_now
        });
        sync_reactor_gauges(shared, &conns);
        if draining && quiesced(shared, &conns) {
            for conn in &conns {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            return Ok(());
        }
        if !progress {
            shared.wake.wait_for(park);
        }
        park = next_park_micros(park, progress);
    }
}

/// Accepts up to [`ACCEPT_BURST`] pending connections; over
/// `max_conns`, the newcomer gets a typed `Busy` frame and is closed.
fn accept_burst(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &mut Vec<Conn>,
) -> Result<bool, ServeError> {
    let mut progressed = false;
    for _ in 0..ACCEPT_BURST {
        match listener.accept() {
            Ok((stream, _peer)) => {
                progressed = true;
                shared
                    .metrics
                    .connections_total
                    .fetch_add(1, Ordering::SeqCst);
                if conns.len() >= shared.config.max_conns {
                    shared
                        .metrics
                        .reactor_conns_rejected_total
                        .fetch_add(1, Ordering::SeqCst);
                    reject_connection(shared, stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                conns.push(Conn::new(
                    stream,
                    shared.config.max_frame_len,
                    Arc::clone(&shared.wake),
                ));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    Ok(progressed)
}

/// Answers an over-capacity connection with `Busy` before closing it —
/// the "typed error, never a silent drop" contract extends to accept.
/// The accepted socket is still blocking (it does not inherit the
/// listener's nonblocking flag), and one small frame fits any fresh
/// socket buffer, so this cannot stall the loop.
fn reject_connection(shared: &Shared, mut stream: TcpStream) {
    server::count_error(shared, ErrorCode::Busy);
    let frame = Response::Error {
        code: ErrorCode::Busy,
        message: format!(
            "connection limit reached (max_conns {}); retry later",
            shared.config.max_conns
        ),
    }
    .encode();
    let _ = crate::frame::write_frame(&mut stream, &frame);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One full pass over one connection. Returns whether anything moved.
fn sweep_conn(shared: &Arc<Shared>, conn: &mut Conn, now: u64, open_conns: usize) -> bool {
    let mut progress = false;
    // lint: allow(L017, Outbox::drain is a nonblocking mem::take behind a brief mutex hop, not a WorkerPool drain)
    for event in conn.outbox.drain() {
        progress = true;
        handle_event(shared, conn, event, now, open_conns);
    }
    match conn.writeq.write_to(&mut conn.stream, &shared.metrics, now) {
        WriteOutcome::Progress => progress = true,
        WriteOutcome::Idle => {}
        WriteOutcome::Closed => {
            conn.dead = true;
            return true;
        }
    }
    // Credits held back by the write-queue gate resume once it drains.
    drive_stream(shared, conn);
    if !conn.read_paused() {
        progress |= conn.pump_read();
    }
    progress |= process_inbound(shared, conn, now, open_conns);
    wind_down_broken_stream(shared, conn);
    check_ack_deadline(shared, conn, now);
    settle_idle(shared, conn, now, open_conns);
    progress
}

/// Applies one worker-job event to the connection's state machine.
fn handle_event(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    event: Outgoing,
    now: u64,
    open_conns: usize,
) {
    match event {
        Outgoing::Frame(bytes) => {
            if conn.writeq.push(&bytes, now).is_err() {
                conn.dead = true;
            }
        }
        Outgoing::Done => {
            conn.phase = Phase::Idle;
            settle_idle(shared, conn, now, open_conns);
        }
        Outgoing::StreamStarted(state) => {
            conn.phase = Phase::Streaming(StreamCtl {
                state,
                job_in_flight: false,
                pending_acks: 0,
                cancel: false,
                awaiting_ack_since: Some(now),
            });
            // An EOF or frame error that landed while the open job ran is
            // applied by wind_down_broken_stream on this same sweep.
        }
        Outgoing::StreamProgress { ended } => {
            if let Phase::Streaming(ctl) = &mut conn.phase {
                ctl.job_in_flight = false;
            } else {
                return;
            }
            if ended {
                conn.phase = Phase::Idle;
                settle_idle(shared, conn, now, open_conns);
            } else {
                drive_stream(shared, conn);
                // Credits held back by the write-queue gate wait on the
                // client's reads, not on its next ack.
                if let Phase::Streaming(ctl) = &mut conn.phase {
                    if !ctl.job_in_flight
                        && !ctl.cancel
                        && ctl.pending_acks == 0
                        && ctl.awaiting_ack_since.is_none()
                    {
                        ctl.awaiting_ack_since = Some(now);
                    }
                }
            }
        }
    }
}

/// If the connection's stream owes work and has no job in flight,
/// submits the next one: a finalize when cancelled, else one job that
/// encodes a chunk per banked credit (at most [`STREAM_JOB_CHUNKS`]).
/// No chunk job starts while the write queue is above the high
/// watermark; the sweep calls back here once writes drain it.
fn drive_stream(shared: &Arc<Shared>, conn: &mut Conn) {
    let backed_up = conn.writeq.queued_bytes() > WRITE_HIGH_WATERMARK;
    let Phase::Streaming(ctl) = &mut conn.phase else {
        return;
    };
    if ctl.job_in_flight {
        return;
    }
    let work = if ctl.cancel {
        StreamWork::Finalize
    } else if ctl.pending_acks == 0 || backed_up {
        return;
    } else {
        let credits = ctl.pending_acks.min(STREAM_JOB_CHUNKS);
        ctl.pending_acks -= credits;
        ctl.awaiting_ack_since = None;
        StreamWork::Chunks(credits)
    };
    ctl.job_in_flight = true;
    let state = Arc::clone(&ctl.state);
    let submit_failed = server::submit_stream_job(shared, conn.tx(), state, work).is_err();
    // Continuations are only refused by pool drain, which cannot happen
    // while the reactor runs; defensively treat it as a dead connection.
    if submit_failed {
        conn.dead = true;
    }
}

/// A stream whose client vanished (EOF) or lost frame sync winds down
/// through a finalize job, which ends the stream cleanly.
fn wind_down_broken_stream(shared: &Arc<Shared>, conn: &mut Conn) {
    if !conn.read_eof && conn.frame_error.is_none() {
        return;
    }
    let mut newly_cancelled = false;
    if let Phase::Streaming(ctl) = &mut conn.phase {
        if !ctl.cancel {
            ctl.cancel = true;
            ctl.awaiting_ack_since = None;
            newly_cancelled = true;
        }
    }
    if newly_cancelled {
        drive_stream(shared, conn);
    }
}

/// A stream waiting on the client's ack past the deadline is dropped
/// with a typed error; the connection itself stays usable.
fn check_ack_deadline(shared: &Arc<Shared>, conn: &mut Conn, now: u64) {
    let deadline = shared.config.deadline_micros;
    let expired = match &conn.phase {
        Phase::Streaming(ctl) => {
            !ctl.job_in_flight
                && !ctl.cancel
                && ctl
                    .awaiting_ack_since
                    .is_some_and(|since| now.saturating_sub(since) > deadline)
        }
        _ => false,
    };
    if expired {
        queue_error(
            shared,
            conn,
            ErrorCode::DeadlineExceeded,
            format!("no ack within {deadline} µs"),
            now,
        );
        conn.phase = Phase::Idle;
    }
}

/// Deferred work once the connection is out of `Job`/`Streaming`: a
/// parked request, then a parked close error (framing errors report only
/// after every earlier frame was served), then a clean EOF close.
fn settle_idle(shared: &Arc<Shared>, conn: &mut Conn, now: u64, open_conns: usize) {
    if conn.closing || conn.dead {
        return;
    }
    if matches!(conn.phase, Phase::Job | Phase::Streaming(_)) {
        return;
    }
    if let Some(request) = conn.pending.take() {
        route_request(shared, conn, request, now, open_conns);
        return;
    }
    if conn.close_error.is_none() && conn.inbound.is_empty() {
        if let Some(msg) = conn.frame_error.take() {
            let code = if msg.contains("exceeds maximum") {
                ErrorCode::LimitExceeded
            } else {
                ErrorCode::Malformed
            };
            conn.close_error = Some((code, msg));
        }
    }
    if let Some((code, message)) = conn.close_error.take() {
        queue_error(shared, conn, code, message, now);
        conn.closing = true;
        return;
    }
    if conn.read_eof && conn.inbound.is_empty() {
        conn.closing = true;
    }
}

/// Dispatches completed inbound frames as the current phase allows.
fn process_inbound(shared: &Arc<Shared>, conn: &mut Conn, now: u64, open_conns: usize) -> bool {
    let mut progress = false;
    loop {
        if conn.closing
            || conn.dead
            || conn.close_error.is_some()
            || conn.pending.is_some()
            || matches!(conn.phase, Phase::Job)
        {
            break;
        }
        let Some(payload) = conn.inbound.pop_front() else {
            break;
        };
        progress = true;
        if matches!(conn.phase, Phase::Handshake) {
            handle_handshake(shared, conn, &payload, now);
            continue;
        }
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame boundary held, so the connection is still in
                // sync; report and keep serving.
                queue_error(shared, conn, ErrorCode::Malformed, e.to_string(), now);
                continue;
            }
        };
        if matches!(conn.phase, Phase::Streaming(_)) {
            handle_streaming_request(shared, conn, request);
            continue;
        }
        match request {
            Request::Ack => queue_error(
                shared,
                conn,
                ErrorCode::Malformed,
                "ack with no stream in progress".into(),
                now,
            ),
            Request::Cancel => queue_error(
                shared,
                conn,
                ErrorCode::Malformed,
                "cancel with no stream in progress".into(),
                now,
            ),
            other => route_request(shared, conn, other, now, open_conns),
        }
    }
    progress
}

/// The first frame on a connection must be a version-compatible Hello.
fn handle_handshake(shared: &Arc<Shared>, conn: &mut Conn, payload: &[u8], now: u64) {
    match Request::decode(payload) {
        Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
            queue_response(
                conn,
                &Response::HelloOk {
                    version: PROTOCOL_VERSION,
                },
                now,
            );
            conn.phase = Phase::Idle;
        }
        Ok(Request::Hello { version }) => {
            queue_error(
                shared,
                conn,
                ErrorCode::UnsupportedVersion,
                format!(
                    "protocol version {version} not supported (server speaks {PROTOCOL_VERSION})"
                ),
                now,
            );
            conn.closing = true;
        }
        Ok(other) => {
            queue_error(
                shared,
                conn,
                ErrorCode::Malformed,
                format!("expected hello, got {other:?}"),
                now,
            );
            conn.closing = true;
        }
        Err(e) => {
            queue_error(shared, conn, ErrorCode::Malformed, e.to_string(), now);
            conn.closing = true;
        }
    }
}

/// Stream-phase dispatch: acks advance the stream, cancel winds it
/// down, and any other request supersedes it (cancel, park, dispatch
/// after the finalize lands) — the same contract the threaded server
/// kept.
fn handle_streaming_request(shared: &Arc<Shared>, conn: &mut Conn, request: Request) {
    match request {
        Request::Ack => {
            if let Phase::Streaming(ctl) = &mut conn.phase {
                if !ctl.cancel {
                    ctl.pending_acks = ctl.pending_acks.saturating_add(1);
                    ctl.awaiting_ack_since = None;
                }
            }
            drive_stream(shared, conn);
        }
        Request::Cancel => {
            if let Phase::Streaming(ctl) = &mut conn.phase {
                ctl.cancel = true;
                ctl.awaiting_ack_since = None;
            }
            drive_stream(shared, conn);
        }
        other => {
            if let Phase::Streaming(ctl) = &mut conn.phase {
                ctl.cancel = true;
                ctl.awaiting_ack_since = None;
            }
            conn.pending = Some(other);
            drive_stream(shared, conn);
        }
    }
}

/// Routes one idle-phase request (also used for requests parked behind a
/// superseded stream).
fn route_request(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    request: Request,
    now: u64,
    open_conns: usize,
) {
    let metrics = &shared.metrics;
    metrics.requests_total.fetch_add(1, Ordering::SeqCst);
    // Control requests answer on the spot; compute requests pick the job
    // a worker runs for them.
    let job = match request {
        Request::Hello { .. } => {
            let message = "duplicate hello".into();
            return queue_error(shared, conn, ErrorCode::Malformed, message, now);
        }
        Request::Metricsz => {
            metrics
                .metricsz_requests_total
                .fetch_add(1, Ordering::SeqCst);
            // Rendering is cheap string formatting; the sweep-maintained
            // gauges are refreshed so the text is current as of this
            // request.
            metrics
                .reactor_open_conns
                .store(open_conns as u64, Ordering::SeqCst);
            metrics
                .pool_queue_depth
                .store(shared.pool.queued() as u64, Ordering::SeqCst);
            let text = metrics.render(shared.clock.now_micros());
            return queue_response(conn, &Response::MetricsText { text }, now);
        }
        Request::Shutdown => {
            shared.shutting_down.store(true, Ordering::SeqCst);
            return queue_response(conn, &Response::ShutdownOk, now);
        }
        Request::Ack | Request::Cancel => unreachable!("handled by process_inbound"), // lint: allow(L001, L016, stream-control frames are routed before route_request)
        // Compaction runs off the event thread too: a checkpoint fsyncs.
        Request::Compact => Job::Compact,
        Request::FitProfile {
            cycles,
            trace_bytes,
        } => Job::Fit {
            cycles,
            trace_bytes,
        },
        Request::Synthesize {
            seed,
            chunk_len,
            source,
        } => Job::OpenStream {
            seed,
            chunk_len,
            source,
            coupled: false,
        },
        Request::CoupledSynthesize {
            seed,
            chunk_len,
            source,
        } => Job::OpenStream {
            seed,
            chunk_len,
            source,
            coupled: true,
        },
        Request::Stats { source } => Job::Stats { source },
    };
    // During drain, every new compute request is answered `ShuttingDown`.
    if shared.shutting_down.load(Ordering::SeqCst) {
        let message = "server is draining".into();
        queue_error(shared, conn, ErrorCode::ShuttingDown, message, now);
        return;
    }
    submit_one_shot(shared, conn, now, job);
}

/// Submits a one-shot request job; on success the connection enters
/// `Job` until `Done`, on refusal the client gets the typed refusal.
fn submit_one_shot(shared: &Arc<Shared>, conn: &mut Conn, now: u64, job: Job) {
    let tx = conn.tx();
    match server::submit_request_job(shared, tx, job) {
        Ok(()) => conn.phase = Phase::Job,
        Err(SubmitError::QueueFull { cap }) => {
            queue_error(
                shared,
                conn,
                ErrorCode::Busy,
                format!("worker queue full (cap {cap}); retry later"),
                now,
            );
        }
        Err(SubmitError::ShuttingDown) => {
            queue_error(
                shared,
                conn,
                ErrorCode::ShuttingDown,
                "server is draining".into(),
                now,
            );
        }
    }
}

/// Queues a response frame on the connection's write queue.
fn queue_response(conn: &mut Conn, response: &Response, now: u64) {
    if conn.writeq.push(&response.encode(), now).is_err() {
        conn.dead = true;
    }
}

/// Queues a typed error frame, counted exactly like worker-side errors.
fn queue_error(shared: &Shared, conn: &mut Conn, code: ErrorCode, message: String, now: u64) {
    server::count_error(shared, code);
    queue_response(conn, &Response::Error { code, message }, now);
}

/// Refreshes the gauges the sweep maintains.
fn sync_reactor_gauges(shared: &Shared, conns: &[Conn]) {
    let frames: usize = conns.iter().map(|conn| conn.writeq.frames()).sum();
    shared
        .metrics
        .reactor_open_conns
        .store(conns.len() as u64, Ordering::SeqCst);
    shared
        .metrics
        .reactor_write_queue_frames
        .store(frames as u64, Ordering::SeqCst);
}

/// Whether the connection's oldest queued frame has waited past the
/// request deadline: a client that stopped reading. A draining server
/// drops such a connection rather than wait on it forever.
fn write_stalled(shared: &Shared, conn: &Conn, now: u64) -> bool {
    conn.writeq
        .oldest_enqueued_micros()
        .is_some_and(|queued| now.saturating_sub(queued) > shared.config.deadline_micros)
}

/// Whether a draining server has nothing left to do: no job outstanding
/// (a finished job's outbox events are visible before its in-flight
/// count drops, so checking the pool first is safe) and every connection
/// fully flushed and out of any request.
fn quiesced(shared: &Shared, conns: &[Conn]) -> bool {
    if shared.pool.outstanding() > 0 {
        return false;
    }
    conns.iter().all(|conn| {
        matches!(conn.phase, Phase::Handshake | Phase::Idle)
            && conn.pending.is_none()
            && conn.close_error.is_none()
            && conn.writeq.is_empty()
            && conn.outbox.is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_resets_to_the_floor_after_progress() {
        for park in [PARK_FLOOR_MICROS, 100, PARK_MICROS] {
            assert_eq!(next_park_micros(park, true), PARK_FLOOR_MICROS);
        }
    }

    #[test]
    fn park_doubles_per_idle_sweep_up_to_the_ceiling() {
        let mut park = next_park_micros(PARK_MICROS, true);
        let mut schedule = vec![park];
        while park < PARK_MICROS {
            park = next_park_micros(park, false);
            schedule.push(park);
        }
        assert_eq!(schedule, [16, 32, 64, 128, 256, 512, 1_000]);
        for _ in 0..100 {
            park = next_park_micros(park, false);
            assert_eq!(park, PARK_MICROS);
        }
    }
}
