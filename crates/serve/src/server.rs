//! The streaming synthesis server.
//!
//! One readiness-driven reactor thread owns every connection (see
//! [`crate::reactor`]): nonblocking accept, read, frame reassembly and
//! write backpressure all happen there, and no socket is ever touched by
//! more than one thread. Compute — fit, synthesize, stats, compact —
//! runs on a bounded [`WorkerPool`]; jobs hand their responses back
//! through a per-connection outbox ([`crate::conn::ConnTx`]) and the
//! reactor writes them out. A streaming synthesis never pins a worker:
//! each client ack banks one credit, and the reactor hands a stream's
//! banked credits to one short chunk job against its parked
//! [`crate::conn::SynthState`], so thousands of concurrent streams need
//! only as many workers as there are chunk jobs in flight.
//!
//! Fitted profiles live in one [`ProfileCache`] keyed by content
//! fingerprint, with repeat fits found through their fit-key aliases.
//! A profile is validated once, on its way into the cache, and a fresh
//! fit enters it only once the store has made it durable. Each cached
//! profile compiles its synthesis plan on its first stream; every later
//! stream opens in O(1) from the shared plan.
//! Load is shed at two gates, each with a typed `Busy` frame: a connect
//! beyond [`ServerConfig::max_conns`], and a job the worker pool's
//! [`ServerConfig::queue_cap`] has no room for. A connection carries at
//! most one request or stream at a time, so `max_conns` also bounds the
//! work in flight.
//! Every failure path still answers with a typed error frame before the
//! connection is ever closed.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use mocktails_core::profile::write_profile;
use mocktails_core::{fit_key, HierarchyConfig, LayerSpec, Profile, ProfileError, ProfileRecord};
use mocktails_dram::{DramConfig, MemorySystem};
use mocktails_pool::bounded::{SubmitError, WorkerPool};
use mocktails_pool::Parallelism;
use mocktails_store::{ProfileStore, StoreOptions};
use mocktails_trace::codec::RecordEncoder;
use mocktails_trace::{fnv1a, DecodeOptions, Fingerprinter, TraceError};

use crate::cache::ProfileCache;
use crate::conn::{ConnTx, Coupling, SynthState, WakeFlag};
use crate::error::{ErrorCode, ServeError};
use crate::metrics::{Clock, ServeMetrics};
use crate::protocol::{ProfileSource, Response};

/// Why a [`ServerConfig`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerConfigError {
    /// `workers` was 0; the pool needs at least one thread.
    ZeroWorkers,
    /// `max_conns` was 0; the server could accept nothing.
    ZeroMaxConns,
    /// `deadline_micros` was 0; every queued request would miss it.
    ZeroDeadline,
    /// `max_frame_len` is below the smallest useful frame.
    FrameLimitTooSmall {
        /// The minimum accepted value.
        min: usize,
    },
}

impl std::fmt::Display for ServerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroWorkers => write!(f, "workers must be at least 1"),
            Self::ZeroMaxConns => write!(f, "max_conns must be at least 1"),
            Self::ZeroDeadline => write!(f, "deadline_micros must be positive"),
            Self::FrameLimitTooSmall { min } => {
                write!(f, "max_frame_len must be at least {min} bytes")
            }
        }
    }
}

impl std::error::Error for ServerConfigError {}

/// Tuning knobs for [`Server`].
///
/// Construct through [`ServerConfig::builder`], which validates on
/// `build()`. Plain struct-literal construction (the pre-0.4 path) still
/// works and is validated by [`Server::bind`], but is deprecated in
/// favor of the builder and may lose field-level access in a future
/// breaking release.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Worker threads executing compute requests.
    pub workers: usize,
    /// Jobs admitted beyond the running ones; over-cap submissions get a
    /// `Busy` error frame (see [`WorkerPool`]).
    pub queue_cap: usize,
    /// Profiles the cache retains; the least recently used is evicted
    /// beyond this.
    pub cache_capacity: usize,
    /// Maximum accepted frame payload length in bytes.
    pub max_frame_len: usize,
    /// Per-request deadline in microseconds: bounds the queue wait and
    /// each backpressure (ack) wait of a streaming response.
    pub deadline_micros: u64,
    /// Decode hardening applied to uploaded traces and profiles.
    pub decode: DecodeOptions,
    /// Directory of the crash-recoverable profile store; `None` runs
    /// memory-only. With a store, every fitted profile is appended to
    /// its write-ahead log *before* the `FitResult` ack, and a restart
    /// warms the cache from the recovered state.
    pub store_dir: Option<PathBuf>,
    /// Connections the reactor will hold open at once; excess accepts
    /// are answered with a `Busy` frame and closed. Each connection
    /// carries at most one request or stream, so this also bounds the
    /// work in flight.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_cap: 16,
            cache_capacity: 64,
            max_frame_len: 64 << 20,
            deadline_micros: 30_000_000,
            decode: DecodeOptions::default(),
            store_dir: None,
            max_conns: 1024,
        }
    }
}

impl ServerConfig {
    /// A builder starting from [`ServerConfig::default`], in the style
    /// of `HierarchyConfig::builder()`.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: Self::default(),
        }
    }

    /// Checks the knobs for values the server cannot run with.
    ///
    /// # Errors
    ///
    /// The first [`ServerConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), ServerConfigError> {
        if self.workers == 0 {
            return Err(ServerConfigError::ZeroWorkers);
        }
        if self.max_conns == 0 {
            return Err(ServerConfigError::ZeroMaxConns);
        }
        if self.deadline_micros == 0 {
            return Err(ServerConfigError::ZeroDeadline);
        }
        if self.max_frame_len < 1024 {
            return Err(ServerConfigError::FrameLimitTooSmall { min: 1024 });
        }
        Ok(())
    }
}

/// Builds a validated [`ServerConfig`]; see [`ServerConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Worker threads executing compute requests.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Jobs admitted beyond the running ones.
    #[must_use]
    pub fn queue_cap(mut self, queue_cap: usize) -> Self {
        self.config.queue_cap = queue_cap;
        self
    }

    /// Profiles the cache retains.
    #[must_use]
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.config.cache_capacity = cache_capacity;
        self
    }

    /// Maximum accepted frame payload length in bytes.
    #[must_use]
    pub fn max_frame_len(mut self, max_frame_len: usize) -> Self {
        self.config.max_frame_len = max_frame_len;
        self
    }

    /// Per-request deadline in microseconds.
    #[must_use]
    pub fn deadline_micros(mut self, deadline_micros: u64) -> Self {
        self.config.deadline_micros = deadline_micros;
        self
    }

    /// Decode hardening applied to uploaded traces and profiles.
    #[must_use]
    pub fn decode(mut self, decode: DecodeOptions) -> Self {
        self.config.decode = decode;
        self
    }

    /// Directory of the crash-recoverable profile store.
    #[must_use]
    pub fn store_dir(mut self, store_dir: impl Into<PathBuf>) -> Self {
        self.config.store_dir = Some(store_dir.into());
        self
    }

    /// Connections the reactor will hold open at once.
    #[must_use]
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.config.max_conns = max_conns;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// See [`ServerConfig::validate`].
    pub fn build(self) -> Result<ServerConfig, ServerConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// State shared by the reactor and worker jobs.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) cache: Mutex<ProfileCache>,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) pool: WorkerPool,
    pub(crate) clock: Arc<dyn Clock>,
    /// The durable tier behind the cache, if configured. Its mutex is
    /// never held together with the cache's: a fresh fit locks the store,
    /// appends, releases it, and only then publishes to the cache.
    pub(crate) store: Option<Mutex<ProfileStore>>,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) addr: SocketAddr,
    /// The reactor's park/wake condvar; worker jobs wake it through
    /// their outbox pushes and once more when they finish.
    pub(crate) wake: Arc<WakeFlag>,
}

impl Shared {
    /// Runs `op` on the locked cache and mirrors the cache's tallies
    /// into the metric registry before releasing it.
    pub(crate) fn with_cache<T>(&self, op: impl FnOnce(&mut ProfileCache) -> T) -> T {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let out = op(&mut cache);
        let m = &self.metrics;
        m.cache_entries.store(cache.len() as u64, Ordering::SeqCst);
        m.cache_evictions_total
            .store(cache.evictions(), Ordering::SeqCst);
        out
    }

    /// Mirrors the store's size gauges into the metric registry.
    pub(crate) fn sync_store_metrics(&self, store: &ProfileStore) {
        let m = &self.metrics;
        m.store_profiles.store(store.len() as u64, Ordering::SeqCst);
        m.store_wal_bytes.store(store.wal_bytes(), Ordering::SeqCst);
    }
}

/// The server: a bound listener plus everything requests share.
///
/// [`Server::bind`] then [`Server::run`]; `run` returns after a
/// `Shutdown` frame has been honored — in-flight requests drained,
/// mid-stream clients given their clean end-of-stream frames — so the
/// caller can flush final metrics and exit 0.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .field("workers", &self.shared.config.workers)
            .finish()
    }
}

/// The hierarchy every server-side fit uses: the paper's 2L-TS shape with
/// a caller-chosen temporal window — identical to the CLI's offline
/// `profile` command, so server and offline outputs byte-compare equal.
fn fit_config(cycles: u64) -> Result<HierarchyConfig, String> {
    HierarchyConfig::builder()
        .layer(LayerSpec::TemporalCycleCount(cycles))
        .layer(LayerSpec::SpatialDynamic)
        .build()
        .map_err(|e| e.to_string())
}

/// Opens (recovering) the profile store and records what recovery did in
/// the metric registry.
fn shared_store_open(
    dir: &std::path::Path,
    config: &ServerConfig,
    clock: &dyn Clock,
    metrics: &ServeMetrics,
) -> Result<ProfileStore, ServeError> {
    let options = StoreOptions {
        decode: config.decode,
        ..StoreOptions::default()
    };
    let started = clock.now_micros();
    let store = ProfileStore::open_with(dir, options)?;
    let replay = clock.now_micros().saturating_sub(started);
    let report = *store.recovery();
    metrics.store_replay_micros.store(replay, Ordering::SeqCst);
    metrics.store_recovered_profiles_total.fetch_add(
        (report.checkpoint_profiles + report.wal_records_replayed) as u64,
        Ordering::SeqCst,
    );
    if report.wal_records_replayed > 0 || report.wal_bytes_truncated > 0 || report.wal_reset {
        metrics
            .store_recoveries_total
            .fetch_add(1, Ordering::SeqCst);
    }
    Ok(store)
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares the worker pool, profile cache and metrics registry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an invalid `config`; otherwise the
    /// bind or store-recovery failure.
    pub fn bind(
        addr: &str,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new());
        let mut cache = ProfileCache::new(config.cache_capacity);

        // Cold start: recover the persistent store and warm the cache
        // from it, so a restarted server answers fits it already paid for.
        // The store's decode validated each profile unless decoding is
        // trusted; then the check runs here, as it does for every profile
        // entering the cache, and a profile failing it stays out.
        let store = match &config.store_dir {
            None => None,
            Some(dir) => {
                let opened = shared_store_open(dir, &config, clock.as_ref(), &metrics)?;
                for (fingerprint, entry) in opened.iter() {
                    if config.decode.validates() || entry.profile.validate().is_ok() {
                        cache.insert(fingerprint, Arc::clone(&entry.profile), entry.fit_key);
                    }
                }
                metrics
                    .store_profiles
                    .store(opened.len() as u64, Ordering::SeqCst);
                metrics
                    .store_wal_bytes
                    .store(opened.wal_bytes(), Ordering::SeqCst);
                Some(Mutex::new(opened))
            }
        };
        metrics
            .cache_entries
            .store(cache.len() as u64, Ordering::SeqCst);
        metrics
            .store_last_checkpoint_micros
            .store(clock.now_micros(), Ordering::SeqCst);
        let shared = Arc::new(Shared {
            pool: WorkerPool::new(config.workers, config.queue_cap),
            cache: Mutex::new(cache),
            config,
            metrics,
            clock,
            store,
            shutting_down: AtomicBool::new(false),
            addr: local,
            wake: Arc::new(WakeFlag::new()),
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live metric registry (shared with all request handlers).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Serves until a `Shutdown` frame arrives, then drains: stops
    /// accepting, completes in-flight work (mid-stream clients get their
    /// `SynthEnd`), closes connections, and returns. A client that has
    /// stopped reading is dropped once its oldest queued frame has waited
    /// longer than [`ServerConfig::deadline_micros`], so it cannot hold
    /// the drain open.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures; per-connection failures are
    /// answered on that connection and never abort the server.
    pub fn run(self) -> Result<(), ServeError> {
        let result = crate::reactor::run(&self.listener, &self.shared);
        // The reactor only exits once no job is outstanding, so this
        // drain is a formality that also flips the pool to rejecting.
        self.shared.pool.drain();
        result
    }
}

/// Bumps the error counters for one typed error frame.
pub(crate) fn count_error(shared: &Shared, code: ErrorCode) {
    let m = &shared.metrics;
    m.errors_total.fetch_add(1, Ordering::SeqCst);
    match code {
        ErrorCode::Busy => {
            m.busy_rejections_total.fetch_add(1, Ordering::SeqCst);
        }
        ErrorCode::DeadlineExceeded => {
            m.deadline_exceeded_total.fetch_add(1, Ordering::SeqCst);
        }
        _ => {}
    }
}

/// What a worker job answers: one response frame, or a typed error.
type Reply = Result<Response, (ErrorCode, String)>;

/// Queues a job's reply on `tx`; an error goes out as a typed error
/// frame, counted exactly like the reactor's own error path.
fn send_reply(shared: &Shared, tx: &ConnTx, reply: Reply) {
    match reply {
        Ok(response) => tx.send(&response),
        Err((code, message)) => {
            count_error(shared, code);
            tx.send(&Response::Error { code, message });
        }
    }
}

/// An admitted one-shot request, handed from the reactor to a worker.
pub(crate) enum Job {
    /// `FitProfile`.
    Fit { cycles: u64, trace_bytes: Vec<u8> },
    /// `Synthesize`, or `CoupledSynthesize` when `coupled`.
    OpenStream {
        seed: u64,
        chunk_len: u32,
        source: ProfileSource,
        coupled: bool,
    },
    /// `Stats`.
    Stats { source: ProfileSource },
    /// `Compact`.
    Compact,
}

/// Submits a request-scoped job: observes its queue wait, enforces the
/// deadline, then runs the job. Every job ends here in one way: its reply
/// (or typed error) frame, then `done` — or `stream_started` when it
/// opened a stream that goes on past its first chunk.
///
/// # Errors
///
/// Pool refusal propagates; the caller answers with `Busy`.
pub(crate) fn submit_request_job(
    shared: &Arc<Shared>,
    tx: ConnTx,
    job: Job,
) -> Result<(), SubmitError> {
    let job_shared = Arc::clone(shared);
    let submitted_micros = shared.clock.now_micros();
    shared.pool.submit(move || {
        let shared = &*job_shared;
        let waited = shared.clock.now_micros().saturating_sub(submitted_micros);
        shared.metrics.queue_wait_micros.observe(waited);
        let deadline = shared.config.deadline_micros;
        let (reply, stream) = if waited > deadline {
            let message = format!("queued {waited} µs, deadline {deadline} µs");
            (Err((ErrorCode::DeadlineExceeded, message)), None)
        } else {
            match job {
                Job::Fit {
                    cycles,
                    trace_bytes,
                } => (fit_job(shared, cycles, &trace_bytes), None),
                Job::OpenStream {
                    seed,
                    chunk_len,
                    source,
                    coupled,
                } => match open_stream(shared, &tx, seed, chunk_len, &source, coupled) {
                    // The first chunk goes out with the open; the stream
                    // is handed to the reactor only if more follow.
                    Ok(mut state) => {
                        let first = encode_next(shared, &mut state);
                        (first, (!state.finished).then_some(state))
                    }
                    Err(e) => (Err(e), None),
                },
                Job::Stats { source } => (stats_job(shared, &source), None),
                Job::Compact => (compact_job(shared), None),
            }
        };
        send_reply(shared, &tx, reply);
        match stream {
            Some(state) => tx.stream_started(Arc::new(Mutex::new(state))),
            None => tx.done(),
        }
        shared.wake.wake();
    })
}

/// What one continuation job does for an open stream.
pub(crate) enum StreamWork {
    /// Encode one chunk per banked credit, stopping early at the end.
    Chunks(u32),
    /// Cancelled, superseded or abandoned: send the clean `SynthEnd`.
    Finalize,
}

/// Submits a continuation of an admitted stream: chunks for its banked
/// credits, or its finalize once cancelled. Bypasses the queue cap so an
/// open stream can never be wedged by fresh load.
///
/// # Errors
///
/// Only pool drain refuses, which cannot happen while the reactor runs.
pub(crate) fn submit_stream_job(
    shared: &Arc<Shared>,
    tx: ConnTx,
    state: Arc<Mutex<SynthState>>,
    work: StreamWork,
) -> Result<(), SubmitError> {
    let job_shared = Arc::clone(shared);
    shared.pool.submit_continuation(move || {
        stream_job(&job_shared, &tx, &state, &work);
        job_shared.wake.wake();
    })
}

/// Maps a trace decode failure onto a wire error code.
fn trace_error_frame(e: &TraceError) -> (ErrorCode, String) {
    match e {
        TraceError::LimitExceeded { .. } => (ErrorCode::LimitExceeded, e.to_string()),
        _ => (ErrorCode::Malformed, format!("trace decode: {e}")),
    }
}

/// Maps a profile decode failure onto a wire error code.
fn profile_error_frame(e: &ProfileError) -> (ErrorCode, String) {
    match e {
        ProfileError::Codec(TraceError::LimitExceeded { .. }) => {
            (ErrorCode::LimitExceeded, e.to_string())
        }
        _ => (ErrorCode::Malformed, format!("profile decode: {e}")),
    }
}

/// Worker-side body of `FitProfile`.
fn fit_job(shared: &Shared, cycles: u64, trace_bytes: &[u8]) -> Reply {
    let metrics = &shared.metrics;
    metrics.fit_requests_total.fetch_add(1, Ordering::SeqCst);
    let started = shared.clock.now_micros();
    let config =
        fit_config(cycles).map_err(|msg| (ErrorCode::Malformed, format!("cycles: {msg}")))?;
    let key = fit_key(fnv1a(trace_bytes), &config);
    let cached = shared.with_cache(|cache| cache.get_by_fit_key(key));
    // A fresh fit is encoded once: the record's bytes give the
    // fingerprint, the write-ahead log entry and the reply.
    let (fingerprint, profile, record) = match cached {
        Some((fingerprint, profile)) => {
            metrics.cache_hits_total.fetch_add(1, Ordering::SeqCst);
            (fingerprint, profile, None)
        }
        None => {
            metrics.cache_misses_total.fetch_add(1, Ordering::SeqCst);
            let trace = mocktails_trace::codec::read_trace_with(
                &mut { trace_bytes },
                &shared.config.decode,
            )
            .map_err(|e| trace_error_frame(&e))?;
            // Workers fit sequentially: concurrency comes from the pool,
            // and the result is bit-identical either way (PR 3 invariant).
            let profile = Arc::new(Profile::fit_with(
                &trace,
                &config,
                Parallelism::sequential(),
            ));
            profile
                .validate()
                .map_err(|e| (ErrorCode::Internal, format!("fitted profile: {e}")))?;
            let record = ProfileRecord::from_profile(&profile, Some(key));
            (record.fingerprint, profile, Some(record))
        }
    };
    let cache_hit = record.is_none();
    if let Some(record) = &record {
        // Durability before acknowledgement: a freshly fitted record
        // must be in the write-ahead log (fsynced) before the
        // FitResult goes out, so a crash after the ack can always
        // replay it. The cache is the acknowledgement too — a later
        // upload of the same trace answers `cache_hit` from it — so
        // the profile is published only once the append succeeded.
        // A concurrent identical upload meanwhile fits again; fits
        // are deterministic, and the store keeps one record.
        if let Some(store) = shared.store.as_ref() {
            let persisted = {
                let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
                let result = store.put_record(&profile, record); // lint: allow(L013, the WAL append must serialize under the store lock — durability-before-ack is the point)
                if result.is_ok() {
                    shared.sync_store_metrics(&store);
                }
                result
            };
            persisted.map_err(|e| (ErrorCode::Internal, format!("profile store: {e}")))?;
            metrics
                .store_wal_appends_total
                .fetch_add(1, Ordering::SeqCst);
        }
        shared.with_cache(|cache| cache.insert(fingerprint, Arc::clone(&profile), Some(key)));
    }
    let profile_bytes = match record {
        Some(record) => record.profile_bytes,
        None => {
            let mut profile_bytes = Vec::new();
            write_profile(&mut profile_bytes, &profile);
            profile_bytes
        }
    };
    metrics
        .fit_latency_micros
        .observe(shared.clock.now_micros().saturating_sub(started));
    Ok(Response::FitResult {
        fingerprint,
        cache_hit,
        profile_bytes,
    })
}

/// Resolves a request's profile source against the cache or an inline
/// upload (which is validated, then cached under its content fingerprint
/// so repeats hit).
fn resolve_profile(
    shared: &Shared,
    source: &ProfileSource,
) -> Result<Arc<Profile>, (ErrorCode, String)> {
    match source {
        ProfileSource::Fingerprint(fp) => {
            let found = shared.with_cache(|cache| cache.get(*fp));
            match found {
                Some(profile) => {
                    shared
                        .metrics
                        .cache_hits_total
                        .fetch_add(1, Ordering::SeqCst);
                    Ok(profile)
                }
                None => {
                    shared
                        .metrics
                        .cache_misses_total
                        .fetch_add(1, Ordering::SeqCst);
                    Err((
                        ErrorCode::NotFound,
                        format!("no cached profile with fingerprint {fp:#018x}"),
                    ))
                }
            }
        }
        ProfileSource::Inline(bytes) => {
            let decode = &shared.config.decode;
            let profile = Profile::read(&mut bytes.as_slice(), decode)
                .map_err(|e| profile_error_frame(&e))?;
            // Trusted decoding skips validation; a profile entering the
            // cache is validated either way.
            if !decode.validates() {
                profile.validate().map_err(|e| profile_error_frame(&e))?;
            }
            let profile = Arc::new(profile);
            let fingerprint = fnv1a(bytes);
            Ok(shared.with_cache(|cache| cache.insert(fingerprint, profile, None)))
        }
    }
}

/// Encodes the next chunk (or end-of-stream) from a parked synthesis.
/// Pure compute on `state` — callers send the resulting frame *after*
/// releasing the state lock. The stream is over once `state.finished`
/// is set: after its end frame, or after an encoding failure.
///
/// A coupled stream injects every request into its DRAM model as it is
/// synthesized and feeds the stall back into the generator before the
/// next request — the per-request loop of
/// `MemorySystem::run_synthesizer`, one chunk at a time — so the encoded
/// timestamps already carry the simulated-time backpressure.
fn encode_next(shared: &Shared, state: &mut SynthState) -> Reply {
    let metrics = &shared.metrics;
    let mut records = Vec::new();
    let mut count: u32 = 0;
    while count < state.chunk_len {
        let Some(request) = state.synth.next_request() else {
            break;
        };
        if let Some(coupling) = state.coupling.as_mut() {
            let stall = coupling.mem.inject(&request);
            if stall > 0 {
                state.synth.add_delay(stall);
                metrics
                    .coupled_stall_cycles_total
                    .fetch_add(stall, Ordering::SeqCst);
            }
            coupling.simulated_cycles = request.timestamp;
        }
        if let Err(e) = state.encoder.encode(&mut records, &request) {
            state.finished = true;
            return Err((ErrorCode::Internal, e.to_string()));
        }
        state.fingerprinter.push(&request);
        count += 1;
    }
    if count == 0 {
        return Ok(end_stream(shared, state));
    }
    metrics
        .streamed_bytes_total
        .fetch_add(records.len() as u64, Ordering::SeqCst);
    metrics
        .streamed_requests_total
        .fetch_add(u64::from(count), Ordering::SeqCst);
    if let Some(coupling) = state.coupling.as_ref() {
        metrics.coupled_chunks_total.fetch_add(1, Ordering::SeqCst);
        metrics
            .coupled_streamed_requests_total
            .fetch_add(u64::from(count), Ordering::SeqCst);
        return Ok(Response::CoupledChunk {
            count,
            simulated_cycles: coupling.simulated_cycles,
            stall_cycles: state.synth.accumulated_delay(),
            records,
        });
    }
    Ok(Response::SynthChunk { count, records })
}

/// Finishes a stream: observes its duration and returns the clean
/// `SynthEnd` carrying what was actually sent.
fn end_stream(shared: &Shared, state: &mut SynthState) -> Response {
    state.finished = true;
    shared.metrics.synth_latency_micros.observe(
        shared
            .clock
            .now_micros()
            .saturating_sub(state.started_micros),
    );
    Response::SynthEnd {
        total_requests: state.fingerprinter.count(),
        fingerprint: state.fingerprinter.digest(),
    }
}

/// Worker-side opening of `Synthesize` or, when `coupled`,
/// `CoupledSynthesize`: resolve, start a synthesizer from the profile's
/// shared plan, send `SynthStart`, and return the parked stream. An error
/// here goes out before any `SynthStart`.
///
/// A coupled stream paces every chunk against a fresh DRAM model (the
/// paper's Fig. 1 Option B against a live server).
fn open_stream(
    shared: &Shared,
    tx: &ConnTx,
    seed: u64,
    chunk_len: u32,
    source: &ProfileSource,
    coupled: bool,
) -> Result<SynthState, (ErrorCode, String)> {
    let metrics = &shared.metrics;
    let requests = if coupled {
        &metrics.coupled_requests_total
    } else {
        &metrics.synth_requests_total
    };
    requests.fetch_add(1, Ordering::SeqCst);
    let coupling = coupled.then(|| Coupling {
        mem: MemorySystem::new(DramConfig::default()),
        simulated_cycles: 0,
    });
    let started = shared.clock.now_micros();
    if chunk_len == 0 {
        return Err((ErrorCode::Malformed, "chunk_len must be positive".into()));
    }
    // The profile was validated on its way into the cache.
    let synth = resolve_profile(shared, source)?.synthesizer(seed);
    tx.send(&Response::SynthStart {
        total_requests: synth.remaining(),
    });
    Ok(SynthState {
        synth,
        encoder: RecordEncoder::new(),
        fingerprinter: Fingerprinter::new(),
        chunk_len,
        started_micros: started,
        finished: false,
        coupling,
    })
}

/// Worker-side continuation of a stream: a chunk per credit or, on
/// [`StreamWork::Finalize`], the clean `SynthEnd`. Each frame is sent as
/// soon as it is encoded; one `stream_progress` reports the job done.
fn stream_job(shared: &Shared, tx: &ConnTx, state: &Mutex<SynthState>, work: &StreamWork) {
    let steps = match work {
        StreamWork::Chunks(credits) => *credits,
        StreamWork::Finalize => 1,
    };
    let mut ended = false;
    for _ in 0..steps {
        let reply = {
            let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
            let reply = if state.finished {
                None
            } else if let StreamWork::Finalize = work {
                Some(Ok(end_stream(shared, &mut state)))
            } else {
                // Pure compute under the stream's own lock (no other
                // thread touches this stream while its one job runs); the
                // frame is sent after release.
                Some(encode_next(shared, &mut state)) // lint: allow(L013, the coupled path's MemorySystem::inject is in-memory simulation, not blocking I/O — the stream's lock is held by exactly this one job)
            };
            ended = state.finished;
            reply
        };
        if let Some(reply) = reply {
            send_reply(shared, tx, reply);
        }
        if ended {
            break;
        }
    }
    tx.stream_progress(ended);
}

/// Worker-side body of `Stats`.
fn stats_job(shared: &Shared, source: &ProfileSource) -> Reply {
    shared
        .metrics
        .stats_requests_total
        .fetch_add(1, Ordering::SeqCst);
    let profile = resolve_profile(shared, source)?;
    let summary = profile.summary();
    let text = format!(
        "{summary}\nfingerprint {:#018x}\nmetadata_bytes {}\n",
        profile.content_fingerprint(),
        profile.metadata_size(),
    );
    Ok(Response::StatsText { text })
}

/// Worker-side body of `Compact` (moved off the reactor thread: a
/// checkpoint fsyncs, which must never stall the event loop).
fn compact_job(shared: &Shared) -> Reply {
    let Some(store) = shared.store.as_ref() else {
        return Err((ErrorCode::NotFound, "server has no store configured".into()));
    };
    let (stats, generation) = {
        let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
        let stats = store.compact();
        if stats.is_ok() {
            shared.sync_store_metrics(&store);
        }
        (stats, store.generation())
    };
    let stats = stats.map_err(|e| (ErrorCode::Internal, e.to_string()))?;
    shared
        .metrics
        .store_checkpoints_total
        .fetch_add(1, Ordering::SeqCst);
    shared
        .metrics
        .store_last_checkpoint_micros
        .store(shared.clock.now_micros(), Ordering::SeqCst);
    Ok(Response::CompactOk {
        generation,
        profiles: stats.profiles,
        checkpoint_bytes: stats.checkpoint_bytes,
        wal_bytes_dropped: stats.wal_bytes_dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_config_matches_cli_phase_config_shape() {
        let config = fit_config(500_000).unwrap();
        assert_eq!(
            config.layers(),
            &[
                LayerSpec::TemporalCycleCount(500_000),
                LayerSpec::SpatialDynamic
            ]
        );
        assert!(fit_config(0).is_err(), "zero cycles must be rejected");
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServerConfig::default();
        assert!(config.workers >= 1);
        assert!(config.max_frame_len >= 1 << 20);
        assert!(config.deadline_micros > 0);
        assert!(config.max_conns >= 1);
        assert!(config.validate().is_ok());
    }

    /// A config mutation and the error it must provoke.
    type KnobCase = (fn(&mut ServerConfig), ServerConfigError);

    #[test]
    fn validate_rejects_each_zero_knob() {
        let cases: [KnobCase; 4] = [
            (|c| c.workers = 0, ServerConfigError::ZeroWorkers),
            (|c| c.max_conns = 0, ServerConfigError::ZeroMaxConns),
            (|c| c.deadline_micros = 0, ServerConfigError::ZeroDeadline),
            (
                |c| c.max_frame_len = 512,
                ServerConfigError::FrameLimitTooSmall { min: 1024 },
            ),
        ];
        for (mutate, expected) in cases {
            let mut config = ServerConfig::default();
            mutate(&mut config);
            assert_eq!(config.validate(), Err(expected));
        }
    }
}
