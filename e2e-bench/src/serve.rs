//! `serve-fit` and `serve-stream`: the served pipeline over loopback.
//!
//! Both run the same server (2 workers, queue cap 64, cache capacity 64, a
//! fresh store directory that fsyncs every append, fits at the DRAM
//! evaluations' 500 000-cycle phase) and drive it from this process as a
//! closed loop: 2 client threads, one connection each at a time, no
//! retries. A `Busy` or any other error counts as a failed call.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mocktails_core::partition::hierarchy;
use mocktails_core::{HierarchyConfig, LeafModel, Profile};
use mocktails_pool::Parallelism;
use mocktails_serve::{Client, MonotonicClock, ProfileSource, ServeError, Server, ServerConfig};
use mocktails_sim::harness::EvalOptions;
use mocktails_store::ProfileStore;
use mocktails_trace::codec::read_trace_with;
use mocktails_trace::transform::rebase_address;
use mocktails_trace::{fnv1a, DecodeOptions, Trace};
use mocktails_workloads::{cpu, gpu, vpu};

use crate::common::{median, median_secs, percentile};
use crate::spans::Scope;
use crate::{golden, inputs, Bench, Config, Layers, Outcome, Pass, Timed, FIT_THREADS};

const CLIENTS: usize = 2;
/// `Synthesize` calls per connection in `serve-stream`.
const SESSION_CALLS: usize = 6;
const CHUNK_LEN: u32 = 512;
/// Every this many uploads, `serve-fit` checks the served fit against an
/// offline one (and, traced, times the offline calls as a floor).
const FLOOR_EVERY: u64 = 8;
/// Requests per `serve-fit` upload.
const UPLOAD_REQUESTS: usize = 8192;
/// Fresh-seed traces generated per set-up; calls beyond them upload
/// address-shifted copies, so no two uploads of a run are equal.
const UPLOAD_BASES: usize = 128;
/// Address shift between copies of one base upload.
const UPLOAD_STRIDE: i64 = 1 << 40;
/// First generator seed of the uploads, clear of the catalog's seeds.
const UPLOAD_SEED: u64 = 1000;
/// Served profiles the store floor appends: enough for a p99 with 10
/// samples beyond it.
const FLOOR_APPENDS: usize = 1000;
/// The profiles `serve-stream` serves.
const STREAM_PROFILES: [&str; 6] = [
    "T-Rex1",
    "HEVC1",
    "FBC-Tiled1",
    "Crypto1",
    "OpenCL1",
    "Multi-layer",
];

fn fit_cycles() -> u64 {
    EvalOptions::default().cycles_per_phase
}

fn fit_config() -> HierarchyConfig {
    HierarchyConfig::two_level_ts(fit_cycles())
}

/// A directory next to the benchmark's executable (inside the build
/// directory), removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let root = exe.parent().ok_or("the executable has no directory")?;
        let dir = root.join("e2e-scratch").join(format!(
            "{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server running on a thread of this process.
struct Served {
    addr: String,
    thread: JoinHandle<Result<(), ServeError>>,
    _store: ScratchDir,
}

type Metrics = BTreeMap<String, f64>;

impl Served {
    fn start() -> Result<Self, String> {
        let store = ScratchDir::new("store")?;
        let config = ServerConfig::builder()
            .workers(2)
            .queue_cap(64)
            .cache_capacity(64)
            .store_dir(store.0.clone())
            .build()
            .map_err(|e| e.to_string())?;
        let server = Server::bind("127.0.0.1:0", config, Arc::new(MonotonicClock::new()))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            thread,
            _store: store,
        })
    }

    fn connect(&self) -> Result<Client, ServeError> {
        Client::connect(&self.addr)
    }

    /// `/metricsz` as name → value.
    fn metrics(&self) -> Result<Metrics, String> {
        let text = self
            .connect()
            .and_then(|mut c| c.metricsz())
            .map_err(|e| format!("metricsz: {e}"))?;
        Ok(text
            .lines()
            .filter_map(|line| {
                let (name, value) = line.split_once(' ')?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect())
    }

    /// Shuts the server down and waits for its thread.
    fn stop(self) -> Result<(), String> {
        self.connect()
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// What one client thread did in one pass.
#[derive(Default)]
struct ClientPass {
    latencies: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
    requests: u64,
    mismatches: Vec<String>,
    /// `serve-fit`: (call, served profile bytes) of floor-sampled calls.
    sampled: Vec<(u64, Vec<u8>)>,
    /// `serve-fit`: served profile bytes of traced calls (for the store
    /// floor).
    traced_profiles: Vec<Vec<u8>>,
    /// `serve-fit`: summed length of the profiles served to traced calls.
    traced_profile_bytes: u64,
    cache_hits: u64,
    chunks: u64,
}

/// Runs `client` on [`CLIENTS`] threads at once and merges what they did.
fn run_clients(client: impl Fn(usize) -> ClientPass + Sync) -> (Pass, ClientPass) {
    let results: Vec<ClientPass> = std::thread::scope(|ts| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = &client;
                ts.spawn(move || client(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass::default();
    let mut merged = ClientPass::default();
    for r in results {
        pass.latencies.extend(r.latencies);
        pass.failed += r.failed;
        pass.requests += r.requests;
        pass.mismatches.extend(r.mismatches);
        merged.errors.extend(r.errors);
        merged.sampled.extend(r.sampled);
        merged.traced_profiles.extend(r.traced_profiles);
        merged.traced_profile_bytes += r.traced_profile_bytes;
        merged.cache_hits += r.cache_hits;
        merged.chunks += r.chunks;
    }
    (pass, merged)
}

/// `/metricsz` before and after the timed passes, one pair per server.
#[derive(Default)]
struct ServerViews {
    pairs: Vec<(Metrics, Metrics)>,
    /// The running server's scrape from before its first timed pass.
    before: Option<Metrics>,
}

impl ServerViews {
    /// Scrapes the running server as the start of its timed section.
    fn open(&mut self, server: &Served) -> Result<(), String> {
        self.before = Some(server.metrics()?);
        Ok(())
    }

    /// Scrapes the running server as the end of its timed section, if one
    /// was opened.
    fn close(&mut self, server: &Served) -> Result<(), String> {
        if let Some(before) = self.before.take() {
            self.pairs.push((before, server.metrics()?));
        }
        Ok(())
    }

    /// Summed change of counter `name`.
    fn delta(&self, name: &str) -> f64 {
        let get = |m: &Metrics| m.get(name).copied().unwrap_or(0.0);
        self.pairs.iter().map(|(b, a)| get(a) - get(b)).sum()
    }

    /// Median over servers of histogram statistic `name` at the end.
    fn median(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .pairs
            .iter()
            .map(|(_, a)| a.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&values)
    }

    /// The `serve.*` metrics both workloads report.
    fn insert(&self, calls: f64, layers: &mut Layers) {
        let fits = self.delta("fit_requests_total");
        for (name, value) in [
            (
                "serve.wakeups_per_call",
                self.delta("reactor_wakeups_total") / calls,
            ),
            (
                "serve.fit_server_ms_p50",
                self.median("fit_latency_p50_micros") / 1e3,
            ),
            (
                "serve.synth_server_us_p50",
                self.median("synth_latency_p50_micros"),
            ),
            (
                "serve.queue_wait_us_p50",
                self.median("queue_wait_p50_micros"),
            ),
            (
                "serve.cache_hit_ratio",
                if fits > 0.0 {
                    self.delta("cache_hits_total") / fits
                } else {
                    0.0
                },
            ),
            ("serve.busy_rejections", self.delta("busy_rejections_total")),
            ("serve.errors", self.delta("errors_total")),
        ] {
            layers.insert(name, value);
        }
    }
}

fn report_errors(out: &mut Outcome, errors: &[String]) {
    for e in errors.iter().take(3) {
        out.line(format!("failed call: {e}"));
    }
}

/// Completed calls over every timed pass.
fn completed_calls(timed: &Timed<'_>) -> f64 {
    timed
        .passes
        .iter()
        .map(|p| p.pass.latencies.len())
        .sum::<usize>() as f64
}

/// `serve-fit`: every call uploads a trace the server has not seen, so
/// each pays upload decode → fit → cache insert → WAL append and fsync →
/// profile encode, one round trip per call.
pub(crate) struct ServeFit {
    server: Served,
    bases: Vec<Trace>,
    calls_per_client: usize,
    next_call: u64,
    sampled: Vec<(u64, Vec<u8>)>,
    traced_profiles: Vec<Vec<u8>>,
    traced_profile_bytes: u64,
    cache_hits: u64,
    errors: Vec<String>,
    views: ServerViews,
}

impl ServeFit {
    /// Upload `k`: base `k mod B`, shifted in address by `k / B` strides.
    fn upload(&self, k: u64) -> Trace {
        let n = self.bases.len() as u64;
        rebase_address(
            &self.bases[(k % n) as usize],
            (k / n) as i64 * UPLOAD_STRIDE,
        )
    }

    fn client(&self, scope: Scope<'_>, c: usize, first: u64) -> ClientPass {
        let mut r = ClientPass::default();
        scope.with_call(c as u64).span("bench.client", |s| {
            let mut client: Option<Client> = None;
            for j in 0..self.calls_per_client {
                let k = first + (c + CLIENTS * j) as u64;
                let s = s.with_call(k);
                let upload = s.span("bench.upload", |_| self.upload(k));
                let bytes = s.counted("trace.encode", |_| {
                    let bytes = inputs::encode(&upload);
                    let n = bytes.len() as u64;
                    (bytes, n)
                });
                let conn = match client.take() {
                    Some(conn) => Ok(conn),
                    None => s.span("serve.connect", |_| self.server.connect()),
                };
                let started = Instant::now();
                let result = conn.and_then(|mut conn| {
                    let fit = s.span("serve.fit", |_| conn.fit(fit_cycles(), bytes))?;
                    client = Some(conn);
                    Ok(fit)
                });
                match result {
                    Ok(fit) => {
                        r.latencies.push(started.elapsed().as_secs_f64());
                        r.requests += upload.len() as u64;
                        r.cache_hits += u64::from(fit.cache_hit);
                        if s.is_on() {
                            r.traced_profile_bytes += fit.profile_bytes.len() as u64;
                            r.traced_profiles.push(fit.profile_bytes.clone());
                        }
                        if k.is_multiple_of(FLOOR_EVERY) {
                            r.sampled.push((k, fit.profile_bytes));
                        }
                    }
                    Err(e) => {
                        r.failed += 1;
                        r.errors.push(format!("fit {k}: {e}"));
                    }
                }
            }
        });
        r
    }
}

impl Bench for ServeFit {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let mut seen = HashSet::new();
        let mut bases = Vec::new();
        for i in 0..UPLOAD_BASES {
            let seed = (UPLOAD_SEED + i as u64) ^ cfg.seed;
            let trace = match i % 5 {
                0 => vpu::hevc(seed, &vpu::HevcParams::default()),
                1 => gpu::trex(seed),
                2 => cpu::crypto(seed, &cpu::CryptoParams::default()),
                3 => cpu::companion(seed, (i / 5 % 3) as u64, &cpu::CompanionParams::default()),
                _ => gpu::opencl(seed, &gpu::OpenClParams::default()),
            };
            let trace = cfg.scale.cut(trace.truncate_to(UPLOAD_REQUESTS));
            // Some generators ignore the seed once truncated; keep one
            // copy of each distinct upload.
            if seen.insert(fnv1a(&inputs::encode(&trace))) {
                bases.push(trace);
            }
        }
        let server = Served::start()?;
        if let Err(e) = server.connect() {
            let _ = server.stop();
            return Err(format!("connect: {e}"));
        }
        Ok(Self {
            server,
            bases,
            calls_per_client: cfg.scale.calls_per_client(50),
            next_call: 0,
            sampled: Vec::new(),
            traced_profiles: Vec::new(),
            traced_profile_bytes: 0,
            cache_hits: 0,
            errors: Vec::new(),
            views: ServerViews::default(),
        })
    }

    fn pass(&mut self, scope: Scope<'_>) -> Pass {
        let first = self.next_call;
        self.next_call += (CLIENTS * self.calls_per_client) as u64;
        let (pass, merged) = run_clients(|c| self.client(scope, c, first));
        self.sampled.extend(merged.sampled);
        self.traced_profile_bytes += merged.traced_profile_bytes;
        let room = FLOOR_APPENDS.saturating_sub(self.traced_profiles.len());
        self.traced_profiles
            .extend(merged.traced_profiles.into_iter().take(room));
        self.cache_hits += merged.cache_hits;
        self.errors.extend(merged.errors);
        pass
    }

    fn check_reference(&mut self, _cfg: &Config, out: &mut Outcome) {
        out.line(format!(
            "{} distinct base uploads of {UPLOAD_BASES} generated",
            self.bases.len()
        ));
    }

    /// Every timed pass gets a fresh server and store: the store keeps
    /// every profile it has logged in memory, so a long-lived server would
    /// make peak memory grow with the number of calls a run completes.
    fn before_pass(&mut self) -> Result<(), String> {
        self.views.close(&self.server)?;
        let previous = std::mem::replace(&mut self.server, Served::start()?);
        previous.stop()?;
        self.views.open(&self.server)
    }

    fn finish(mut self, cfg: &Config, timed: &Timed<'_>, layers: &mut Layers, out: &mut Outcome) {
        report_errors(out, &self.errors);
        out.check(self.cache_hits == 0, || {
            format!("{} uploads hit the fit cache", self.cache_hits)
        });
        let mut views = std::mem::take(&mut self.views);
        if let Err(e) = views.close(&self.server) {
            out.failures.push(e);
        }
        out.check(views.delta("cache_hits_total") == 0.0, || {
            "serve.cache_hit_ratio is not 0".into()
        });
        out.check(
            views.delta("store_wal_appends_total") == views.delta("fit_requests_total"),
            || "not every timed fit was appended to the store".into(),
        );

        // Served fits must equal offline fits; the offline calls double as
        // the floor of what the server must do per upload.
        let (mut decode_s, mut partition_s, mut fit_s, mut encode_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut leaves, mut upload_bytes) = (0u64, 0usize);
        for (k, served) in &self.sampled {
            let bytes = inputs::encode(&self.upload(*k));
            upload_bytes += bytes.len();
            let started = Instant::now();
            let trace = read_trace_with(&mut bytes.as_slice(), &DecodeOptions::default())
                .expect("the upload decodes");
            decode_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let partitions = hierarchy::partition(&trace, &fit_config());
            partition_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let fitted = Parallelism::sequential().map(&partitions, LeafModel::fit);
            leaves += fitted.len() as u64;
            let profile = Profile::from_parts(fit_config(), fitted);
            fit_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let mut offline = Vec::new();
            profile.write(&mut offline).expect("encoding to memory");
            encode_s += started.elapsed().as_secs_f64();
            out.check(offline == *served, || {
                format!("upload {k}: served fit differs from the offline fit")
            });
        }
        if cfg.trace {
            let scale = timed.calls_per_traced_pass() / self.sampled.len().max(1) as f64;
            let mb = upload_bytes as f64 / (1024.0 * 1024.0);
            let encode_pass = timed.per_pass("trace.encode");
            for (name, value) in [
                ("trace.decode_s", decode_s * scale),
                ("trace.decode_mb_per_s", mb / decode_s),
                ("trace.encode_s", encode_pass),
                (
                    "trace.encode_mb_per_s",
                    timed.items_per_pass("trace.encode") / (1024.0 * 1024.0) / encode_pass,
                ),
                ("partition.self_s", partition_s * scale),
                ("partition.leaves", leaves as f64 * scale),
                ("fit.self_s", fit_s * scale),
                ("fit.leaves_per_s", leaves as f64 / fit_s),
                ("profile.encode_s", encode_s * scale),
                (
                    "profile.bytes",
                    self.traced_profile_bytes as f64 / timed.traced_passes(),
                ),
                (
                    "serve.connect_ms_p50",
                    median(&timed.tracer.durations("serve.connect")) * 1e3,
                ),
            ] {
                layers.insert(name, value);
            }
            self.store_floor(cfg, layers, out);
            views.insert(completed_calls(timed), layers);
            layers.insert(
                "store.wal_appends",
                views.delta("store_wal_appends_total") / timed.passes.len() as f64,
            );
        }
        if let Err(e) = self.server.stop() {
            out.failures.push(e);
        }
    }

    fn discard(self) {
        let _ = self.server.stop();
    }
}

impl ServeFit {
    /// Appends every profile served in a traced pass to a fresh store and
    /// times each durable append.
    fn store_floor(&self, cfg: &Config, layers: &mut Layers, out: &mut Outcome) {
        let appends = ScratchDir::new("floor").and_then(|dir| {
            let mut store = ProfileStore::open(&dir.0).map_err(|e| e.to_string())?;
            self.traced_profiles
                .iter()
                .map(|bytes| {
                    let profile = Profile::read(&mut bytes.as_slice(), &DecodeOptions::trusted())
                        .map_err(|e| e.to_string())?;
                    let profile = Arc::new(profile);
                    let started = Instant::now();
                    store
                        .put_profile(&profile, None)
                        .map_err(|e| e.to_string())?;
                    Ok(started.elapsed().as_secs_f64() * 1e3)
                })
                .collect::<Result<Vec<f64>, String>>()
        });
        let percentiles =
            appends.and_then(|ms| Ok((median(&ms), percentile(&ms, 99.0, cfg.scale.min_tail())?)));
        match percentiles {
            Ok((p50, p99)) => {
                layers.insert("store.append_ms_p50", p50);
                layers.insert("store.append_ms_p99", p99);
            }
            Err(e) => out.failures.push(format!("store append floor: {e}")),
        }
    }
}

/// `serve-stream`: sessions of [`SESSION_CALLS`] `Synthesize` calls by
/// fingerprint against profiles fitted in set-up, so every call is a
/// cache hit and chunk/ack round trips dominate.
pub(crate) struct ServeStream {
    server: Served,
    fingerprints: Vec<u64>,
    expected: Vec<Vec<u8>>,
    totals: Vec<u64>,
    profiles: Vec<Profile>,
    synth_seed: u64,
    calls_per_client: usize,
    passes: usize,
    chunks: u64,
    errors: Vec<String>,
    setup_failures: Vec<String>,
    views: ServerViews,
}

impl ServeStream {
    /// One stream: the concatenated record bytes, chunk count and the
    /// server's end-of-stream request total.
    fn stream(
        &self,
        client: &mut Client,
        p: usize,
        s: Scope<'_>,
    ) -> Result<(Vec<u8>, u64, u64), ServeError> {
        let first = s.enter("serve.first_chunk");
        let source = ProfileSource::Fingerprint(self.fingerprints[p]);
        let mut stream = client.begin_synthesize(self.synth_seed, CHUNK_LEN, source)?;
        let mut chunk = stream.next_chunk()?;
        first.close(0);
        let mut records = Vec::with_capacity(self.expected[p].len());
        let mut chunks = 0;
        while let Some(bytes) = chunk {
            records.extend_from_slice(&bytes);
            chunks += 1;
            chunk = s.span("serve.chunk_rtt", |_| {
                stream.ack()?;
                stream.next_chunk()
            })?;
        }
        let (total, _) = stream.end()?;
        Ok((records, chunks, total))
    }

    fn client(&self, scope: Scope<'_>, c: usize) -> ClientPass {
        let mut r = ClientPass::default();
        let base = ((self.passes * CLIENTS + c) * self.calls_per_client) as u64;
        scope.with_call(c as u64).span("bench.client", |s| {
            let mut client: Option<Client> = None;
            for j in 0..self.calls_per_client {
                let p = j % SESSION_CALLS;
                let s = s.with_call(base + j as u64);
                if p == 0 {
                    client = None;
                }
                let conn = match client.take() {
                    Some(conn) => Ok(conn),
                    None => s.span("serve.connect", |_| self.server.connect()),
                };
                let started = Instant::now();
                let result = conn.and_then(|mut conn| {
                    let streamed = s.span("bench.call", |cs| self.stream(&mut conn, p, cs))?;
                    client = Some(conn);
                    Ok(streamed)
                });
                match result {
                    Ok((records, chunks, total)) => {
                        r.latencies.push(started.elapsed().as_secs_f64());
                        r.requests += total;
                        r.chunks += chunks;
                        s.span("bench.check", |_| {
                            if records != self.expected[p] || total != self.totals[p] {
                                r.mismatches.push(format!(
                                    "{}: served stream differs from offline synthesis",
                                    STREAM_PROFILES[p]
                                ));
                            }
                        });
                    }
                    Err(e) => {
                        r.failed += 1;
                        r.errors.push(format!("{}: {e}", STREAM_PROFILES[p]));
                    }
                }
            }
        });
        r
    }

    /// Fits the served profiles through the server and offline, and
    /// synthesizes the expected streams.
    fn prime(&mut self, cfg: &Config) -> Result<(), String> {
        let mut primer = self.server.connect().map_err(|e| format!("connect: {e}"))?;
        for name in STREAM_PROFILES {
            let trace = inputs::catalog_entry(name).generate(cfg.seed, cfg.scale);
            let fit = primer
                .fit(fit_cycles(), inputs::encode(&trace))
                .map_err(|e| format!("fit {name}: {e}"))?;
            let profile = Profile::fit_with(&trace, &fit_config(), Parallelism::new(FIT_THREADS));
            let mut offline = Vec::new();
            profile.write(&mut offline).expect("encoding to memory");
            if fit.profile_bytes != offline || fit.fingerprint != profile.content_fingerprint() {
                self.setup_failures
                    .push(format!("{name}: served fit differs from the offline fit"));
            }
            let synthetic = profile.synthesize(self.synth_seed);
            self.fingerprints.push(fit.fingerprint);
            self.expected.push(inputs::encode_records(&synthetic));
            self.totals.push(synthetic.len() as u64);
            self.profiles.push(profile);
        }
        Ok(())
    }
}

impl Bench for ServeStream {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let mut this = Self {
            server: Served::start()?,
            fingerprints: Vec::new(),
            expected: Vec::new(),
            totals: Vec::new(),
            profiles: Vec::new(),
            synth_seed: inputs::synth_seed(cfg.seed),
            calls_per_client: cfg.scale.calls_per_client(4 * SESSION_CALLS),
            passes: 0,
            chunks: 0,
            errors: Vec::new(),
            setup_failures: Vec::new(),
            views: ServerViews::default(),
        };
        match this.prime(cfg) {
            Ok(()) => Ok(this),
            Err(e) => {
                let _ = this.server.stop();
                Err(e)
            }
        }
    }

    fn pass(&mut self, scope: Scope<'_>) -> Pass {
        let (pass, merged) = run_clients(|c| self.client(scope, c));
        self.passes += 1;
        self.chunks += merged.chunks;
        self.errors.extend(merged.errors);
        pass
    }

    fn check_reference(&mut self, cfg: &Config, out: &mut Outcome) {
        out.failures.append(&mut self.setup_failures);
        if golden::applies(cfg) {
            out.failures.extend(inputs::check_catalog_table());
            for (p, &(key, want)) in golden::STREAM.iter().enumerate() {
                out.check(key == STREAM_PROFILES[p], || {
                    format!("golden stream table out of order at {key}")
                });
                golden::check(out, "streamed records", key, want, fnv1a(&self.expected[p]));
            }
        }
        // Chunks counted from here on belong to the timed section.
        self.chunks = 0;
        if let Err(e) = self.views.open(&self.server) {
            out.failures.push(e);
        }
    }

    fn finish(mut self, cfg: &Config, timed: &Timed<'_>, layers: &mut Layers, out: &mut Outcome) {
        report_errors(out, &self.errors);
        let mut views = std::mem::take(&mut self.views);
        if let Err(e) = views.close(&self.server) {
            out.failures.push(e);
        }
        if cfg.trace {
            let calls = completed_calls(timed);
            let floor: Vec<f64> = self
                .profiles
                .iter()
                .map(|p| median_secs(3, || p.synthesize(self.synth_seed)))
                .collect();
            let synth_per_call = floor.iter().sum::<f64>() / floor.len() as f64;
            let requests_per_call = self.totals.iter().sum::<u64>() as f64 / floor.len() as f64;
            let rtt_us: Vec<f64> = timed
                .tracer
                .durations("serve.chunk_rtt")
                .iter()
                .map(|s| s * 1e6)
                .collect();
            match percentile(&rtt_us, 99.0, cfg.scale.min_tail()) {
                Ok(p99) => {
                    layers.insert("serve.chunk_rtt_us_p99", p99);
                }
                Err(e) => out.failures.push(format!("chunk round trip {e}")),
            }
            for (name, value) in [
                (
                    "synth.self_s",
                    synth_per_call * timed.calls_per_traced_pass(),
                ),
                ("synth.requests_per_s", requests_per_call / synth_per_call),
                (
                    "serve.connect_ms_p50",
                    median(&timed.tracer.durations("serve.connect")) * 1e3,
                ),
                (
                    "serve.first_chunk_ms_p50",
                    median(&timed.tracer.durations("serve.first_chunk")) * 1e3,
                ),
                ("serve.chunk_rtt_us_p50", median(&rtt_us)),
                ("serve.chunks_per_call", self.chunks as f64 / calls),
            ] {
                layers.insert(name, value);
            }
            views.insert(calls, layers);
        }
        if let Err(e) = self.server.stop() {
            out.failures.push(e);
        }
    }

    fn discard(self) {
        let _ = self.server.stop();
    }
}
