//! Loopback integration tests: a real server on an ephemeral port, real
//! clients, and byte-level comparison against the offline pipeline.

use std::sync::Arc;

use mocktails_core::{HierarchyConfig, LayerSpec, Profile};
use mocktails_pool::Parallelism;
use mocktails_serve::{
    Client, ErrorCode, ManualClock, ProfileSource, ServeError, Server, ServerConfig,
};
use mocktails_trace::codec::write_trace;
use mocktails_trace::{DecodeLimits, DecodeOptions, Trace};
use mocktails_workloads::spec::generate_n;

const CYCLES: u64 = 50_000;
const SEED: u64 = 42;

fn small_trace() -> Trace {
    generate_n("gobmk", 7, 2_000).expect("known benchmark name")
}

fn trace_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_trace(&mut bytes, trace).expect("encoding to memory");
    bytes
}

fn offline_config() -> HierarchyConfig {
    HierarchyConfig::builder()
        .layer(LayerSpec::TemporalCycleCount(CYCLES))
        .layer(LayerSpec::SpatialDynamic)
        .build()
        .expect("valid config")
}

/// Fits and synthesizes entirely offline — the reference the server must
/// match byte-for-byte.
fn offline_round_trip(trace: &Trace) -> (Vec<u8>, Vec<u8>) {
    let profile = Profile::fit_with(trace, &offline_config(), Parallelism::sequential());
    let mut profile_bytes = Vec::new();
    profile.write(&mut profile_bytes).expect("profile encode");
    let synth = profile.synthesize(SEED);
    (profile_bytes, trace_bytes(&synth))
}

/// Starts a server on an ephemeral loopback port; returns its address and
/// the thread running it (joined after shutdown).
fn start_server(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config, Arc::new(ManualClock::new()))
        .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shut_down(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown handshake");
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn server_output_is_byte_identical_to_offline_at_any_worker_count() {
    let trace = small_trace();
    let upload = trace_bytes(&trace);
    let (offline_profile, offline_synth) = offline_round_trip(&trace);

    for workers in [1usize, 2, 8] {
        let (addr, handle) = start_server(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&addr).expect("connect");

        let fit = client.fit(CYCLES, upload.clone()).expect("fit");
        assert!(!fit.cache_hit, "first fit must miss ({workers} workers)");
        assert_eq!(
            fit.profile_bytes, offline_profile,
            "server profile differs from offline at {workers} workers"
        );

        // By fingerprint (cache) and by inline upload: same bytes.
        for source in [
            ProfileSource::Fingerprint(fit.fingerprint),
            ProfileSource::Inline(fit.profile_bytes.clone()),
        ] {
            let synth = client.synthesize(SEED, 257, source).expect("synthesize");
            assert_eq!(
                synth.trace_bytes, offline_synth,
                "streamed trace differs from offline at {workers} workers"
            );
        }

        // A repeat fit of the same bytes is answered from the cache.
        let refit = client.fit(CYCLES, upload.clone()).expect("refit");
        assert!(refit.cache_hit, "repeat fit must hit ({workers} workers)");
        assert_eq!(refit.fingerprint, fit.fingerprint);
        assert_eq!(refit.profile_bytes, offline_profile);

        shut_down(&addr, handle);
    }
}

#[test]
fn chunk_length_does_not_change_the_bytes() {
    let trace = small_trace();
    let (_, offline_synth) = offline_round_trip(&trace);
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let fit = client.fit(CYCLES, trace_bytes(&trace)).expect("fit");
    for chunk_len in [1u32, 64, 1 << 20] {
        let synth = client
            .synthesize(SEED, chunk_len, ProfileSource::Fingerprint(fit.fingerprint))
            .expect("synthesize");
        assert_eq!(synth.trace_bytes, offline_synth, "chunk_len {chunk_len}");
    }
    shut_down(&addr, handle);
}

#[test]
fn metrics_text_is_deterministic_under_frozen_clock() {
    // Two servers, frozen clocks, identical request sequences → identical
    // metric renderings, byte for byte.
    let trace = small_trace();
    let upload = trace_bytes(&trace);
    let render = |addr: &str| {
        let mut client = Client::connect(addr).expect("connect");
        let fit = client.fit(CYCLES, upload.clone()).expect("fit");
        let _ = client.fit(CYCLES, upload.clone()).expect("refit");
        let _ = client
            .synthesize(SEED, 512, ProfileSource::Fingerprint(fit.fingerprint))
            .expect("synthesize");
        client.metricsz().expect("metricsz")
    };
    let (addr_a, handle_a) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (addr_b, handle_b) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let text_a = render(&addr_a);
    let text_b = render(&addr_b);
    // reactor_wakeups_total is the one scheduling-dependent metric (it
    // counts event-loop sweeps, which depend on park timing); everything
    // else must match byte for byte.
    let strip = |text: &str| {
        text.lines()
            .filter(|line| !line.starts_with("reactor_wakeups_total "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&text_a), strip(&text_b), "metric renderings diverged");
    // Two hits: the repeat fit (by fit key) and the synthesize (by
    // fingerprint); one miss: the first fit.
    assert!(text_a.contains("cache_hits_total 2"), "{text_a}");
    assert!(text_a.contains("cache_misses_total 1"), "{text_a}");
    assert!(text_a.contains("uptime_micros 0"), "{text_a}");
    shut_down(&addr_a, handle_a);
    shut_down(&addr_b, handle_b);
}

#[test]
fn idle_server_backs_off_to_one_sweep_per_park_tick() {
    // After activity the reactor parks briefly, then backs off to one
    // sweep per 1 ms tick; it never turns into a busy spin. Parks only
    // overshoot their timeout, so wall time bounds the sweep count.
    let trace = small_trace();
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let fit = client.fit(CYCLES, trace_bytes(&trace)).expect("fit");
    client
        .synthesize(SEED, 64, ProfileSource::Fingerprint(fit.fingerprint))
        .expect("synthesize");
    let mut wakeups = || -> u64 {
        let text = client.metricsz().expect("metricsz");
        text.lines()
            .find_map(|l| l.strip_prefix("reactor_wakeups_total "))
            .expect("reactor_wakeups_total present")
            .parse()
            .expect("numeric")
    };
    let started = std::time::Instant::now();
    let before = wakeups();
    std::thread::sleep(std::time::Duration::from_millis(300));
    let after = wakeups();
    let idle_ms = started.elapsed().as_secs_f64() * 1e3;
    let delta = after - before;
    assert!(
        delta as f64 <= 1.5 * idle_ms + 20.0,
        "{delta} reactor wakeups in {idle_ms:.1} ms idle"
    );
    shut_down(&addr, handle);
}

#[test]
fn stats_and_not_found_round_trip() {
    let trace = small_trace();
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let fit = client.fit(CYCLES, trace_bytes(&trace)).expect("fit");

    let text = client
        .stats(ProfileSource::Fingerprint(fit.fingerprint))
        .expect("stats");
    assert!(text.contains("fingerprint"), "{text}");

    let err = client
        .stats(ProfileSource::Fingerprint(fit.fingerprint ^ 1))
        .expect_err("unknown fingerprint");
    assert!(
        matches!(
            &err,
            ServeError::Remote {
                code: ErrorCode::NotFound,
                ..
            }
        ),
        "{err}"
    );
    // The typed error left the connection usable.
    assert!(client.metricsz().is_ok());
    shut_down(&addr, handle);
}

#[test]
fn malformed_uploads_get_typed_errors_not_dropped_connections() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    let err = client
        .fit(CYCLES, b"not a trace".to_vec())
        .expect_err("garbage");
    assert!(
        matches!(
            &err,
            ServeError::Remote {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "{err}"
    );
    let err = client.fit(0, Vec::new()).expect_err("zero cycles");
    assert!(
        matches!(
            &err,
            ServeError::Remote {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "{err}"
    );
    let err = client
        .synthesize(SEED, 0, ProfileSource::Fingerprint(1))
        .expect_err("zero chunk_len");
    assert!(
        matches!(
            &err,
            ServeError::Remote {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "{err}"
    );
    // Still alive after three typed failures.
    assert!(client.metricsz().is_ok());
    shut_down(&addr, handle);
}

#[test]
fn oversized_frame_is_limit_exceeded() {
    let (addr, handle) = start_server(ServerConfig {
        max_frame_len: 1 << 10,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let err = client
        .fit(CYCLES, vec![0u8; 1 << 12])
        .expect_err("frame above the server limit");
    assert!(
        matches!(
            &err,
            ServeError::Remote {
                code: ErrorCode::LimitExceeded,
                ..
            }
        ),
        "{err}"
    );
    shut_down(&addr, handle);
}

#[test]
fn mid_stream_client_survives_shutdown_with_clean_end_of_stream() {
    let trace = small_trace();
    let (addr, handle) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let fit = client.fit(CYCLES, trace_bytes(&trace)).expect("fit");

    // Open a stream with tiny chunks and read just the first chunk.
    let mut stream = client
        .begin_synthesize(SEED, 16, ProfileSource::Fingerprint(fit.fingerprint))
        .expect("begin stream");
    let first = stream.next_chunk().expect("first chunk");
    assert!(first.is_some(), "stream should have at least one chunk");

    // Another client asks the server to shut down while the stream is
    // mid-flight.
    let mut other = Client::connect(&addr).expect("second client");
    other.shutdown().expect("shutdown accepted");

    // The draining server must still complete the stream: ack the chunk
    // in hand, then keep reading until the clean end-of-stream frame —
    // never a reset mid-read.
    stream.ack().expect("ack first chunk");
    while stream.next_chunk().expect("mid-shutdown chunk").is_some() {
        stream.ack().expect("ack during drain");
    }
    let (total, fingerprint) = stream.end().expect("clean end of stream");
    assert!(total > 0);
    assert_ne!(fingerprint, 0);

    handle.join().expect("server exits cleanly");
}

#[test]
fn over_cap_requests_get_deterministic_busy() {
    let trace = small_trace();
    let upload = trace_bytes(&trace);
    // One shard with an in-flight budget of one: while any request or
    // open stream holds the slot, the next request must be shed with a
    // deterministic Busy — no timing window involved.
    let (addr, handle) = start_server(ServerConfig {
        workers: 1,
        shards: 1,
        shard_budget: 1,
        ..ServerConfig::default()
    });
    let mut holder = Client::connect(&addr).expect("holder connect");
    let fit = holder.fit(CYCLES, upload).expect("fit");

    // Hold the only admission slot: an open stream keeps it until its
    // SynthEnd, even while it sits parked awaiting an ack (streams hold
    // no worker — the budget is what bounds them now).
    let mut stream = holder
        .begin_synthesize(SEED, 1, ProfileSource::Fingerprint(fit.fingerprint))
        .expect("begin stream");
    assert!(stream.next_chunk().expect("first chunk").is_some());

    let mut contender = Client::connect(&addr).expect("contender connect");
    let err = contender
        .stats(ProfileSource::Fingerprint(fit.fingerprint))
        .expect_err("shard at budget, must shed");
    match &err {
        ServeError::Remote {
            code: ErrorCode::Busy,
            message,
        } => assert!(message.contains("at budget"), "{message}"),
        other => panic!("expected Busy, got {other}"),
    }
    // The shed was counted and left the contender's connection usable.
    let text = contender.metricsz().expect("metricsz after shed");
    assert!(text.contains("shard_shed_total 1"), "{text}");

    // Release the slot by draining the stream; the contender can then be
    // admitted.
    stream.ack().expect("release ack");
    while stream.next_chunk().expect("chunk").is_some() {
        stream.ack().expect("ack");
    }
    let text = loop {
        match contender.stats(ProfileSource::Fingerprint(fit.fingerprint)) {
            Ok(text) => break text,
            Err(ServeError::Remote {
                code: ErrorCode::Busy,
                ..
            }) => std::thread::yield_now(),
            Err(e) => panic!("served after release: {e}"),
        }
    };
    assert!(text.contains("fingerprint"));
    shut_down(&addr, handle);
}

#[test]
fn thirty_two_concurrent_clients_complete_without_deadlock() {
    let trace = small_trace();
    let upload = trace_bytes(&trace);
    let (addr, handle) = start_server(ServerConfig {
        workers: 4,
        queue_cap: 8,
        ..ServerConfig::default()
    });

    // Prime the cache so repeats can hit.
    let expected_fp = {
        let mut client = Client::connect(&addr).expect("prime connect");
        client
            .fit(CYCLES, upload.clone())
            .expect("prime fit")
            .fingerprint
    };

    let clients: Vec<_> = (0..32)
        .map(|i| {
            let addr = addr.clone();
            let upload = upload.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                // Retry on Busy: the queue cap guarantees some of 32
                // simultaneous requests are refused; a typed refusal is
                // retryable by design.
                let mut busy_seen = 0u32;
                let fit = loop {
                    match client.fit(CYCLES, upload.clone()) {
                        Ok(fit) => break fit,
                        Err(ServeError::Remote {
                            code: ErrorCode::Busy,
                            ..
                        }) => {
                            busy_seen += 1;
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("client {i}: {e}"),
                    }
                };
                assert_eq!(fit.fingerprint, expected_fp, "client {i}");
                (fit.cache_hit, busy_seen)
            })
        })
        .collect();

    let outcomes: Vec<(bool, u32)> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    // Every repeat of the primed fit must be a cache hit.
    assert!(
        outcomes.iter().all(|&(hit, _)| hit),
        "all post-prime fits hit the cache: {outcomes:?}"
    );

    // The hit-rate metric reflects the repeats.
    let mut client = Client::connect(&addr).expect("metrics connect");
    let text = client.metricsz().expect("metricsz");
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("cache_hits_total "))
        .expect("cache_hits_total present")
        .parse()
        .expect("numeric");
    let misses: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("cache_misses_total "))
        .expect("cache_misses_total present")
        .parse()
        .expect("numeric");
    assert_eq!(hits, 32, "{text}");
    assert_eq!(misses, 1, "{text}");
    shut_down(&addr, handle);
}

#[test]
fn version_mismatch_is_refused_with_typed_error() {
    use mocktails_serve::frame::{read_frame, write_frame};
    use mocktails_serve::{Request, Response, PROTOCOL_VERSION};
    use std::io::Write;

    // A version-3 `FitProfile`: a `clusters u32` sat between the cycle
    // window and the trace.
    let mut old_fit = vec![2u8];
    old_fit.extend_from_slice(&CYCLES.to_le_bytes());
    old_fit.extend_from_slice(&0u32.to_le_bytes());
    old_fit.extend_from_slice(&trace_bytes(&small_trace()));

    let (addr, handle) = start_server(ServerConfig::default());
    for version in [9999, PROTOCOL_VERSION - 1] {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        let mut framed = Vec::new();
        write_frame(&mut framed, &Request::Hello { version }.encode()).expect("frame hello");
        write_frame(&mut framed, &old_fit).expect("frame fit");
        stream.write_all(&framed).expect("send");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream, 1 << 20)
            .expect("read")
            .expect("a frame, not a drop");
        match Response::decode(&reply).expect("decodable") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
            other => panic!("version {version}: expected error frame, got {other:?}"),
        }
        // The refused connection closes without ever answering the
        // pipelined fit.
        if let Ok(Some(frame)) = read_frame(&mut stream, 1 << 20) {
            panic!(
                "version {version}: answered after refusal: {:?}",
                Response::decode(&frame)
            );
        }
    }
    shut_down(&addr, handle);
}

#[test]
fn cancel_mid_stream_keeps_the_connection_usable() {
    let trace = small_trace();
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let fit = client.fit(CYCLES, trace_bytes(&trace)).expect("fit");

    let mut stream = client
        .begin_synthesize(SEED, 8, ProfileSource::Fingerprint(fit.fingerprint))
        .expect("begin");
    assert!(stream.next_chunk().expect("first chunk").is_some());
    let (partial_total, _) = stream.cancel().expect("cancel drains cleanly");
    assert!(partial_total > 0, "cancelled stream reports what was sent");

    // Follow-up request on the same connection works.
    let synth = client
        .synthesize(SEED, 512, ProfileSource::Fingerprint(fit.fingerprint))
        .expect("full synthesis after cancel");
    assert!(synth.total_requests >= partial_total);
    shut_down(&addr, handle);
}

#[test]
fn decode_limits_apply_to_uploads() {
    let trace = small_trace();
    let upload = trace_bytes(&trace);
    let decode = DecodeOptions::new().with_limits(DecodeLimits {
        max_requests: 10,
        ..DecodeLimits::default()
    });
    let (addr, handle) = start_server(ServerConfig {
        decode,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let err = client
        .fit(CYCLES, upload)
        .expect_err("over the request limit");
    assert!(
        matches!(
            &err,
            ServeError::Remote {
                code: ErrorCode::LimitExceeded,
                ..
            }
        ),
        "{err}"
    );
    shut_down(&addr, handle);
}

#[test]
fn shutdown_with_idle_connections_completes_and_closes_their_sockets() {
    // Regression: the shutdown sweep used to hold the connection
    // registry's lock while shutting each socket down, which could wedge
    // against a connection thread trying to deregister itself (it needs
    // that same lock to make progress). The sweep now takes the sockets
    // out under the lock and shuts them down after releasing it, so
    // shutdown must complete — promptly — with idle clients attached.
    let (addr, handle) = start_server(ServerConfig::default());
    let mut idle: Vec<Client> = (0..3)
        .map(|i| Client::connect(&addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    shut_down(&addr, handle);

    // The sweep shut the idle sockets down; a request on one must fail
    // instead of hanging on a half-open connection.
    let upload = trace_bytes(&small_trace());
    let mut client = idle.pop().expect("has idle clients");
    assert!(
        client.fit(CYCLES, upload).is_err(),
        "a swept socket cannot serve a fit"
    );
}

#[test]
fn store_backed_server_survives_restart_and_compaction() {
    let trace = small_trace();
    let upload = trace_bytes(&trace);
    let (offline_profile, offline_synth) = offline_round_trip(&trace);
    let dir = std::env::temp_dir().join(format!("mocktails-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = || ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // First life: the fit is appended to the write-ahead log (and fsynced)
    // before the FitResult ack, so everything below survives the restart.
    let (addr, handle) = start_server(config());
    let mut client = Client::connect(&addr).expect("connect");
    let fit = client.fit(CYCLES, upload.clone()).expect("fit");
    assert!(!fit.cache_hit);
    assert_eq!(fit.profile_bytes, offline_profile);
    shut_down(&addr, handle);

    // Second life: the cache warms from the recovered store, so both the
    // fingerprint lookup and a repeat fit are answered without refitting.
    let (addr, handle) = start_server(config());
    let mut client = Client::connect(&addr).expect("reconnect");
    let synth = client
        .synthesize(SEED, 509, ProfileSource::Fingerprint(fit.fingerprint))
        .expect("synthesize after restart");
    assert_eq!(
        synth.trace_bytes, offline_synth,
        "restart changed the bytes"
    );
    let refit = client.fit(CYCLES, upload.clone()).expect("refit");
    assert!(refit.cache_hit, "warmed cache must answer the refit");
    assert_eq!(refit.profile_bytes, offline_profile);

    // Compaction checkpoints the store and truncates the log, and the
    // metric registry reflects the store's health.
    let compacted = client.compact().expect("compact");
    assert_eq!(compacted.profiles, 1);
    assert!(compacted.checkpoint_bytes > 0);
    assert!(compacted.wal_bytes_dropped > 0, "the log held one record");
    let metrics = client.metricsz().expect("metricsz");
    for line in ["store_profiles 1", "store_checkpoints_total 1"] {
        assert!(metrics.contains(line), "{line} missing from:\n{metrics}");
    }
    shut_down(&addr, handle);

    // Third life: a cold start from the checkpoint alone still serves the
    // profile, byte-identical to offline.
    let (addr, handle) = start_server(config());
    let mut client = Client::connect(&addr).expect("third connect");
    let synth = client
        .synthesize(SEED, 1 << 12, ProfileSource::Fingerprint(fit.fingerprint))
        .expect("synthesize from checkpoint");
    assert_eq!(
        synth.trace_bytes, offline_synth,
        "checkpoint changed the bytes"
    );
    shut_down(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compact_without_a_store_is_not_found() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    match client.compact().expect_err("no store configured") {
        ServeError::Remote { code, .. } => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("unexpected error: {other}"),
    }
    shut_down(&addr, handle);
}

/// The offline Option B reference: fit, then run the paper's coupled
/// loop by hand — inject each synthesized request into the DRAM model
/// and feed stalls back — collecting the paced trace plus the
/// backpressure totals the server must reproduce over the wire.
fn offline_coupled(trace: &Trace) -> (Vec<u8>, u64, u64) {
    use mocktails_core::InjectionFeedback;
    use mocktails_dram::{DramConfig, MemorySystem};
    let profile = Profile::fit_with(trace, &offline_config(), Parallelism::sequential());
    let mut synth = profile.synthesizer(SEED);
    let mut mem = MemorySystem::new(DramConfig::default());
    let mut paced = Vec::new();
    while let Some(request) = synth.next_request() {
        let stall = mem.inject(&request);
        if stall > 0 {
            synth.add_delay(stall);
        }
        paced.push(request);
    }
    let stall_cycles = synth.accumulated_delay();
    let simulated_cycles = paced.last().expect("non-empty").timestamp;
    let paced = Trace::from_sorted_requests(paced);
    (trace_bytes(&paced), simulated_cycles, stall_cycles)
}

#[test]
fn coupled_stream_matches_offline_option_b_at_any_worker_count() {
    let trace = small_trace();
    let upload = trace_bytes(&trace);
    let (paced_bytes, simulated_cycles, stall_cycles) = offline_coupled(&trace);
    // Guard against a vacuous comparison: the DRAM model must actually
    // push back on this trace, or pacing is indistinguishable from the
    // open-loop stream.
    assert!(stall_cycles > 0, "reference run produced no backpressure");

    for workers in [1usize, 2, 8] {
        let (addr, handle) = start_server(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&addr).expect("connect");
        let fit = client.fit(CYCLES, upload.clone()).expect("fit");

        let outcome = client
            .couple(SEED, 256, ProfileSource::Fingerprint(fit.fingerprint))
            .expect("coupled stream");
        assert_eq!(
            outcome.trace_bytes, paced_bytes,
            "coupled stream differs from offline run_synthesizer at {workers} workers"
        );
        assert_eq!(outcome.simulated_cycles, simulated_cycles);
        assert_eq!(outcome.stall_cycles, stall_cycles);
        assert_eq!(outcome.total_requests, trace.len() as u64);
        shut_down(&addr, handle);
    }
}

#[test]
fn coupled_chunks_report_monotonic_simulated_time_and_end_cleanly() {
    let trace = small_trace();
    let upload = trace_bytes(&trace);
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let fit = client.fit(CYCLES, upload).expect("fit");

    let mut stream = client
        .begin_couple(SEED, 128, ProfileSource::Fingerprint(fit.fingerprint))
        .expect("begin couple");
    assert_eq!(stream.declared_total(), trace.len() as u64);
    let mut last_simulated = 0u64;
    let mut last_stall = 0u64;
    let mut chunks = 0usize;
    let mut total = 0u64;
    while let Some(chunk) = stream.next_chunk().expect("next chunk") {
        assert!(chunk.count > 0, "empty chunk frame");
        assert!(
            chunk.simulated_cycles >= last_simulated,
            "simulated time went backwards: {} then {}",
            last_simulated,
            chunk.simulated_cycles
        );
        assert!(chunk.stall_cycles >= last_stall, "cumulative stalls shrank");
        last_simulated = chunk.simulated_cycles;
        last_stall = chunk.stall_cycles;
        total += u64::from(chunk.count);
        chunks += 1;
        stream.ack().expect("ack");
    }
    // The terminator is a clean SynthEnd carrying the full totals.
    let (total_requests, fingerprint) = stream.end().expect("clean end of stream");
    assert_eq!(total_requests, trace.len() as u64);
    assert_eq!(total, total_requests);
    assert!(chunks > 1, "expected multiple chunks at chunk_len=128");
    assert_ne!(fingerprint, 0, "fingerprint must be real");

    // The connection stays usable after the coupled stream.
    let text = client.metricsz().expect("metricsz after stream");
    assert!(text.contains("coupled_requests_total 1"), "{text}");
    assert!(text.contains("coupled_chunks_total"), "{text}");
    shut_down(&addr, handle);
}
