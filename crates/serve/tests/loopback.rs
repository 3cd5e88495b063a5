//! Loopback integration tests: a real server on an ephemeral port, real
//! clients, and byte-level comparison against the offline pipeline.

use std::sync::Arc;

use mocktails_core::{HierarchyConfig, LayerSpec, LeafModel, McC, Profile};
use mocktails_pool::Parallelism;
use mocktails_serve::frame::{read_frame, write_frame};
use mocktails_serve::{
    Client, ErrorCode, ManualClock, MonotonicClock, ProfileSource, Request as WireRequest,
    Response, ServeError, Server, ServerConfig,
};
use mocktails_trace::codec::{write_trace, RecordDecoder, RecordEncoder};
use mocktails_trace::{AddrRange, DecodeLimits, DecodeOptions, Fingerprinter, Request, Trace};
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
    let mut wakeups = || {
        metric(
            &client.metricsz().expect("metricsz"),
            "reactor_wakeups_total",
        )
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
fn upload_past_the_top_of_the_address_space_gets_an_error_frame() {
    // A request at the last address once panicked the fit job, which
    // then sent no reply at all.
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let trace = small_trace();
    let mut requests = trace.requests().to_vec();
    let last = requests.last().expect("non-empty trace").timestamp;
    requests.push(Request::read(last + 1, u64::MAX, 1));
    let err = client
        .fit(CYCLES, trace_bytes(&Trace::from_requests(requests)))
        .expect_err("range past u64::MAX");
    assert!(
        matches!(
            &err,
            ServeError::Remote {
                code: ErrorCode::Malformed,
                message,
            } if message.contains("address space")
        ),
        "{err}"
    );
    // The same connection still fits a valid trace.
    let fit = client.fit(CYCLES, trace_bytes(&trace)).expect("fit");
    assert_eq!(fit.profile_bytes, offline_round_trip(&trace).0);
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
fn connects_over_max_conns_get_a_deterministic_busy() {
    // One connection slot: while the holder is connected, every further
    // connect is answered with a typed Busy frame before it is closed —
    // no timing window involved, since the holder's handshake completed.
    let (addr, handle) = start_server(ServerConfig {
        max_conns: 1,
        ..ServerConfig::default()
    });
    let mut holder = Client::connect(&addr).expect("holder connect");

    let err = Client::connect(&addr).expect_err("over max_conns, must shed");
    match &err {
        ServeError::Remote {
            code: ErrorCode::Busy,
            message,
        } => assert!(message.contains("connection limit reached"), "{message}"),
        other => panic!("expected Busy, got {other}"),
    }
    // The shed was counted, and the holder's connection stayed usable.
    let text = holder.metricsz().expect("metricsz after shed");
    assert_eq!(metric(&text, "reactor_conns_rejected_total"), 1, "{text}");
    assert_eq!(metric(&text, "busy_rejections_total"), 1, "{text}");

    // Free the slot. The reactor may still be retiring the holder when
    // the next connect lands, so a Busy is retried until it is admitted.
    drop(holder);
    let mut fresh = loop {
        match Client::connect(&addr) {
            Ok(client) => break client,
            Err(ServeError::Remote {
                code: ErrorCode::Busy,
                ..
            }) => std::thread::sleep(std::time::Duration::from_millis(1)),
            Err(e) => panic!("connect after release: {e}"),
        }
    };
    // The fresh client holds the only slot, so it asks for the shutdown.
    fresh.shutdown().expect("shutdown handshake");
    handle.join().expect("server thread exits cleanly");
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
    assert_eq!(metric(&text, "cache_hits_total"), 32, "{text}");
    assert_eq!(metric(&text, "cache_misses_total"), 1, "{text}");
    shut_down(&addr, handle);
}

#[test]
fn version_mismatch_is_refused_with_typed_error() {
    use mocktails_serve::PROTOCOL_VERSION;
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
        write_frame(&mut framed, &WireRequest::Hello { version }.encode()).expect("frame hello");
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
    let source = || ProfileSource::Fingerprint(fit.fingerprint);

    for coupled in [false, true] {
        let (partial_total, _) = if coupled {
            let mut stream = client.begin_couple(SEED, 8, source()).expect("begin");
            assert!(stream.next_chunk().expect("first chunk").is_some());
            stream.cancel().expect("cancel drains cleanly")
        } else {
            let mut stream = client.begin_synthesize(SEED, 8, source()).expect("begin");
            assert!(stream.next_chunk().expect("first chunk").is_some());
            stream.cancel().expect("cancel drains cleanly")
        };
        assert!(
            partial_total > 0,
            "cancelled stream reports what was sent (coupled: {coupled})"
        );

        // Follow-up request of the same kind on the same connection works.
        let total_requests = if coupled {
            client.couple(SEED, 512, source()).map(|o| o.total_requests)
        } else {
            client
                .synthesize(SEED, 512, source())
                .map(|o| o.total_requests)
        }
        .expect("full stream after cancel");
        assert!(total_requests >= partial_total, "coupled: {coupled}");
    }
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

/// A profile is validated once, on its way into the cache, whatever the
/// decode options: under trusted decoding an invalid inline profile is
/// refused before it is cached, for a stream and for stats alike, while a
/// valid one streams the offline bytes.
#[test]
fn trusted_decoding_still_validates_profiles_before_they_are_cached() {
    let leaf = |count| {
        LeafModel::from_parts(
            0,
            0,
            AddrRange::new(0, 64),
            count,
            McC::Constant(1),
            McC::Constant(0),
            McC::Constant(0),
            McC::Constant(64),
        )
    };
    // The two request counts overflow the profile's u64 total.
    let invalid = Profile::from_parts(offline_config(), vec![leaf(u64::MAX), leaf(2)]);
    let mut invalid_bytes = Vec::new();
    invalid.write(&mut invalid_bytes).expect("profile encode");
    let (addr, handle) = start_server(ServerConfig {
        decode: DecodeOptions::trusted(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let source = || ProfileSource::Inline(invalid_bytes.clone());
    let refused = [
        client.synthesize(SEED, 512, source()).map(|_| ()),
        client.stats(source()).map(|_| ()),
    ];
    for err in refused {
        let err = err.expect_err("an invalid profile is refused");
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
    }
    let text = client.metricsz().expect("metricsz");
    assert_eq!(metric(&text, "cache_entries"), 0, "{text}");

    let (offline_profile, offline_synth) = offline_round_trip(&small_trace());
    let served = client
        .synthesize(SEED, 512, ProfileSource::Inline(offline_profile))
        .expect("a valid profile streams");
    assert_eq!(served.trace_bytes, offline_synth);
    let text = client.metricsz().expect("metricsz");
    assert_eq!(metric(&text, "cache_entries"), 1, "{text}");
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
    let (paced, stall_cycles) = offline_paced(trace);
    let simulated_cycles = paced.last().expect("non-empty").timestamp;
    let paced = Trace::from_sorted_requests(paced);
    (trace_bytes(&paced), simulated_cycles, stall_cycles)
}

/// The paced requests of the offline Option B run, plus its total stall
/// cycles.
fn offline_paced(trace: &Trace) -> (Vec<Request>, u64) {
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
    (paced, synth.accumulated_delay())
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

/// A protocol client speaking raw frames, so a test can send any number
/// of acks at any point without going through [`Client`]'s window.
struct RawConn {
    stream: std::net::TcpStream,
}

impl RawConn {
    fn connect(addr: &str) -> Self {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut conn = Self { stream };
        conn.send(&[WireRequest::Hello {
            version: mocktails_serve::PROTOCOL_VERSION,
        }]);
        assert!(matches!(conn.recv(), Response::HelloOk { .. }));
        conn
    }

    /// Writes every request's frame in one write.
    fn send(&mut self, requests: &[WireRequest]) {
        use std::io::Write;
        let mut bytes = Vec::new();
        for request in requests {
            write_frame(&mut bytes, &request.encode()).expect("frame");
        }
        self.stream.write_all(&bytes).expect("send");
    }

    fn recv(&mut self) -> Response {
        let payload = read_frame(&mut self.stream, 64 << 20)
            .expect("read frame")
            .expect("server closed the connection");
        Response::decode(&payload).expect("decodable response")
    }

    fn errors_total(&mut self) -> u64 {
        self.send(&[WireRequest::Metricsz]);
        match self.recv() {
            Response::MetricsText { text } => metric(&text, "errors_total"),
            other => panic!("expected metrics text, got {other:?}"),
        }
    }
}

/// One `name value` line of a `/metricsz` rendering.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
        .parse()
        .expect("numeric metric")
}

/// The record bytes, request count and order-sensitive fingerprint a
/// stream of `requests` must carry.
fn expected_stream(requests: &[Request]) -> (Vec<u8>, u64, u64) {
    let mut encoder = RecordEncoder::new();
    let mut fingerprinter = Fingerprinter::new();
    let mut records = Vec::new();
    for request in requests {
        encoder.encode(&mut records, request).expect("encode");
        fingerprinter.push(request);
    }
    (records, requests.len() as u64, fingerprinter.digest())
}

/// A stream-opening request: `CoupledSynthesize` when `coupled`.
fn open_request(coupled: bool, chunk_len: u32, source: ProfileSource) -> WireRequest {
    if coupled {
        WireRequest::CoupledSynthesize {
            seed: SEED,
            chunk_len,
            source,
        }
    } else {
        WireRequest::Synthesize {
            seed: SEED,
            chunk_len,
            source,
        }
    }
}

/// A chunk frame's request count and record bytes; `None` for anything
/// else.
fn chunk_records(response: Response) -> Option<(u32, Vec<u8>)> {
    match response {
        Response::SynthChunk { count, records } | Response::CoupledChunk { count, records, .. } => {
            Some((count, records))
        }
        _ => None,
    }
}

#[test]
fn streamed_bytes_do_not_depend_on_credits_sent_ahead() {
    // However many acks the client sends before reading — none, a few,
    // more than the window, or every ack the stream will consume — the
    // server encodes one chunk per credit and the bytes equal the offline
    // pipeline's, plain and coupled, at any chunk length.
    let trace = small_trace();
    let profile = Profile::fit_with(&trace, &offline_config(), Parallelism::sequential());
    let open_loop = expected_stream(profile.synthesize(SEED).requests());
    let paced = expected_stream(&offline_paced(&trace).0);
    let (addr, handle) = start_server(ServerConfig::default());
    let fingerprint = Client::connect(&addr)
        .expect("connect")
        .fit(CYCLES, trace_bytes(&trace))
        .expect("fit")
        .fingerprint;
    let mut conn = RawConn::connect(&addr);
    for coupled in [false, true] {
        let (want_records, want_total, want_fingerprint) =
            if coupled { &paced } else { &open_loop };
        for chunk_len in [1u32, 7, 512] {
            let owed = want_total.div_ceil(u64::from(chunk_len));
            for ahead in [0, 3, 15, owed] {
                let case = format!("coupled {coupled}, chunk_len {chunk_len}, ahead {ahead}");
                let source = ProfileSource::Fingerprint(fingerprint);
                conn.send(&[open_request(coupled, chunk_len, source)]);
                match conn.recv() {
                    Response::SynthStart { total_requests } => {
                        assert_eq!(total_requests, *want_total, "{case}")
                    }
                    other => panic!("{case}: expected synth-start, got {other:?}"),
                }
                let mut sent = ahead.min(owed);
                conn.send(&vec![WireRequest::Ack; sent as usize]);
                let mut records = Vec::new();
                let end = loop {
                    let response = conn.recv();
                    if let Response::SynthEnd {
                        total_requests,
                        fingerprint,
                    } = response
                    {
                        break (total_requests, fingerprint);
                    }
                    let (count, bytes) = chunk_records(response)
                        .unwrap_or_else(|| panic!("{case}: expected a chunk"));
                    assert!(count > 0 && count <= chunk_len, "{case}");
                    records.extend_from_slice(&bytes);
                    if sent < owed {
                        conn.send(&[WireRequest::Ack]);
                        sent += 1;
                    }
                };
                assert_eq!(sent, owed, "{case}");
                assert!(records == *want_records, "{case}: streamed bytes differ");
                assert_eq!(end, (*want_total, *want_fingerprint), "{case}");
                assert_eq!(conn.errors_total(), 0, "{case}");
            }
        }
    }
    shut_down(&addr, handle);
}

#[test]
fn cancel_with_banked_credits_reports_what_was_sent() {
    let trace = small_trace();
    let (addr, handle) = start_server(ServerConfig::default());
    let fingerprint = Client::connect(&addr)
        .expect("connect")
        .fit(CYCLES, trace_bytes(&trace))
        .expect("fit")
        .fingerprint;
    let mut conn = RawConn::connect(&addr);
    for coupled in [false, true] {
        let source = ProfileSource::Fingerprint(fingerprint);
        conn.send(&[open_request(coupled, 8, source)]);
        let Response::SynthStart { total_requests } = conn.recv() else {
            panic!("expected synth-start");
        };
        // Bank 20 credits of 250, take one chunk, then cancel.
        conn.send(&vec![WireRequest::Ack; 20]);
        let (first, mut records) = chunk_records(conn.recv()).expect("first chunk");
        conn.send(&[WireRequest::Cancel]);
        let mut received = u64::from(first);
        let end = loop {
            match conn.recv() {
                Response::SynthEnd {
                    total_requests,
                    fingerprint,
                } => break (total_requests, fingerprint),
                other => {
                    let (count, bytes) = chunk_records(other).expect("a chunk");
                    received += u64::from(count);
                    records.extend_from_slice(&bytes);
                }
            }
        };
        assert!(received < total_requests, "cancel ended the stream early");
        let mut decoder = RecordDecoder::new();
        let mut replay = Fingerprinter::new();
        let mut cursor = records.as_slice();
        while !cursor.is_empty() {
            replay.push(&decoder.decode(&mut cursor).expect("record"));
        }
        assert_eq!(end, (received, replay.digest()), "coupled {coupled}");
        assert_eq!(conn.errors_total(), 0, "coupled {coupled}");
    }
    // The connection serves a full stream after the cancels.
    let mut client = Client::connect(&addr).expect("connect");
    let synth = client
        .synthesize(SEED, 512, ProfileSource::Fingerprint(fingerprint))
        .expect("synthesize");
    assert_eq!(synth.total_requests, trace.len() as u64);
    shut_down(&addr, handle);
}

/// Requests in [`huge_stream_profile`]'s one leaf.
const HUGE_REQUESTS: u64 = 1_000_000;

/// Chunk length the write-queue tests stream [`huge_stream_profile`] at.
const HUGE_CHUNK_LEN: u32 = 512;

/// One leaf of a million requests whose timestamps step by 2^40 cycles:
/// every record carries a 6-byte time delta, so a 512-request chunk
/// frame is at least 3 KiB and the stream runs to ~13 MB.
fn huge_stream_profile() -> Vec<u8> {
    let range = AddrRange::new(0, 1 << 40);
    let leaf = LeafModel::try_from_parts(
        0,
        0,
        range,
        HUGE_REQUESTS,
        McC::Constant(1 << 40),
        McC::Constant(0x1234_5678),
        McC::Constant(0),
        McC::Constant(64),
    )
    .expect("valid leaf");
    let profile = Profile::from_parts(offline_config(), vec![leaf]);
    profile.validate().expect("valid profile");
    let mut profile_bytes = Vec::new();
    profile.write(&mut profile_bytes).expect("profile encode");
    profile_bytes
}

/// A client that opens a stream of [`huge_stream_profile`], banks far
/// more credits than the stream has chunks, and then never reads.
fn connect_hog(addr: &str) -> RawConn {
    let mut hog = RawConn::connect(addr);
    hog.send(&[WireRequest::Synthesize {
        seed: SEED,
        chunk_len: HUGE_CHUNK_LEN,
        source: ProfileSource::Inline(huge_stream_profile()),
    }]);
    hog.send(&vec![WireRequest::Ack; 10_000]);
    hog
}

#[test]
fn banked_credits_do_not_grow_the_write_queue_past_the_watermark() {
    let (addr, handle) = start_server(ServerConfig::default());
    let hog = connect_hog(&addr);

    // The server stops encoding once the hog's queued output passes the
    // 1 MiB high watermark: what is queued then is under the watermark,
    // plus one stream job of at most 16 chunks, plus the stream's
    // `SynthStart`.
    const WRITE_HIGH_WATERMARK: u64 = 1 << 20;
    const STREAM_JOB_CHUNKS: u64 = 16;
    let min_chunk_frame = u64::from(HUGE_CHUNK_LEN) * 6;
    let bound = WRITE_HIGH_WATERMARK / min_chunk_frame + STREAM_JOB_CHUNKS + 2;

    let mut observer = Client::connect(&addr).expect("observer connect");
    let mut peak_frames = 0;
    let mut streamed = 0;
    let mut still = 0;
    let started = std::time::Instant::now();
    // Watch until the stream has stood still for 300 ms or has finished.
    while still < 30 && streamed < HUGE_REQUESTS && started.elapsed().as_secs() < 120 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let text = observer.metricsz().expect("metricsz");
        peak_frames = peak_frames.max(metric(&text, "reactor_write_queue_frames"));
        let now = metric(&text, "streamed_requests_total");
        still = if now == streamed { still + 1 } else { 0 };
        streamed = now;
    }
    assert!(
        peak_frames <= bound,
        "{peak_frames} frames queued (bound {bound}) after {streamed} requests streamed"
    );
    assert!(
        streamed < HUGE_REQUESTS,
        "a client that never reads got the whole stream"
    );
    drop(hog);
    shut_down(&addr, handle);
}

#[test]
fn shutdown_drops_a_client_that_stopped_reading() {
    // A drain waits for every connection to flush, but a client that has
    // stopped reading never lets its write queue empty: once draining,
    // the server drops a connection whose oldest queued frame is older
    // than the request deadline, so `run` still returns.
    let config = ServerConfig {
        deadline_micros: 300_000,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config, Arc::new(MonotonicClock::new()))
        .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let hog = connect_hog(&addr);

    // Wait until the hog's stream stands still behind its unread output.
    let mut observer = Client::connect(&addr).expect("observer connect");
    let (mut streamed, mut still) = (0, 0);
    let started = std::time::Instant::now();
    while still < 10 && started.elapsed().as_secs() < 60 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let text = observer.metricsz().expect("metricsz");
        let now = metric(&text, "streamed_requests_total");
        still = if now == streamed && now > 0 {
            still + 1
        } else {
            0
        };
        streamed = now;
    }
    assert!(
        streamed > 0 && streamed < HUGE_REQUESTS,
        "the hog's stream should be parked part-way, at {streamed} requests"
    );

    observer.shutdown().expect("shutdown handshake");
    // Poll rather than join, so a drain that never ends fails the test
    // instead of hanging it.
    let asked = std::time::Instant::now();
    while !handle.is_finished() && asked.elapsed().as_secs() < 10 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        handle.is_finished(),
        "the server still had not drained {:?} after shutdown",
        asked.elapsed()
    );
    handle.join().expect("server thread exits cleanly");
    drop(hog);
}

#[test]
fn cache_capacity_holds_that_many_profiles_whatever_their_fingerprints() {
    // Eight distinct fits into a cache of eight: every profile stays
    // streamable by fingerprint, and only a ninth fit evicts, taking the
    // least recently used.
    let traces: Vec<Trace> = (0..9u64)
        .map(|seed| generate_n("gobmk", seed, 2_000).expect("known benchmark name"))
        .collect();
    let config = ServerConfig {
        cache_capacity: 8,
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(config);
    let mut client = Client::connect(&addr).expect("connect");
    let fingerprints: Vec<u64> = traces[..8]
        .iter()
        .map(|trace| {
            client
                .fit(CYCLES, trace_bytes(trace))
                .expect("fit")
                .fingerprint
        })
        .collect();
    // Not vacuous: a cache split eight ways by `fingerprint % 8`, one
    // slot each, could not hold all of these at once.
    let mut residues: Vec<u64> = fingerprints.iter().map(|fp| fp % 8).collect();
    residues.sort_unstable();
    residues.dedup();
    assert!(residues.len() < 8, "fingerprints {fingerprints:x?}");

    let stream =
        |client: &mut Client, fp: u64| client.synthesize(SEED, 512, ProfileSource::Fingerprint(fp));
    for (fp, trace) in fingerprints.iter().zip(&traces) {
        let synth = stream(&mut client, *fp).unwrap_or_else(|e| panic!("{fp:#018x}: {e}"));
        assert_eq!(synth.total_requests, trace.len() as u64);
    }
    let text = client.metricsz().expect("metricsz");
    assert_eq!(metric(&text, "cache_entries"), 8, "{text}");
    assert_eq!(metric(&text, "cache_evictions_total"), 0, "{text}");

    let ninth = client
        .fit(CYCLES, trace_bytes(&traces[8]))
        .expect("ninth fit")
        .fingerprint;
    match stream(&mut client, fingerprints[0]) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("the least recently used profile should be gone: {other:?}"),
    }
    for &fp in fingerprints[1..].iter().chain([&ninth]) {
        stream(&mut client, fp).unwrap_or_else(|e| panic!("{fp:#018x}: {e}"));
    }
    let text = client.metricsz().expect("metricsz");
    assert_eq!(metric(&text, "cache_entries"), 8, "{text}");
    assert_eq!(metric(&text, "cache_evictions_total"), 1, "{text}");
    shut_down(&addr, handle);
}
