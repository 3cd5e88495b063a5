//! Loopback soak: a thousand concurrent streaming clients against one
//! event-loop thread, every reassembled stream byte-identical to the
//! offline pipeline, zero frame errors, and a bounded tail latency.
//!
//! `MOCKTAILS_SOAK_CLIENTS` overrides the client count for a quicker
//! local run; the default exercises the ≥1k contract, which the
//! workspace test steps run at one worker thread and at four.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mocktails_core::{HierarchyConfig, LayerSpec, Profile};
use mocktails_pool::Parallelism;
use mocktails_serve::{
    retry_busy, Client, MonotonicClock, ProfileSource, RetryPolicy, Server, ServerConfig,
};
use mocktails_trace::codec::write_trace;
use mocktails_trace::Trace;
use mocktails_workloads::spec::generate_n;

const CYCLES: u64 = 50_000;
const RECORDS: usize = 300;
const PROFILES: usize = 8;
const BASE_SEED: u64 = 0x50a1;

fn soak_clients() -> usize {
    std::env::var("MOCKTAILS_SOAK_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000)
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

/// A retry policy generous enough for a thousand-way stampede: the point
/// of the soak is that shed clients *eventually* get through, not that
/// nothing is ever shed.
fn soak_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 64,
        jitter_seed: seed,
        ..RetryPolicy::default()
    }
}

#[test]
fn soak_thousand_streaming_clients_byte_identical_with_bounded_tail() {
    let clients = soak_clients();
    // Distinct workloads in one shared cache; each client streams
    // one of them and byte-compares against this offline reference.
    let mut uploads = Vec::new();
    let mut expected = Vec::new();
    let mut synth_counts = Vec::new();
    for i in 0..PROFILES {
        let trace = generate_n("gobmk", 100 + i as u64, RECORDS).expect("known benchmark");
        let profile = Profile::fit_with(&trace, &offline_config(), Parallelism::sequential());
        let synth = profile.synthesize(BASE_SEED + i as u64);
        uploads.push(trace_bytes(&trace));
        synth_counts.push(synth.len() as u64);
        expected.push(trace_bytes(&synth));
    }

    let config = ServerConfig::builder()
        .workers(8)
        .queue_cap(256)
        .cache_capacity(64)
        .max_conns(clients + 64)
        .deadline_micros(120_000_000)
        .build()
        .expect("valid soak config");
    let server =
        Server::bind("127.0.0.1:0", config, Arc::new(MonotonicClock::new())).expect("bind");
    let addr = server.local_addr().to_string();
    let metrics = server.metrics();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Prime all profiles so clients can stream by fingerprint.
    let fingerprints: Vec<u64> = {
        let mut primer = Client::connect(&addr).expect("primer connect");
        uploads
            .iter()
            .map(|upload| {
                primer
                    .fit(CYCLES, upload.clone())
                    .expect("prime fit")
                    .fingerprint
            })
            .collect()
    };

    let barrier = Arc::new(Barrier::new(clients));
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let profile_idx = i % PROFILES;
            let fingerprint = fingerprints[profile_idx];
            let expected = expected[profile_idx].clone();
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    // Everyone is connected before anyone streams: the
                    // server holds `clients` open connections at once.
                    barrier.wait();
                    let chunk_len = 64 + (i % 5) as u32 * 37;
                    let policy = soak_policy(i as u64);
                    let started = Instant::now();
                    let outcome = retry_busy(
                        &policy,
                        |micros| std::thread::sleep(Duration::from_micros(micros)),
                        || {
                            client.synthesize(
                                BASE_SEED + profile_idx as u64,
                                chunk_len,
                                ProfileSource::Fingerprint(fingerprint),
                            )
                        },
                    )
                    .unwrap_or_else(|e| panic!("client {i}: {e}"));
                    let elapsed = started.elapsed();
                    assert_eq!(
                        outcome.trace_bytes, expected,
                        "client {i}: stream diverged from offline synthesis"
                    );
                    elapsed
                })
                .expect("spawn soak client")
        })
        .collect();

    let mut latencies: Vec<Duration> = workers
        .into_iter()
        .map(|w| w.join().expect("soak client panicked"))
        .collect();
    latencies.sort();
    let p50 = latencies[latencies.len() / 2];
    let p99 = latencies[(latencies.len() * 99) / 100 - 1];
    println!("soak: {clients} clients, stream p50 {p50:?}, p99 {p99:?}");
    // "Flat" within reason: the tail must stay bounded even with every
    // client in flight at once — a wedged stream or lost wakeup shows up
    // here as minutes, not seconds.
    assert!(p99 < Duration::from_secs(60), "p99 {p99:?} out of bounds");

    // Zero frame errors end to end, and every stream really went through
    // the reactor's frame path.
    let text = {
        let mut client = Client::connect(&addr).expect("metricsz connect");
        client.metricsz().expect("metricsz")
    };
    assert!(
        metrics.frame_latency_micros.count() >= clients as u64,
        "frame latency histogram undercounted"
    );
    let streamed: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("streamed_requests_total "))
        .expect("streamed_requests_total rendered")
        .parse()
        .expect("counter parses");
    let expected_streamed: u64 = (0..clients).map(|i| synth_counts[i % PROFILES]).sum();
    assert_eq!(
        streamed, expected_streamed,
        "every admitted stream must deliver exactly its workload's records"
    );

    let mut closer = Client::connect(&addr).expect("closer connect");
    closer.shutdown().expect("shutdown");
    server_thread.join().expect("server exits cleanly");
}
