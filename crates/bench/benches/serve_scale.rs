//! The pinned serving-layer baseline: measures the event-driven reactor's
//! connection setup rate and streaming latency tail at several worker
//! counts, and writes `BENCH_3.json` at the repository root alongside
//! `BENCH_1.json` (compute) and `BENCH_2.json` (store).
//!
//! Two figures are pinned per worker count (1, 2, 8):
//!
//! * connections/sec — sequential connect+handshake+drop cycles, the
//!   reactor's accept/teardown path with no compute involved;
//! * streaming p50/p99 — concurrent clients synthesizing by fingerprint,
//!   every reassembled stream byte-compared against the offline pipeline.
//!
//! After writing the file the bench fails on structural regressions: a
//! missing worker count, a serial connection rate at or below two per
//! reactor park tick, a streaming p99 outside (0, 10 s], or a
//! non-positive scaling ratio.
//!
//! Hand-rolled harness like the other benches (no external bench crate,
//! so the workspace builds hermetically); medians over a fixed iteration
//! count keep single-run noise out of the pinned file.

use std::hint::black_box;
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

const TIMED_ITERS: usize = 5;
const CYCLES: u64 = 50_000;
const RECORDS: usize = 300;
const SEED: u64 = 0xbe7c;
const CONNS_PER_ITER: usize = 64;
const STREAM_CLIENTS: usize = 16;
const STREAMS_PER_CLIENT: usize = 3;
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
/// The reactor's idle park tick (`PARK_MICROS` in `serve/src/reactor.rs`).
/// A connect+handshake that waited out a tick would cap the serial rate
/// near `1e6 / PARK_MICROS` per second; the gate asks for twice that.
const PARK_MICROS: f64 = 1_000.0;

/// Median wall-clock seconds of `f` over [`TIMED_ITERS`] runs, after one
/// warm-up run.
fn median_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..TIMED_ITERS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
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

struct ScalePoint {
    workers: usize,
    conns_per_sec: f64,
    stream_p50: Duration,
    stream_p99: Duration,
}

fn measure_workers(workers: usize, upload: &[u8], expected: &[u8]) -> ScalePoint {
    let config = ServerConfig::builder()
        .workers(workers)
        .queue_cap(256)
        .cache_capacity(64)
        .shards(8)
        .shard_budget(512)
        .max_conns(1024)
        .deadline_micros(120_000_000)
        .build()
        .expect("valid bench config");
    let server =
        Server::bind("127.0.0.1:0", config, Arc::new(MonotonicClock::new())).expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let fingerprint = {
        let mut primer = Client::connect(&addr).expect("primer connect");
        primer
            .fit(CYCLES, upload.to_vec())
            .expect("prime fit")
            .fingerprint
    };

    // Connection setup rate: connect + handshake + drop, no compute.
    let conn_secs = median_secs(|| {
        for _ in 0..CONNS_PER_ITER {
            drop(Client::connect(&addr).expect("bench connect"));
        }
    });
    let conns_per_sec = CONNS_PER_ITER as f64 / conn_secs;

    // Streaming tail: concurrent clients, one warm-up stream each, then
    // timed streams, every byte checked against the offline reference.
    let barrier = Arc::new(Barrier::new(STREAM_CLIENTS));
    let clients: Vec<_> = (0..STREAM_CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let expected = expected.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("stream connect");
                let policy = RetryPolicy {
                    max_retries: 64,
                    jitter_seed: i as u64,
                    ..RetryPolicy::default()
                };
                let chunk_len = 64 + (i % 5) as u32 * 37;
                barrier.wait();
                (0..STREAMS_PER_CLIENT)
                    .map(|_| {
                        let started = Instant::now();
                        let outcome = retry_busy(
                            &policy,
                            |micros| std::thread::sleep(Duration::from_micros(micros)),
                            || {
                                client.synthesize(
                                    SEED,
                                    chunk_len,
                                    ProfileSource::Fingerprint(fingerprint),
                                )
                            },
                        )
                        .unwrap_or_else(|e| panic!("stream client {i}: {e}"));
                        let elapsed = started.elapsed();
                        assert_eq!(
                            outcome.trace_bytes, expected,
                            "client {i}: stream diverged from offline synthesis"
                        );
                        elapsed
                    })
                    .collect::<Vec<Duration>>()
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("stream client panicked"))
        .collect();
    latencies.sort();
    let stream_p50 = latencies[latencies.len() / 2];
    let stream_p99 = latencies[(latencies.len() * 99) / 100];

    let mut closer = Client::connect(&addr).expect("closer connect");
    closer.shutdown().expect("shutdown");
    server_thread.join().expect("server exits cleanly");

    ScalePoint {
        workers,
        conns_per_sec,
        stream_p50,
        stream_p99,
    }
}

fn main() {
    let trace = generate_n("gobmk", 100, RECORDS).expect("known benchmark");
    let profile = Profile::fit_with(&trace, &offline_config(), Parallelism::sequential());
    let upload = trace_bytes(&trace);
    let expected = trace_bytes(&profile.synthesize(SEED));

    let points: Vec<ScalePoint> = WORKER_COUNTS
        .iter()
        .map(|&w| measure_workers(w, &upload, &expected))
        .collect();

    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"workers\": {},\n      \
                 \"conns_per_sec\": {:.1},\n      \
                 \"stream_p50_micros\": {},\n      \
                 \"stream_p99_micros\": {}\n    }}",
                p.workers,
                p.conns_per_sec,
                p.stream_p50.as_micros(),
                p.stream_p99.as_micros(),
            )
        })
        .collect();
    // Worker-scaling summary: streaming p50 at 1 worker over p50 at 8
    // workers. Above 1.0 means adding workers helps; the structural gate
    // only requires the field to exist and be positive, because the
    // magnitude is machine- and load-dependent.
    let p50_of = |workers: usize| {
        points
            .iter()
            .find(|p| p.workers == workers)
            .map(|p| p.stream_p50.as_secs_f64())
            .expect("measured worker count")
    };
    let scaling_8_over_1 = p50_of(1) / p50_of(8).max(f64::EPSILON);
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"serve_scale\",\n  \
         \"timed_iters\": {TIMED_ITERS},\n  \
         \"conns_per_iter\": {CONNS_PER_ITER},\n  \
         \"stream_clients\": {STREAM_CLIENTS},\n  \
         \"streams_per_client\": {STREAMS_PER_CLIENT},\n  \
         \"scaling_8_over_1\": {scaling_8_over_1:.3},\n  \"points\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    print!("{json}");

    let crates_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = crates_root.join("..").join("BENCH_3.json");
    std::fs::write(&out, &json).expect("write BENCH_3.json");
    println!("wrote {}", out.display());

    for w in WORKER_COUNTS {
        assert!(
            points.iter().any(|p| p.workers == w),
            "BENCH_3.json is missing the workers={w} point"
        );
    }
    for p in &points {
        assert!(
            p.conns_per_sec > 2.0 * 1e6 / PARK_MICROS,
            "workers={}: {:.1} serial conns/sec: connect+handshake is waiting out a park tick",
            p.workers,
            p.conns_per_sec
        );
        assert!(
            (1..=10_000_000).contains(&p.stream_p99.as_micros()),
            "workers={}: streaming p99 {:?} is outside (0, 10 s]",
            p.workers,
            p.stream_p99
        );
    }
    assert!(
        scaling_8_over_1 > 0.0,
        "non-positive worker-scaling ratio {scaling_8_over_1}"
    );
}
