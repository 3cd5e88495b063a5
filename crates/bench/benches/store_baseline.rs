//! The pinned store baseline: measures the durable-store hot paths and
//! writes `BENCH_2.json` at the repository root, alongside the existing
//! `BENCH_1.json` perf numbers.
//!
//! Two figures are pinned:
//!
//! * WAL append throughput (MB/s) — the fsync-bound cost every
//!   `FitProfile` pays before its ack;
//! * cold-start replay time — opening a store whose log holds the full
//!   record set, which bounds how long a restarted server stays cold.
//!
//! Hand-rolled harness like the other benches (no external bench crate,
//! so the workspace builds hermetically); medians over a fixed iteration
//! count keep single-run noise out of the pinned file.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mocktails_core::{HierarchyConfig, Profile, ProfileRecord};
use mocktails_store::ProfileStore;
use mocktails_workloads::catalog;

const TIMED_ITERS: usize = 5;
const PROFILES: usize = 8;

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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mocktails-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn main() {
    // Distinct profiles (truncation length varies) so appends and replay
    // exercise real record diversity rather than the dedup path.
    let trace = catalog::by_name("FBC-Linear1")
        .expect("catalog trace")
        .generate();
    let config = HierarchyConfig::two_level_ts(500_000);
    let profiles: Vec<Arc<Profile>> = (0..PROFILES)
        .map(|i| {
            let cut = trace.len() - i * 512;
            Arc::new(Profile::fit(&trace.truncate_to(cut), &config))
        })
        .collect();
    let record_bytes: usize = profiles
        .iter()
        .map(|p| ProfileRecord::from_profile(p, None).encode().len())
        .sum();
    let mb = record_bytes as f64 / (1024.0 * 1024.0);

    // WAL append MB/s: a fresh store absorbing every record, fsync per
    // append — the exact durability-before-ack path the server runs.
    let append_dir = temp_dir("append");
    let append_secs = median_secs(|| {
        let _ = std::fs::remove_dir_all(&append_dir);
        std::fs::create_dir_all(&append_dir).expect("recreate bench dir");
        let mut store = ProfileStore::open(&append_dir).expect("open fresh store");
        for (i, profile) in profiles.iter().enumerate() {
            store
                .put_profile(profile, Some(i as u64))
                .expect("durable append");
        }
        store
    });
    let append_mb_per_sec = mb / append_secs;

    // Cold-start replay: open a store whose log holds all the records.
    let replay_dir = temp_dir("replay");
    {
        let mut store = ProfileStore::open(&replay_dir).expect("open for seeding");
        for (i, profile) in profiles.iter().enumerate() {
            store
                .put_profile(profile, Some(i as u64))
                .expect("seed append");
        }
    }
    let replay_secs = median_secs(|| {
        let store = ProfileStore::open(&replay_dir).expect("replay open");
        assert_eq!(store.len(), PROFILES, "replay must load every record");
        store
    });

    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"store_baseline\",\n  \
         \"timed_iters\": {TIMED_ITERS},\n  \"wal_append\": {{\n    \
         \"profiles\": {PROFILES},\n    \"record_bytes\": {record_bytes},\n    \
         \"seconds\": {append_secs:.6},\n    \
         \"mb_per_sec\": {append_mb_per_sec:.1}\n  }},\n  \"cold_start\": {{\n    \
         \"profiles\": {PROFILES},\n    \"replay_seconds\": {replay_secs:.6}\n  }}\n}}\n",
    );
    print!("{json}");

    let crates_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = crates_root.join("..").join("BENCH_2.json");
    std::fs::write(&out, &json).expect("write BENCH_2.json");
    println!("wrote {}", out.display());

    let _ = std::fs::remove_dir_all(&append_dir);
    let _ = std::fs::remove_dir_all(&replay_dir);
}
