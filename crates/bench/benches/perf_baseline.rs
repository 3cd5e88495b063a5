//! The pinned perf baseline: measures the hot paths the ROADMAP's speed
//! campaign will optimize and writes `BENCH_1.json` at the repository
//! root, so every future optimization PR has a number to move.
//!
//! Three figures are pinned:
//!
//! * synthesis throughput (records/sec) — the paper's core loop, over
//!   the largest Table II trace;
//! * trace codec throughput (encode and decode MB/s);
//! * lint wall-clock of one full run (every rule) over the workspace.
//!
//! Hand-rolled harness like the other benches (no external bench crate,
//! so the workspace builds hermetically); medians over a fixed iteration
//! count keep single-run noise out of the pinned file.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mocktails_core::{HierarchyConfig, Profile};
use mocktails_lint::run;
use mocktails_trace::codec::{read_trace, write_trace};
use mocktails_trace::Trace;
use mocktails_workloads::catalog;

const TIMED_ITERS: usize = 5;

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

fn main() {
    // Synthesis records/sec over the largest Table II trace (the one the
    // determinism suite fits), so the sample sits far above timer noise.
    let largest = catalog::all()
        .iter()
        .map(|spec| spec.generate())
        .max_by_key(Trace::len)
        .expect("catalog is non-empty");
    let profile = Profile::fit(&largest, &HierarchyConfig::two_level_ts(500_000));
    let records = profile.synthesize(1).len();
    let synth_secs = median_secs(|| profile.synthesize(1));
    let records_per_sec = records as f64 / synth_secs;

    // Codec MB/s over a 20k-request trace's encoded form.
    let trace = catalog::by_name("FBC-Linear1")
        .expect("catalog trace")
        .generate()
        .truncate_to(20_000);
    let mut encoded = Vec::new();
    write_trace(&mut encoded, &trace).expect("encoding to memory");
    let mb = encoded.len() as f64 / (1024.0 * 1024.0);
    let encode_secs = median_secs(|| {
        let mut buf = Vec::with_capacity(encoded.len());
        write_trace(&mut buf, &trace).expect("encoding to memory");
        buf
    });
    let decode_secs = median_secs(|| read_trace(&mut encoded.as_slice()).expect("round trip"));

    // Lint wall-clock of the default full run.
    let crates_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let files_checked = run(&crates_root)
        .expect("workspace is readable")
        .files_checked;
    let lint_secs = median_secs(|| run(&crates_root).expect("workspace is readable"));

    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"perf_baseline\",\n  \
         \"timed_iters\": {TIMED_ITERS},\n  \"synthesis\": {{\n    \
         \"records\": {records},\n    \"seconds\": {synth_secs:.6},\n    \
         \"records_per_sec\": {records_per_sec:.0}\n  }},\n  \"codec\": {{\n    \
         \"encoded_bytes\": {},\n    \"encode_mb_per_sec\": {:.1},\n    \
         \"decode_mb_per_sec\": {:.1}\n  }},\n  \"lint\": {{\n    \
         \"files_checked\": {files_checked},\n    \"seconds\": {lint_secs:.4}\n  }}\n}}\n",
        encoded.len(),
        mb / encode_secs,
        mb / decode_secs,
    );
    print!("{json}");

    let out = crates_root.join("..").join("BENCH_1.json");
    std::fs::write(&out, &json).expect("write BENCH_1.json");
    println!("wrote {}", out.display());
}
