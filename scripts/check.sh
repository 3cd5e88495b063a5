#!/usr/bin/env bash
# The full local gate, identical to CI: formatting, hermetic release
# build, the test suite, and the workspace's own static analysis.
# Run from the repository root:  ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> cargo test (offline, sequential: MOCKTAILS_THREADS=1)"
MOCKTAILS_THREADS=1 cargo test -q --offline --workspace

echo "==> cargo test (offline, parallel: MOCKTAILS_THREADS=4)"
# Same suite at four workers: every artifact must stay bit-identical,
# so any scheduling-order dependence fails the gate here.
MOCKTAILS_THREADS=4 cargo test -q --offline --workspace

echo "==> serve loopback smoke (server vs offline + coupled stream, byte-compared)"
# A live fit + synthesize through `mocktails serve` must produce the
# same bytes as the offline CLI, and a coupled stream the same bytes at
# any chunk size, at one worker thread and at four.
MOCKTAILS_THREADS=1 ./scripts/serve-smoke.sh
MOCKTAILS_THREADS=4 ./scripts/serve-smoke.sh

echo "==> reactor soak smoke (200 concurrent streaming clients)"
# The serve crate's loopback soak at a CI-sized client count, at one
# worker thread and at four: byte-identical streams, zero frame errors,
# bounded tail. The ≥1k-client contract runs inside the test suite above.
MOCKTAILS_THREADS=1 ./scripts/soak-smoke.sh
MOCKTAILS_THREADS=4 ./scripts/soak-smoke.sh

echo "==> serve_scale bench (BENCH_3.json regression check)"
# Re-pins the serving-layer baseline and fails on structural regressions:
# all three worker counts present, nonzero connection rate, and a
# streaming tail that stays under ten seconds.
cargo bench -q --offline -p mocktails-bench --bench serve_scale >/dev/null
grep -q '"schema_version": 1' BENCH_3.json
for w in 1 2 8; do
  grep -q "\"workers\": $w" BENCH_3.json || {
    echo "BENCH_3.json missing workers=$w point" >&2
    exit 1
  }
done
awk -F': ' '/conns_per_sec/ { if ($2 + 0 <= 0) exit 1 }
            /stream_p99_micros/ { v = $2 + 0; if (v <= 0 || v > 10000000) exit 1 }' \
  BENCH_3.json || {
  echo "BENCH_3.json regression: zero connection rate or p99 over 10s" >&2
  exit 1
}
# Worker-scaling summary: the 8-worker streaming p50 relative to 1 worker
# must be present and positive (a wall-clock ratio, so only its existence
# and sign are gated — the magnitude is machine-dependent).
grep -q '"scaling_8_over_1"' BENCH_3.json || {
  echo "BENCH_3.json missing the scaling_8_over_1 summary" >&2
  exit 1
}
awk -F': ' '/scaling_8_over_1/ { if ($2 + 0 <= 0) exit 1 }' BENCH_3.json || {
  echo "BENCH_3.json regression: non-positive worker-scaling ratio" >&2
  exit 1
}

echo "==> store recovery smoke (kill -9 + torn log tail, byte-compared)"
# A store-backed server killed mid-flight must restart from its WAL,
# serve the same bytes as the offline pipeline, and survive a further
# restart from its checkpoint alone.
MOCKTAILS_THREADS=1 ./scripts/store-smoke.sh
MOCKTAILS_THREADS=4 ./scripts/store-smoke.sh

echo "==> fuzz smoke (seeded mutation campaigns)"
cargo test -q --offline -p mocktails-trace --test fuzz_trace
cargo test -q --offline -p mocktails-core --test fuzz_profile

echo "==> mocktails-lint --format json crates/"
cargo run -q --offline --release -p mocktails-lint -- --format json crates/

# The baseline diff runs as its own named step so an API break is
# immediately attributable, separate from ordinary lint violations.
echo "==> mocktails-lint --rules L010 crates/ (API baseline diff)"
cargo run -q --offline --release -p mocktails-lint -- --rules L010 crates/

# The lock-discipline rules as their own named step: a deadlock-shaped
# finding (ordering cycle, blocking under a guard, guard pinned across a
# loop, unwrapped lock result) should be attributable at a glance.
echo "==> mocktails-lint --rules L012,L013,L014,L015 crates/ (lock discipline)"
cargo run -q --offline --release -p mocktails-lint -- --rules L012,L013,L014,L015 crates/

# The interprocedural effect-summary rules as their own named step: a
# panic newly reachable from the synthesis/decode/reactor entries, a
# blocking call behind the sweep, a hot-loop allocation, or unbounded
# serve-path growth should be attributable at a glance.
echo "==> mocktails-lint --rules L016,L017,L018,L019 crates/ (effect summaries)"
cargo run -q --offline --release -p mocktails-lint -- --rules L016,L017,L018,L019 crates/

echo "All gates passed."
