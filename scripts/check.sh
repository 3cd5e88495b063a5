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
# Re-pins the serving-layer baseline; the bench itself fails on
# structural regressions (missing worker counts, a serial connection
# rate at or below two per 1 ms reactor park tick, a streaming tail
# over ten seconds, a non-positive scaling ratio).
cargo bench -q --offline -p mocktails-bench --bench serve_scale >/dev/null

echo "==> store recovery smoke (kill -9 + torn log tail, byte-compared)"
# A store-backed server killed mid-flight must restart from its WAL,
# serve the same bytes as the offline pipeline, and survive a further
# restart from its checkpoint alone.
MOCKTAILS_THREADS=1 ./scripts/store-smoke.sh
MOCKTAILS_THREADS=4 ./scripts/store-smoke.sh

echo "==> fuzz smoke (seeded mutation campaigns)"
cargo test -q --offline -p mocktails-trace --test fuzz_trace
cargo test -q --offline -p mocktails-core --test fuzz_profile

echo "==> e2e golden outputs (all four workloads at seed 0)"
# Each run fails on a non-zero exit when an output no longer matches its
# pinned FNV fingerprint, so a speed or simplification change proves it
# left the bytes alone: profiles, synthetic streams, DRAM and cache
# statistics, served fits and streamed chunks.
for workload in model validate serve-fit serve-stream; do
    cargo run --release --offline --quiet --manifest-path e2e-bench/Cargo.toml \
        --bin e2e -- --workload "$workload" --seed 0 --seconds 1 >/dev/null
done

echo "==> e2e bench smoke (its own test suite)"
cargo test -q --offline --manifest-path e2e-bench/Cargo.toml

echo "==> cargo clippy --all-targets (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# One run over every rule; each finding in the report names its rule
# (an API-baseline break is an L010 finding, and so on).
echo "==> mocktails-lint --format json crates/"
cargo run -q --offline --release -p mocktails-lint -- --format json crates/

echo "All gates passed."
