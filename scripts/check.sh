#!/usr/bin/env bash
# The full gate: formatting, hermetic release build, the test suite,
# the smokes, the golden outputs, and the workspace's own static
# analysis. CI's `gate` job runs exactly this script, so a gate is
# added or changed here only.
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

echo "==> every paper experiment, quick mode, at 1 and 4 threads (byte-compared)"
# Each figure driver must run to completion and print the same report at
# any worker count.
out=$(mktemp -d)
MOCKTAILS_THREADS=1 ./target/release/mocktails experiment all --quick >"$out/t1.txt"
MOCKTAILS_THREADS=4 ./target/release/mocktails experiment all --quick >"$out/t4.txt"
cmp "$out/t1.txt" "$out/t4.txt"
rm -rf "$out"

echo "==> serve loopback smoke (server vs offline + coupled stream, byte-compared)"
# A live fit + synthesize through `mocktails serve` must produce the
# same bytes as the offline CLI, and a coupled stream the same bytes at
# any chunk size, at one worker thread and at four.
MOCKTAILS_THREADS=1 ./scripts/serve-smoke.sh
MOCKTAILS_THREADS=4 ./scripts/serve-smoke.sh

echo "==> serve_scale bench (structural regression check)"
# The bench fails on structural regressions (missing worker counts, a
# serial connection rate at or below two per 1 ms reactor park tick, a
# streaming tail over ten seconds, a non-positive scaling ratio). It also
# rewrites BENCH_3.json with this machine's figures, which are too noisy
# to pin, so the committed file is saved first and put back when this
# script exits, pass or fail.
bench3=$(mktemp)
cp BENCH_3.json "$bench3"
trap 'cp "$bench3" BENCH_3.json && rm -f "$bench3"' EXIT
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
cargo test -q --offline -p mocktails-store --test fuzz_store

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
