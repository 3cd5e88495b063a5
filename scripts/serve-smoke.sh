#!/usr/bin/env bash
# Loopback serving smoke: a live `mocktails serve` round-trip must be
# byte-identical to the offline pipeline. Fits and synthesizes one
# catalog workload twice — once through the CLI's offline commands, once
# through a server on an ephemeral loopback port — and byte-compares the
# artifacts. A coupled (Fig. 1 Option B) stream — every chunk paced
# through the server's DRAM model — must then reassemble to the same
# bytes at three chunk sizes, and a plain stream at chunk length 1 (the
# most chunks, so the most acks in flight in the client's credit window)
# must match the 512-request stream. Two concurrent streams of the cached
# profile by fingerprint, and a third after them, must each match the
# offline synthesis: the first stream of a profile compiles its synthesis
# plan, and every later one shares it. Honours MOCKTAILS_THREADS like every other
# gate, so running it at 1 and 4 threads proves the serving layer
# preserves the workspace's determinism invariant.
# Run from the repository root:  ./scripts/serve-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/mocktails
if [[ ! -x "$BIN" ]]; then
  cargo build -q --release --offline -p mocktails-cli
fi

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [[ -n "$SERVER_PID" ]]; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

WORKLOAD=HEVC1
CYCLES=200000
SEED=7

echo "--- offline reference pipeline ($WORKLOAD)"
"$BIN" trace "$WORKLOAD" -o "$WORK/ref.mtrace"
"$BIN" profile "$WORK/ref.mtrace" -o "$WORK/ref.mprofile" --cycles "$CYCLES"
"$BIN" synth "$WORK/ref.mprofile" -o "$WORK/ref-synth.mtrace" --seed "$SEED"

echo "--- live server on an ephemeral loopback port"
"$BIN" serve --addr 127.0.0.1:0 --workers 2 --port-file "$WORK/port" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$WORK/port" ]] && break
  sleep 0.1
done
[[ -s "$WORK/port" ]] || { echo "server never published its port" >&2; exit 1; }
ADDR="$(cat "$WORK/port")"

"$BIN" client fit "$WORK/ref.mtrace" --addr "$ADDR" \
  -o "$WORK/srv.mprofile" --cycles "$CYCLES" | tee "$WORK/fit.txt"
FINGERPRINT="$(sed -n 's/.*fingerprint \(0x[0-9a-f]*\).*/\1/p' "$WORK/fit.txt")"
[[ -n "$FINGERPRINT" ]] || { echo "client fit printed no fingerprint" >&2; exit 1; }
synth_by_fingerprint() {
  "$BIN" client synth --fingerprint "$FINGERPRINT" --addr "$ADDR" \
    -o "$WORK/$1.mtrace" --seed "$SEED"
}
synth_by_fingerprint shared-a &
SHARED_A=$!
synth_by_fingerprint shared-b &
SHARED_B=$!
wait "$SHARED_A"
wait "$SHARED_B"
synth_by_fingerprint shared-c
"$BIN" client synth "$WORK/srv.mprofile" --addr "$ADDR" \
  -o "$WORK/srv-synth.mtrace" --seed "$SEED"
for chunk in 512 1; do
  "$BIN" client synth "$WORK/srv.mprofile" --addr "$ADDR" \
    -o "$WORK/synth-$chunk.mtrace" --seed "$SEED" --chunk "$chunk"
done
for chunk in 512 64 1; do
  "$BIN" client couple "$WORK/srv.mprofile" --addr "$ADDR" \
    -o "$WORK/coupled-$chunk.mtrace" --seed "$SEED" --chunk "$chunk"
done
"$BIN" client metricsz --addr "$ADDR" >"$WORK/metrics.txt"
"$BIN" client shutdown --addr "$ADDR"
wait "$SERVER_PID"
SERVER_PID=""

echo "--- byte comparison (server vs offline)"
cmp "$WORK/ref.mprofile" "$WORK/srv.mprofile"
cmp "$WORK/ref-synth.mtrace" "$WORK/srv-synth.mtrace"
for stream in shared-a shared-b shared-c; do
  cmp "$WORK/ref-synth.mtrace" "$WORK/$stream.mtrace"
done
cmp "$WORK/synth-512.mtrace" "$WORK/synth-1.mtrace"
cmp "$WORK/ref-synth.mtrace" "$WORK/synth-512.mtrace"
cmp "$WORK/coupled-512.mtrace" "$WORK/coupled-64.mtrace"
cmp "$WORK/coupled-512.mtrace" "$WORK/coupled-1.mtrace"
grep -q '^requests_total ' "$WORK/metrics.txt" || {
  echo "metricsz output missing requests_total" >&2
  exit 1
}
grep -q '^coupled_requests_total 3' "$WORK/metrics.txt" || {
  echo "metricsz missing coupled_requests_total=3" >&2
  exit 1
}
echo "serve loopback smoke passed: profile, synthesized, shared-plan and coupled traces byte-identical"
