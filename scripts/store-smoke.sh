#!/usr/bin/env bash
# Store recovery smoke: a server killed with SIGKILL mid-flight must
# restart from its crash-recoverable store and serve the same bytes the
# offline pipeline produces. The sequence:
#
#   0. a server whose store cannot append (a file-size limit on the server
#      process alone) must answer a fit with its store error, and answer
#      the same upload again with the error too: a fit that never reached
#      the log must not be acknowledged later as a cache hit,
#   1. fit a profile through a store-backed server (durable before ack),
#   2. kill -9 the server — no drain, no checkpoint,
#   3. corrupt the write-ahead log's tail with garbage bytes, modelling a
#      torn final append,
#   4. restart on the same store directory, synthesize by fingerprint
#      from the warmed cache, and byte-compare against the offline CLI,
#   5. compact, restart once more, and prove the checkpoint alone still
#      serves the same bytes.
#
# Honours MOCKTAILS_THREADS like every other gate.
# Run from the repository root:  ./scripts/store-smoke.sh
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
STORE="$WORK/store"

# start_server [STORE_DIR [FILE_SIZE_LIMIT_BLOCKS]]: the limit, when
# given, applies to the server process only, with SIGXFSZ ignored so an
# oversized write fails with EFBIG instead of killing the server. It
# applies to every file the server writes, so a limited server logs to a
# fresh file of its own rather than to a redirected stdout that may
# already be past the limit.
start_server() {
  local store="${1:-$STORE}" limit="${2:-}"
  rm -f "$WORK/port"
  if [[ -z "$limit" ]]; then
    "$BIN" serve --addr 127.0.0.1:0 --workers 2 --store "$store" \
      --port-file "$WORK/port" &
  else
    (
      trap '' XFSZ
      ulimit -f "$limit"
      exec "$BIN" serve --addr 127.0.0.1:0 --workers 2 --store "$store" \
        --port-file "$WORK/port" >"$WORK/limited-server.log" 2>&1
    ) &
  fi
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$WORK/port" ]] && break
    sleep 0.1
  done
  [[ -s "$WORK/port" ]] || { echo "server never published its port" >&2; exit 1; }
  ADDR="$(cat "$WORK/port")"
}

echo "--- offline reference pipeline ($WORKLOAD)"
"$BIN" trace "$WORKLOAD" -o "$WORK/ref.mtrace"
"$BIN" profile "$WORK/ref.mtrace" -o "$WORK/ref.mprofile" --cycles "$CYCLES"
"$BIN" synth "$WORK/ref.mprofile" -o "$WORK/ref-synth.mtrace" --seed "$SEED"

echo "--- life 0: a store that cannot append acknowledges nothing"
start_server "$WORK/full-store" 1
for attempt in 1 2; do
  if "$BIN" client fit "$WORK/ref.mtrace" --addr "$ADDR" \
    -o "$WORK/full.mprofile" --cycles "$CYCLES" >"$WORK/full-$attempt.txt" 2>&1; then
    echo "fit $attempt was acknowledged although the store could not append it:" >&2
    cat "$WORK/full-$attempt.txt" >&2
    exit 1
  fi
  grep -q 'profile store' "$WORK/full-$attempt.txt" || {
    echo "fit $attempt failed without the store error:" >&2
    cat "$WORK/full-$attempt.txt" "$WORK/limited-server.log" >&2
    exit 1
  }
  sed 's/^/  /' "$WORK/full-$attempt.txt"
done
"$BIN" client shutdown --addr "$ADDR"
wait "$SERVER_PID"
SERVER_PID=""

echo "--- life 1: fit through a store-backed server, then kill -9"
start_server
"$BIN" client fit "$WORK/ref.mtrace" --addr "$ADDR" \
  -o "$WORK/srv.mprofile" --cycles "$CYCLES"
cmp "$WORK/ref.mprofile" "$WORK/srv.mprofile"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "--- crash damage: garbage bytes on the log tail (torn final append)"
head -c 17 /dev/urandom >>"$STORE/wal.mlog"

echo "--- life 2: restart recovers the durable prefix and serves it"
start_server
"$BIN" client fit "$WORK/ref.mtrace" --addr "$ADDR" \
  -o "$WORK/srv2.mprofile" --cycles "$CYCLES" | tee "$WORK/refit.txt"
grep -q 'cache hit' "$WORK/refit.txt" || {
  echo "restarted server refit missed its warmed cache" >&2
  exit 1
}
cmp "$WORK/ref.mprofile" "$WORK/srv2.mprofile"
FINGERPRINT="$(sed -n 's/.*fingerprint \(0x[0-9a-f]*\).*/\1/p' "$WORK/refit.txt")"
"$BIN" client synth --fingerprint "$FINGERPRINT" --addr "$ADDR" \
  -o "$WORK/srv-synth.mtrace" --seed "$SEED"
cmp "$WORK/ref-synth.mtrace" "$WORK/srv-synth.mtrace"
"$BIN" client metricsz --addr "$ADDR" >"$WORK/metrics.txt"
grep -q '^store_recoveries_total 1$' "$WORK/metrics.txt" || {
  echo "metrics did not count the recovery" >&2
  exit 1
}
"$BIN" client compact --addr "$ADDR"
"$BIN" client shutdown --addr "$ADDR"
wait "$SERVER_PID"
SERVER_PID=""

echo "--- life 3: cold start from the checkpoint alone"
start_server
"$BIN" client synth --fingerprint "$FINGERPRINT" --addr "$ADDR" \
  -o "$WORK/ckpt-synth.mtrace" --seed "$SEED"
cmp "$WORK/ref-synth.mtrace" "$WORK/ckpt-synth.mtrace"
"$BIN" client shutdown --addr "$ADDR"
wait "$SERVER_PID"
SERVER_PID=""

echo "store recovery smoke passed: kill -9 + torn log tail recovered, bytes identical"
