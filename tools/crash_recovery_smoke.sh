#!/usr/bin/env bash
# Crash-recovery smoke for qc_serverd's WAL.
#
# Proves the durability contract end to end, the way an operator would
# experience it:
#   1. start qc_serverd with --wal-dir and fsync=always;
#   2. stream single-tuple mutations at it (each with an idempotency id)
#      and kill -9 the server mid-stream;
#   3. restart on the same --wal-dir — recovery must replay every
#      acknowledged mutation (acked <= recovered rows, and the rows form a
#      contiguous prefix {0..n-1}: nothing lost, nothing double-applied);
#   4. replay the same n mutations against a never-crashed oracle server
#      and diff the sorted row dumps — recovered answers must be
#      bit-identical to the clean run;
#   5. register a materialized view on the recovered server, stream more
#      mutations under it, kill -9 again, restart — the rebuilt view's
#      rows must be identical to the recovered base relation (the view is
#      `stream(x)`, so view == relation at every epoch).
#
# Usage: tools/crash_recovery_smoke.sh [BUILD_DIR] [STREAM_COUNT]
set -euo pipefail

BUILD_DIR=${1:-build}
STREAM_COUNT=${2:-2000}
SERVERD="$BUILD_DIR/src/server/qc_serverd"
LOADGEN="$BUILD_DIR/src/server/qc_loadgen"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/qc_crash_smoke.XXXXXX")

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true  # Reap the servers: none may outlive the script.
  rm -rf "$WORK"
}
trap cleanup EXIT

# start_server NAME [extra args...] — writes stdout to $WORK/NAME.out,
# records the pid in $WORK/NAME.pid and the resolved port in
# $WORK/NAME.port. Call it directly, not inside $(...): the server must be a
# child of this shell and its pid must reach PIDS, or the EXIT trap can
# neither kill nor reap it.
start_server() {
  local name=$1
  shift
  "$SERVERD" --port 0 "$@" > "$WORK/$name.out" 2> "$WORK/$name.err" &
  local pid=$!
  PIDS+=("$pid")
  echo "$pid" > "$WORK/$name.pid"
  for _ in $(seq 1 100); do
    grep -q "listening on" "$WORK/$name.out" 2>/dev/null && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: $name died on startup" >&2
      cat "$WORK/$name.out" "$WORK/$name.err" >&2
      exit 1
    fi
    sleep 0.1
  done
  grep "listening on" "$WORK/$name.out" | sed 's/.*://' > "$WORK/$name.port"
}

# kill_server NAME — kill -9, then reap, so the shell reports nothing.
kill_server() {
  local pid
  pid=$(cat "$WORK/$1.pid")
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
}

echo "== phase 1: stream mutations, kill -9 mid-stream"
start_server victim --wal-dir "$WORK/wal" --fsync always
PORT=$(cat "$WORK/victim.port")
"$LOADGEN" --port "$PORT" --write-relation stream \
  --stream-mutations "$STREAM_COUNT" \
  > "$WORK/stream.out" 2> "$WORK/stream.err" &
LOADGEN_PID=$!
# Let some mutations land, then pull the plug — no shutdown frame, no
# SIGTERM, nothing graceful.
sleep 0.5
kill_server victim
wait "$LOADGEN_PID" || true  # Transport error at the kill point is expected.
ACKED=$(sed -n 's/.*stream_acked=\([0-9]*\).*/\1/p' "$WORK/stream.out")
if [ -z "$ACKED" ]; then
  echo "FAIL: load generator reported no acked count" >&2
  cat "$WORK/stream.out" "$WORK/stream.err" >&2
  exit 1
fi
echo "   acked before kill -9: $ACKED"
if [ "$ACKED" -eq 0 ]; then
  echo "FAIL: no mutation was acknowledged before the kill; nothing to verify" >&2
  exit 1
fi

echo "== phase 2: restart on the same --wal-dir and verify the prefix"
start_server reborn --wal-dir "$WORK/wal" --fsync always
PORT=$(cat "$WORK/reborn.port")
grep "recovered" "$WORK/reborn.out" || true
"$LOADGEN" --port "$PORT" --verify-prefix stream --expect-at-least "$ACKED" \
  > "$WORK/verify.out"
cat "$WORK/verify.out"
ROWS=$(sed -n 's/.*verify_rows=\([0-9]*\).*/\1/p' "$WORK/verify.out")
"$LOADGEN" --port "$PORT" --dump-rows stream > "$WORK/recovered.rows"

echo "== phase 3: diff against a never-crashed oracle ($ROWS mutations)"
start_server oracle --wal-dir "$WORK/oracle-wal" --fsync off
ORACLE_PORT=$(cat "$WORK/oracle.port")
"$LOADGEN" --port "$ORACLE_PORT" --write-relation stream \
  --stream-mutations "$ROWS" > /dev/null
"$LOADGEN" --port "$ORACLE_PORT" --dump-rows stream > "$WORK/oracle.rows"
if ! diff -u "$WORK/oracle.rows" "$WORK/recovered.rows"; then
  echo "FAIL: recovered rows differ from the clean-run oracle" >&2
  exit 1
fi

echo "== phase 4: recovered server still accepts writes (WAL reopened)"
"$LOADGEN" --port "$PORT" --write-relation stream2 --stream-mutations 3 \
  > /dev/null || { echo "FAIL: post-recovery mutation rejected" >&2; exit 1; }
"$LOADGEN" --port "$PORT" --verify-prefix stream2 --expect-at-least 3 \
  > /dev/null

echo "== phase 5: views survive kill -9 (kViewDef replay + rebuild)"
"$LOADGEN" --port "$PORT" --register-view 'all=join=stream(x)' \
  > "$WORK/view.out" || {
    echo "FAIL: view registration rejected" >&2
    cat "$WORK/view.out" >&2
    exit 1
  }
"$LOADGEN" --port "$PORT" --write-relation stream \
  --stream-mutations $((ROWS + 200)) > /dev/null  # ids 0..ROWS-1 dedup.
kill_server reborn
start_server reborn2 --wal-dir "$WORK/wal" --fsync always
PORT=$(cat "$WORK/reborn2.port")
grep -q "views_rebuilt=1" "$WORK/reborn2.err" || {
  echo "FAIL: recovery did not rebuild the registered view" >&2
  cat "$WORK/reborn2.out" >&2
  exit 1
}
"$LOADGEN" --port "$PORT" --dump-view all | sort -n > "$WORK/view.rows"
"$LOADGEN" --port "$PORT" --dump-rows stream > "$WORK/base.rows"
if ! diff -u "$WORK/base.rows" "$WORK/view.rows"; then
  echo "FAIL: rebuilt view differs from the recovered relation" >&2
  exit 1
fi
VIEW_ROWS=$(wc -l < "$WORK/view.rows")

echo "PASS: $ACKED acked, $ROWS recovered, prefix contiguous, oracle-identical, view rebuilt ($VIEW_ROWS rows)"
