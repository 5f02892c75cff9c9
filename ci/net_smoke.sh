#!/usr/bin/env bash
# Network smoke test: seed a store, serve it over TCP, run a scripted
# remote session (ping / fetch / concurrent clients / stats), verify the
# remote fetch prints byte-identical output to the in-process path, then
# SIGTERM the server and assert a clean drain (exit 0 + drain summary).
#
# Usage: ci/net_smoke.sh [build_dir]   (default: build)
set -euo pipefail
source "$(dirname "$0")/lib.sh"

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/mistique_cli"
KEY="zillow.P1_v0.train_merged.logerror"
STORE=/tmp/mistique_quickstart/store

smoke_init
PORT=$(pick_port "${NET_SMOKE_PORT:-7433}")

echo "== seed store =="
"$BUILD_DIR/examples/quickstart" > /dev/null

# In-process fetch BEFORE the server owns the store: the reference bytes
# the remote path must reproduce.
"$CLI" "$STORE" fetch "$KEY" 25 2>/dev/null > "$WORK/local.csv"

echo "== start server on :$PORT =="
spawn_server "$WORK/server.log" "serving" "$CLI" "$STORE" serve "$PORT" 4
SERVER_PID=$SPAWNED_PID
PORT=${SPAWNED_PORT:-$PORT}

echo "== ping =="
"$CLI" remote "127.0.0.1:$PORT" ping

echo "== remote fetch is byte-identical to the in-process path =="
"$CLI" remote "127.0.0.1:$PORT" fetch "$KEY" 25 2>/dev/null > "$WORK/remote.csv"
diff "$WORK/local.csv" "$WORK/remote.csv"
echo "identical ($(wc -l < "$WORK/remote.csv") lines)"

echo "== concurrent remote session (4 clients x 25 fetches) =="
"$CLI" remote "127.0.0.1:$PORT" session "$KEY" 4 25

echo "== stats =="
"$CLI" remote "127.0.0.1:$PORT" stats

echo "== metrics scrape =="
"$CLI" remote "127.0.0.1:$PORT" metrics > "$WORK/metrics.txt"
# The fetches above must have moved the engine counters; a corruption
# count other than zero means the store served damaged partitions.
grep -Eq '^mistique_fetch_total [1-9]' "$WORK/metrics.txt" || {
  echo "expected non-zero mistique_fetch_total"; cat "$WORK/metrics.txt"; exit 1; }
grep -Eq '^mistique_disk_read_bytes_total [1-9]' "$WORK/metrics.txt" || {
  echo "expected non-zero mistique_disk_read_bytes_total"; exit 1; }
grep -Eq '^mistique_corruptions_detected 0$' "$WORK/metrics.txt" || {
  echo "expected zero mistique_corruptions_detected"; exit 1; }
grep -Eq '^mistique_service_latency_seconds_count [1-9]' "$WORK/metrics.txt" || {
  echo "expected latency histogram samples"; exit 1; }
echo "metrics OK ($(wc -l < "$WORK/metrics.txt") lines)"

echo "== traced remote fetch =="
"$CLI" remote "127.0.0.1:$PORT" dtrace "$KEY" 25 2>/dev/null > "$WORK/trace.txt"
grep -q "strategy:" "$WORK/trace.txt" || {
  echo "trace missing strategy line"; cat "$WORK/trace.txt"; exit 1; }
grep -q "t_read" "$WORK/trace.txt" || {
  echo "trace missing cost-model estimates"; cat "$WORK/trace.txt"; exit 1; }
cat "$WORK/trace.txt"

echo "== SIGTERM -> clean drain =="
stop_clean "$SERVER_PID" "$WORK/server.log" "drained:"
cat "$WORK/server.log"

echo "net smoke OK"
