#!/usr/bin/env bash
# Cluster smoke test (docs/CLUSTER.md): seed a store, split it across 3
# shard stores, serve each shard, put a router in front, and verify the
# full degradation story end-to-end:
#   - remote fetch and scan through the router are byte-identical to the
#     oracle (the unsplit store read in-process),
#   - SIGKILL of a shard that owns nothing leaves both byte-identical,
#     since each routes to the model's owner only,
#   - SIGKILL of the owner turns the fetch and the scan of its model into
#     the *typed* degraded error (never a silent partial answer),
#   - restarting either shard re-admits it without touching the router,
#     and the owner's answers are byte-identical again,
#   - SIGTERM drains the router and every shard cleanly.
#
# Usage: ci/cluster_smoke.sh [build_dir]   (default: build)
set -euo pipefail
source "$(dirname "$0")/lib.sh"

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/mistique_cli"
KEY="zillow.P1_v0.train_merged.logerror"
SCAN_TARGET="zillow.P1_v0.train_merged"
STORE=/tmp/mistique_quickstart/store

smoke_init
# Router on BASE_PORT, shards on the next three.
BASE_PORT=$(pick_port_block "${CLUSTER_SMOKE_PORT:-7450}" 4)
SHARD_PIDS=("" "" "")
SHARD_PORTS=($((BASE_PORT + 1)) $((BASE_PORT + 2)) $((BASE_PORT + 3)))
ROUTER_PID=""

start_shard() {  # start_shard <index>
  local i="$1"
  spawn_server "$WORK/shard$i.log" "serving" \
      "$CLI" "$WORK/shard$i" serve "${SHARD_PORTS[$i]}" 2
  SHARD_PIDS[$i]=$SPAWNED_PID
  # spawn_server may have moved the shard if its picked port was stolen;
  # the router endpoints below must name the port it actually bound.
  SHARD_PORTS[$i]=${SPAWNED_PORT:-${SHARD_PORTS[$i]}}
}

echo "== seed store =="
"$BUILD_DIR/examples/quickstart" > /dev/null

# Oracle answers BEFORE any serving: what the routed path must reproduce.
"$CLI" "$STORE" fetch "$KEY" 25 2>/dev/null > "$WORK/oracle_fetch.csv"
"$CLI" "$STORE" scan "$SCAN_TARGET" taxamount 0 1e9 2>/dev/null \
    > "$WORK/oracle_scan.txt"
[[ -s "$WORK/oracle_scan.txt" ]] || { echo "oracle scan empty"; exit 1; }

echo "== split across 3 shards =="
"$CLI" cluster split "$STORE" "$WORK/shard" 3 | tee "$WORK/split.txt"
# One seeded model: exactly one shard owns it; the others are empty but
# still part of the ring.
OWNER=$(awk '$NF == "models" && $(NF-1) != "0" {print $2; exit}' "$WORK/split.txt")
EMPTY=$(awk '$NF == "models" && $(NF-1) == "0" {print $2; exit}' "$WORK/split.txt")
[[ -n "$OWNER" && -n "$EMPTY" ]] || { echo "could not parse split"; exit 1; }
echo "owner shard: $OWNER, sacrificial empty shard: $EMPTY"

echo "== start 3 shard servers + router on :$BASE_PORT =="
for i in 0 1 2; do start_shard "$i"; done
spawn_server "$WORK/router.log" "routing" \
    "$CLI" cluster route "$BASE_PORT" \
    "127.0.0.1:${SHARD_PORTS[0]}" "127.0.0.1:${SHARD_PORTS[1]}" \
    "127.0.0.1:${SHARD_PORTS[2]}"
ROUTER_PID=$SPAWNED_PID
BASE_PORT=${SPAWNED_PORT:-$BASE_PORT}
ROUTER="127.0.0.1:$BASE_PORT"

echo "== routed fetch is byte-identical to the oracle =="
"$CLI" remote "$ROUTER" fetch "$KEY" 25 2>/dev/null > "$WORK/routed_fetch.csv"
diff "$WORK/oracle_fetch.csv" "$WORK/routed_fetch.csv"
echo "identical ($(wc -l < "$WORK/routed_fetch.csv") lines)"

echo "== routed scan is byte-identical to the oracle =="
"$CLI" remote "$ROUTER" scan "$SCAN_TARGET" taxamount 0 1e9 2>/dev/null \
    > "$WORK/routed_scan.txt"
diff "$WORK/oracle_scan.txt" "$WORK/routed_scan.txt"
echo "identical ($(wc -l < "$WORK/routed_scan.txt") rows)"

echo "== shard map: 3 shards up =="
"$CLI" remote "$ROUTER" shardmap | tee "$WORK/shardmap.txt"
[[ $(grep -c " up$" "$WORK/shardmap.txt") -eq 3 ]] || {
  echo "expected 3 shards up"; exit 1; }

kill_shard() {  # kill_shard <index>: SIGKILL and reap
  local i="$1"
  kill -9 "${SHARD_PIDS[$i]}"
  wait "${SHARD_PIDS[$i]}" 2>/dev/null || true
  smoke_untrack "${SHARD_PIDS[$i]}"
  SHARD_PIDS[$i]=""
}

expect_routed_identical() {  # expect_routed_identical <tag>
  "$CLI" remote "$ROUTER" fetch "$KEY" 25 2>/dev/null > "$WORK/$1_fetch.csv"
  diff "$WORK/oracle_fetch.csv" "$WORK/$1_fetch.csv"
  "$CLI" remote "$ROUTER" scan "$SCAN_TARGET" taxamount 0 1e9 2>/dev/null \
      > "$WORK/$1_scan.txt"
  diff "$WORK/oracle_scan.txt" "$WORK/$1_scan.txt"
}

expect_degraded() {  # expect_degraded <fetch|scan> <args...>
  local what="$1" rc=0
  shift
  "$CLI" remote "$ROUTER" "$what" "$@" > /dev/null \
      2> "$WORK/degraded_$what.txt" || rc=$?
  [[ $rc -ne 0 ]] || {
    echo "$what unexpectedly succeeded with its owner dead"; exit 1; }
  grep -q "degraded" "$WORK/degraded_$what.txt" || {
    echo "$what failed but not with the typed degraded error:";
    cat "$WORK/degraded_$what.txt"; exit 1; }
  cat "$WORK/degraded_$what.txt"
}

wait_all_up() {  # wait_all_up <what>: all 3 shards up in the shard map
  local _
  for _ in $(seq 1 50); do
    if [[ $("$CLI" remote "$ROUTER" shardmap | grep -c " up$") -eq 3 ]]; then
      return 0
    fi
    sleep 0.2
  done
  echo "$1 never rejoined"; exit 1
}

echo "== SIGKILL empty shard $EMPTY -> fetch and scan still byte-identical =="
kill_shard "$EMPTY"
# The dead shard owns no partitions: both requests route to the owner.
expect_routed_identical during_kill
echo "fetch and scan still byte-identical with shard $EMPTY dead"

echo "== dead shard shows DOWN in the shard map =="
FOUND=""
for _ in $(seq 1 50); do
  if "$CLI" remote "$ROUTER" shardmap | grep -q "DOWN"; then FOUND=1; break; fi
  sleep 0.2
done
[[ -n "$FOUND" ]] || { echo "shard never marked DOWN"; exit 1; }

echo "== restarted empty shard rejoins without a router restart =="
start_shard "$EMPTY"
wait_all_up "restarted shard $EMPTY"
expect_routed_identical rejoined_empty
echo "fetch and scan healthy after shard $EMPTY rejoined"

echo "== SIGKILL owner shard $OWNER -> its fetch and scan degrade (typed) =="
kill_shard "$OWNER"
expect_degraded fetch "$KEY" 25
expect_degraded scan "$SCAN_TARGET" taxamount 0 1e9

echo "== restarted owner rejoins; its answers are byte-identical again =="
start_shard "$OWNER"
wait_all_up "restarted owner $OWNER"
expect_routed_identical rejoined_owner
echo "fetch and scan healthy again after the owner rejoined"

echo "== SIGTERM -> clean drain (router, then shards) =="
stop_clean "$ROUTER_PID" "$WORK/router.log" "routed:"
ROUTER_PID=""
cat "$WORK/router.log"
for i in 0 1 2; do
  stop_clean "${SHARD_PIDS[$i]}" "$WORK/shard$i.log"
  SHARD_PIDS[$i]=""
done

echo "cluster smoke OK"
