#!/usr/bin/env bash
# Benchmark smoke: runs perfbench's Python unit tests, then every workload
# for a few seconds (end-to-end metrics) and one traced serve_routed run
# (per-layer metrics). run.py builds the driver from this checkout's
# sources on first use. Fails unless each run's last line reports
# "correct": true and "failed": 0, so a broken driver or answer check
# shows here instead of in a benchmark run.
#
# Usage: ci/perfbench_smoke.sh   (from the root of a checkout)
set -euo pipefail

export PYTHONDONTWRITEBYTECODE=1  # leave nothing behind under perfbench/

python3 -m unittest discover -s perfbench -p 'test_*.py'

# run <run.py args...>: one benchmark run, judged on its last line.
run() {
  local out
  echo "== perfbench $*"
  out=$(python3 perfbench/run.py "$@")
  printf '%s\n' "$out" | grep -E '^(counts|info):' || true
  printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("correct=%s attempted=%s failed=%s" % (r["correct"], r["attempted"],
                                             r["failed"]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || {
    echo "perfbench smoke FAILED: $*"
    exit 1
  }
}

for workload in diag_cold serve_routed ingest_serve; do
  run --workload "$workload" --seed 1 --seconds 3 --trace 0
done
run --workload serve_routed --seed 1 --seconds 3 --trace 1

echo "perfbench smoke OK (3 workloads and a traced serve_routed run answered correctly)"
