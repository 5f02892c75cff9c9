#!/usr/bin/env bash
# Compressed-domain scan gate: bench/scan_throughput compares the packed
# kernels against the decode fallback through the same Scan API, asserts
# the row sets are identical, and fails unless the 8-bit KBIT POINTQ
# speedup is at least 2x. The speedup is the median of SCAN_ITERS
# per-pair ratios, each pair one decode and one packed scan back to back
# in alternating order, so a slow host phase cannot fall on one side
# only. The bench prints every pair, and the kernel tier (avx2/sse2/swar)
# actually dispatched on this runner.
#
# Usage: ci/scan_smoke.sh [build_dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/scan_throughput"

SCAN_MIN_SPEEDUP="${SCAN_MIN_SPEEDUP:-2.0}" \
SCAN_ROWS="${SCAN_ROWS:-2097152}" \
SCAN_ITERS="${SCAN_ITERS:-5}" \
  "$BENCH"

echo "scan smoke OK (packed row sets identical to decode, median >=2x on 8-bit POINTQ)"
