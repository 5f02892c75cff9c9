// Compressed-domain scan throughput: packed kernels vs decode fallback.
//
// Builds a store with one quantized column per (scheme, kbits) case, then
// times the same POINTQ predicate through the SAME engine API on two
// engines over copies of that store — one with enable_packed_scan (the
// src/scan/ kernels evaluate the predicate on the stored words) and one
// with the decode fallback (DecodeAsDouble + scalar filter). Each
// iteration times one scan on each engine, alternating which goes
// first, so a slow host phase lands on both sides of a ratio rather
// than on one path's whole series. The speedup is the median of the
// per-iteration decode/packed ratios. Row sets must be identical; the
// 8-bit KBIT case is the headline number ci/scan_smoke.sh gates on.
//
// Knobs (env):
//   SCAN_ROWS         rows per column                (default 2097152)
//   SCAN_ITERS        timed decode+packed pairs       (default 5)
//   SCAN_MIN_SPEEDUP  fail unless the 8-bit KBIT POINTQ median speedup
//                     meets this (default 0 = report only; CI passes 2.0)
//
// Both paths run against a warm buffer pool, so the ratio is kernel
// compute, not I/O — the packed path additionally reads 8x fewer bytes
// cold, which bench/fig5_query_times.cc already covers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/mistique.h"
#include "quantize/quantizer.h"
#include "scan/scan_kernels.h"

namespace mistique {
namespace bench {
namespace {

struct Case {
  QuantScheme scheme;
  int kbits;
  const char* label;
};

/// Untimed pairs before the timed ones. One scan warms a buffer pool, but
/// after a single warm-up scan both paths still ran 40-90% slower in the
/// first timed pair and up to 25% slower in the second, which a median
/// over five pairs would take in.
constexpr int kWarmupPairs = 3;

double TimeScan(Mistique* mq, const ScanRequest& req,
                std::vector<uint64_t>* row_ids) {
  const auto start = std::chrono::steady_clock::now();
  ScanResult r = CheckOk(mq->Scan(req), "Scan");
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  *row_ids = std::move(r.row_ids);
  return sec;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int Run() {
  const uint64_t rows =
      static_cast<uint64_t>(EnvInt("SCAN_ROWS", 1 << 21));
  const int iters = std::max(EnvInt("SCAN_ITERS", 5), 1);
  const double min_speedup = EnvDouble("SCAN_MIN_SPEEDUP", 0.0);

  PrintHeader("Compressed-domain scan: packed kernels vs decode fallback");
  std::printf("rows=%llu iters=%d kernel_tier=%s gate=%.1fx\n\n",
              static_cast<unsigned long long>(rows), iters,
              scan::KernelTier(), min_speedup);

  const Case cases[] = {
      {QuantScheme::kKBit, 8, "KBIT_QT k=8"},
      {QuantScheme::kKBit, 4, "KBIT_QT k=4"},
      {QuantScheme::kKBit, 2, "KBIT_QT k=2"},
      {QuantScheme::kThreshold, 8, "THRESHOLD_QT"},
  };

  std::printf("%-14s %12s %12s %10s %12s\n", "case", "decode p50",
              "packed p50", "speedup", "match_rows");
  double gated_speedup = -1.0;
  double gated_packed_sec = 0.0;
  for (const Case& c : cases) {
    BenchDir dir(std::string("scan_tput_") + std::to_string(c.kbits) +
                 (c.scheme == QuantScheme::kThreshold ? "t" : "k"));
    MistiqueOptions opts;
    opts.store.directory = dir.path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 4096;

    // One dense column, quantized at import (opt-in path).
    {
      Mistique writer;
      CheckOk(writer.Open(opts), "Open(writer)");
      ImportIntermediate interm;
      interm.name = "act";
      interm.stage_index = 1;
      interm.num_rows = rows;
      interm.column_names = {"v"};
      interm.columns.resize(1);
      interm.columns[0].reserve(rows);
      for (uint64_t r = 0; r < rows; ++r) {
        interm.columns[0].push_back(
            std::sin(0.000917 * static_cast<double>(r)) +
            0.2 * std::sin(0.0413 * static_cast<double>(r)));
      }
      interm.scheme = c.scheme;
      interm.kbits = c.kbits;
      CheckOk(writer.ImportModel("bench", "m", {interm}).status(),
              "ImportModel");
      CheckOk(writer.Flush(), "Flush");
    }

    ScanRequest req;
    req.project = "bench";
    req.model = "m";
    req.intermediate = "act";
    req.predicate_column = "v";
    // Mid-selectivity band (~35% of a +/-1.2 waveform) so the predicate
    // does real work without the result vector dominating either path.
    req.lo = -0.35;
    req.hi = 0.45;

    // Each engine opens its own copy of the store, so neither shares
    // files or a buffer pool with the other.
    MistiqueOptions baseline = opts;
    baseline.enable_packed_scan = false;
    baseline.store.directory = dir.path() + "/store_decode";
    std::filesystem::copy(opts.store.directory, baseline.store.directory,
                          std::filesystem::copy_options::recursive);
    Mistique decode_mq;
    CheckOk(decode_mq.Open(baseline), "Open(decode)");
    Mistique packed_mq;
    CheckOk(packed_mq.Open(opts), "Open(packed)");

    std::vector<uint64_t> decode_rows;
    std::vector<uint64_t> packed_rows;
    for (int i = 0; i < kWarmupPairs; ++i) {
      TimeScan(&decode_mq, req, &decode_rows);
      TimeScan(&packed_mq, req, &packed_rows);
    }
    std::vector<double> decode_secs;
    std::vector<double> packed_secs;
    std::vector<double> ratios;
    for (int i = 0; i < iters; ++i) {
      if (i % 2 == 0) {
        decode_secs.push_back(TimeScan(&decode_mq, req, &decode_rows));
        packed_secs.push_back(TimeScan(&packed_mq, req, &packed_rows));
      } else {
        packed_secs.push_back(TimeScan(&packed_mq, req, &packed_rows));
        decode_secs.push_back(TimeScan(&decode_mq, req, &decode_rows));
      }
      ratios.push_back(decode_secs.back() / packed_secs.back());
    }

    // The whole point: the packed path is an optimization, not an
    // approximation. Row sets must match exactly.
    if (packed_rows != decode_rows) {
      std::fprintf(stderr,
                   "FATAL: %s packed scan diverged from decode path "
                   "(%zu vs %zu rows)\n",
                   c.label, packed_rows.size(), decode_rows.size());
      return 1;
    }

    const double speedup = Median(ratios);
    const double packed_sec = Median(packed_secs);
    std::printf("%-14s %9.2f ms %9.2f ms %9.2fx %12zu\n", c.label,
                Median(decode_secs) * 1e3, packed_sec * 1e3, speedup,
                packed_rows.size());
    std::printf("  per pair, decode/packed ms:");
    for (int i = 0; i < iters; ++i) {
      std::printf(" %.2f/%.2f=%.2fx", decode_secs[i] * 1e3,
                  packed_secs[i] * 1e3, ratios[i]);
    }
    std::printf("\n");
    if (c.scheme == QuantScheme::kKBit && c.kbits == 8) {
      gated_speedup = speedup;
      gated_packed_sec = packed_sec;
    }
  }

  std::printf("\npacked scan throughput (8-bit): %.0f Mvalues/s\n",
              static_cast<double>(rows) / gated_packed_sec / 1e6);
  if (min_speedup > 0.0 && gated_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: 8-bit KBIT POINTQ median speedup %.2fx below the "
                 "%.1fx gate\n",
                 gated_speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace mistique

int main() { return mistique::bench::Run(); }
