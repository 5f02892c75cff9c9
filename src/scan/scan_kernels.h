#ifndef MISTIQUE_SCAN_SCAN_KERNELS_H_
#define MISTIQUE_SCAN_SCAN_KERNELS_H_

#include <cstdint>
#include <vector>

#include "scan/packed_view.h"

namespace mistique {
namespace scan {

/// Compressed-domain scan kernels: POINTQ / TOPK predicates
/// evaluated directly on packed words (docs/SCAN.md). All kernels are
/// word-parallel: a portable 64-bit SWAR path compares every field of a
/// word at once, and for 8-bit fields an SSE2/AVX2 path (selected once at
/// runtime) compares 16/32 lanes per instruction. Results are exact —
/// byte-identical to decoding and filtering — because the quantized
/// threshold is translated to a bin range once per query and bins are
/// compared losslessly.

/// Which SIMD tier runtime dispatch selected for 8-bit fields:
/// "avx2", "sse2", or "swar". Sub-byte widths always use SWAR.
const char* KernelTier();

/// POINTQ: appends base_row + i for every field i with
/// lo_bin <= field <= hi_bin (unsigned), in ascending order. Bins outside
/// [0, 2^bits) are clamped; an empty range appends nothing.
void CmpPacked(const PackedView& v, uint64_t lo_bin, uint64_t hi_bin,
               uint64_t base_row, std::vector<uint64_t>* out);

/// Running top-k accumulator for TopKPacked. Keeps the k largest
/// (bin, row) pairs seen so far; ties prefer the lower row id so results
/// are deterministic across block orders and kernel tiers.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(size_t k) : k_(k) {}

  size_t k() const { return k_; }
  bool full() const { return heap_.size() >= k_; }
  /// Smallest bin still in the top k (only meaningful when full()); a
  /// whole block whose zone-map max is below this can be skipped.
  uint64_t threshold() const { return full() ? heap_.front().bin : 0; }

  void Offer(uint64_t bin, uint64_t row);

  /// Drains the accumulator: (bin, row) sorted by bin descending, row
  /// ascending on ties.
  struct Entry {
    uint64_t bin = 0;
    uint64_t row = 0;
  };
  std::vector<Entry> Take();

 private:
  static bool Worse(const Entry& a, const Entry& b);

  size_t k_ = 0;
  std::vector<Entry> heap_;  ///< min-heap on (bin asc, row desc)
};

/// TOPK: offers every field >= the accumulator's current threshold.
/// Words where no field can beat the threshold are rejected with one
/// SWAR compare and never unpacked.
void TopKPacked(const PackedView& v, uint64_t base_row, TopKAccumulator* acc);

}  // namespace scan
}  // namespace mistique

#endif  // MISTIQUE_SCAN_SCAN_KERNELS_H_
