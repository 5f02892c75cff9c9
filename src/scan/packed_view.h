#ifndef MISTIQUE_SCAN_PACKED_VIEW_H_
#define MISTIQUE_SCAN_PACKED_VIEW_H_

#include <cstdint>
#include <cstring>
#include <optional>

#include "storage/column_chunk.h"
#include "storage/dtype.h"

namespace mistique {
namespace scan {

/// A borrowing view over a ColumnChunk whose encoding the compressed-domain
/// kernels can evaluate in place — fixed-width unsigned fields that never
/// straddle a 64-bit word:
///
///   kPackedW  b-bit fields (1<=b<8), floor(64/b) per little-endian word
///   kUInt8    8-bit fields, 8 per word (the byte array read as words)
///   kBit      1-bit fields, 64 per word (THRESHOLD_QT bitmaps)
///
/// The view borrows the chunk's bytes; the chunk (and whatever pins it in
/// the buffer pool) must outlive the view.
struct PackedView {
  const uint8_t* data = nullptr;
  size_t size_bytes = 0;
  uint64_t n = 0;      ///< logical value count
  unsigned bits = 0;   ///< field width, 1..8

  /// True when `chunk`'s encoding is word-aligned-scannable.
  static bool Qualifies(const ColumnChunk& chunk);

  /// Builds a view, or nullopt when the encoding does not qualify.
  static std::optional<PackedView> Of(const ColumnChunk& chunk);

  size_t fields_per_word() const { return 64 / bits; }
  size_t num_words() const {
    const size_t per_word = fields_per_word();
    return (static_cast<size_t>(n) + per_word - 1) / per_word;
  }

  /// Word `w` as a little-endian u64 with any bytes past the payload end
  /// zero (kUInt8/kBit payloads are not word-padded). memcpy keeps the
  /// load alignment- and alias-safe under UBSan.
  uint64_t Word(size_t w) const {
    const size_t off = w * sizeof(uint64_t);
    uint64_t word = 0;
    const size_t len =
        off + sizeof(uint64_t) <= size_bytes ? sizeof(uint64_t)
                                             : size_bytes - off;
    std::memcpy(&word, data + off, len);
    return word;
  }

  /// Scalar field extraction (tails, top-k candidate readout, tests).
  uint64_t Get(uint64_t i) const {
    const size_t per_word = fields_per_word();
    const uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
    return (Word(i / per_word) >> ((i % per_word) * bits)) & mask;
  }
};

}  // namespace scan
}  // namespace mistique

#endif  // MISTIQUE_SCAN_PACKED_VIEW_H_
