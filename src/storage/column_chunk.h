#ifndef MISTIQUE_STORAGE_COLUMN_CHUNK_H_
#define MISTIQUE_STORAGE_COLUMN_CHUNK_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "storage/dtype.h"

namespace mistique {

/// Values a narrow encoding reconstructs to. For kUInt8 chunks, `centers`
/// maps bin index -> representative value (bin median). For kBit chunks the
/// decode is 0/1. Wider float encodings need no table.
struct ReconstructionTable {
  std::vector<double> centers;
};

/// The unit of storage in MISTIQUE: one column's values for one RowBlock
/// (default 1K rows), physically encoded per its DType.
///
/// ColumnChunk is a passive value type. Identity for exact de-duplication is
/// the 128-bit content fingerprint over (dtype, encoded bytes).
class ColumnChunk {
 public:
  ColumnChunk() = default;
  ColumnChunk(DType dtype, uint64_t num_values, std::vector<uint8_t> data,
              uint8_t bit_width = 0)
      : dtype_(dtype),
        num_values_(num_values),
        bit_width_(bit_width ? bit_width
                             : static_cast<uint8_t>(DTypeBits(dtype))),
        data_(std::move(data)) {}

  /// Encodes doubles at the requested float width (kFloat64/32/16).
  static ColumnChunk FromDoubles(const std::vector<double>& values,
                                 DType dtype = DType::kFloat64);

  /// Encodes 64-bit integers.
  static ColumnChunk FromInts(const std::vector<int64_t>& values);

  /// Wraps precomputed bin indices (KBIT_QT output, k<=8).
  static ColumnChunk FromBins(const std::vector<uint8_t>& bins);

  /// Packs booleans into a bitmap (THRESHOLD_QT output).
  static ColumnChunk FromBits(const std::vector<bool>& bits);

  /// Packs bin indices into the word-aligned kPackedW layout: floor(64/bits)
  /// fields per little-endian u64 word, LSB-first within the word, spare
  /// high bits zero. Fields never straddle a word, so scan kernels can load
  /// whole words and compare all lanes at once. 1 <= bits <= 8.
  static ColumnChunk FromPackedWords(const std::vector<uint8_t>& bins,
                                     int bits);

  DType dtype() const { return dtype_; }
  uint64_t num_values() const { return num_values_; }
  /// Bits per stored value (meaningful for kPackedW; equals DTypeBits
  /// otherwise).
  uint8_t bit_width() const { return bit_width_; }
  const std::vector<uint8_t>& data() const { return data_; }
  /// Encoded payload size in bytes.
  size_t byte_size() const { return data_.size(); }

  /// Decodes to doubles. kUInt8 requires `recon` (bin centers); other
  /// encodings ignore it. Returns InvalidArgument when a required table is
  /// missing or a bin index is out of the table's range.
  Result<std::vector<double>> DecodeAsDouble(
      const ReconstructionTable* recon = nullptr) const;

  /// Content fingerprint over (dtype, bytes); computed lazily and cached.
  const Fingerprint& fingerprint() const;

  /// Min/max of the decoded values (bin indices for kUInt8); used for zone
  /// maps. Computed lazily from the encoded data.
  double min_value() const;
  double max_value() const;

 private:
  void ComputeStats() const;

  DType dtype_ = DType::kFloat64;
  uint64_t num_values_ = 0;
  uint8_t bit_width_ = 64;
  std::vector<uint8_t> data_;

  mutable bool fingerprint_valid_ = false;
  mutable Fingerprint fingerprint_;
  mutable bool stats_valid_ = false;
  mutable double min_ = 0;
  mutable double max_ = 0;
};

}  // namespace mistique

#endif  // MISTIQUE_STORAGE_COLUMN_CHUNK_H_
