#ifndef MISTIQUE_STORAGE_DTYPE_H_
#define MISTIQUE_STORAGE_DTYPE_H_

#include <cstddef>
#include <cstdint>

namespace mistique {

/// Physical value encodings supported by ColumnChunks. The quantization
/// layer maps logical float activations onto the narrower encodings.
enum class DType : uint8_t {
  kFloat64 = 0,  ///< raw double precision
  kFloat32 = 1,  ///< single precision (LP_QT level 1)
  kFloat16 = 2,  ///< IEEE binary16 (LP_QT level 2)
  kUInt8 = 3,    ///< quantile bin index (KBIT_QT, k<=8); needs a recon table
  kBit = 4,      ///< packed bitmap (THRESHOLD_QT)
  kInt64 = 5,    ///< integer ids (row_id, parcelid, categorical codes)
  // 6 is reserved: the deleted bit-contiguous packed layout. Partitions
  // that carry it fail to decode.
  kPackedW = 7,  ///< word-aligned k-bit bin indices: floor(64/k) fields per
                 ///< little-endian u64 word, LSB-first, spare high bits
                 ///< zero. Scannable in place by src/scan/ kernels.
};

/// Printable name ("float64", "bit", ...).
const char* DTypeName(DType t);

/// Bits per stored value.
inline size_t DTypeBits(DType t) {
  switch (t) {
    case DType::kFloat64:
      return 64;
    case DType::kFloat32:
      return 32;
    case DType::kFloat16:
      return 16;
    case DType::kUInt8:
      return 8;
    case DType::kBit:
      return 1;
    case DType::kInt64:
      return 64;
    case DType::kPackedW:
      return 8;  // Upper bound; actual width is per-chunk (bit_width()).
  }
  return 64;
}

/// Bytes needed to store `n` values of type `t` (bit type rounds up).
inline size_t DTypeByteSize(DType t, size_t n) {
  return (DTypeBits(t) * n + 7) / 8;
}

/// Fields per 64-bit word in the kPackedW layout. Fields never straddle a
/// word boundary: with b-bit fields, floor(64/b) fit and the remaining
/// 64 mod b high bits stay zero.
inline size_t PackedWFieldsPerWord(size_t bits) {
  return bits >= 1 && bits <= 64 ? 64 / bits : 1;
}

/// Bytes needed to store `n` values at `bits` bits each in the kPackedW
/// word-aligned layout (whole little-endian u64 words).
inline size_t PackedWByteSize(size_t bits, size_t n) {
  const size_t per_word = PackedWFieldsPerWord(bits);
  return ((n + per_word - 1) / per_word) * sizeof(uint64_t);
}

}  // namespace mistique

#endif  // MISTIQUE_STORAGE_DTYPE_H_
