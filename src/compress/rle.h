#ifndef MISTIQUE_COMPRESS_RLE_H_
#define MISTIQUE_COMPRESS_RLE_H_

#include "compress/codec.h"

namespace mistique {

/// Byte-level run-length encoding: a u64 output length, then (count u8 in
/// 1..255, byte) pairs. Effective on THRESHOLD_QT bitmaps and constant
/// columns; no store selects it by default.
class RleCodec : public Codec {
 public:
  CodecType type() const override { return CodecType::kRle; }
  Status Compress(const std::vector<uint8_t>& input,
                  std::vector<uint8_t>* output) const override;
  Status Decompress(std::span<const uint8_t> input,
                    std::vector<uint8_t>* output) const override;
};

}  // namespace mistique

#endif  // MISTIQUE_COMPRESS_RLE_H_
