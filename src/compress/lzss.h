#ifndef MISTIQUE_COMPRESS_LZSS_H_
#define MISTIQUE_COMPRESS_LZSS_H_

#include "compress/codec.h"

namespace mistique {

/// Greedy hash-chain LZSS with a whole-buffer match window.
///
/// This is MISTIQUE's stand-in for gzip: a real Lempel-Ziv compressor whose
/// window spans the entire Partition buffer, so duplicate or near-duplicate
/// ColumnChunks co-located by the dedup layer compress down to back-reference
/// tokens regardless of how far apart they sit in the partition.
///
/// Token format (byte-aligned for simplicity): a control byte carries 8
/// flags (LSB first); flag=0 emits a literal byte, flag=1 emits a match as
/// u32 distance + u16 length. Minimum match length 8 (a match token costs
/// 6 bytes plus its control bit, so shorter matches barely pay).
class LzssCodec : public Codec {
 public:
  CodecType type() const override { return CodecType::kLzss; }
  Status Compress(const std::vector<uint8_t>& input,
                  std::vector<uint8_t>* output) const override;
  Status Decompress(std::span<const uint8_t> input,
                    std::vector<uint8_t>* output) const override;
};

}  // namespace mistique

#endif  // MISTIQUE_COMPRESS_LZSS_H_
