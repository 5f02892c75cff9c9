#ifndef MISTIQUE_COMPRESS_CODEC_H_
#define MISTIQUE_COMPRESS_CODEC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace mistique {

/// Identifies a compression codec in serialized Partitions. Tags 2-3
/// belonged to the deleted delta and dictionary codecs and stay reserved:
/// GetCodec rejects them like any unknown tag.
enum class CodecType : uint8_t {
  kNone = 0,
  kRle = 1,
  kLzss = 4,
};

/// Returns a printable codec name ("none", "rle", "lzss").
const char* CodecTypeName(CodecType type);

/// A block compressor. Partitions are compressed as a single unit when they
/// are flushed to disk, so a codec with a buffer-wide match window (LZSS)
/// turns co-located similar ColumnChunks into small deltas — the effect the
/// paper's Fig. 14 micro-benchmark measures.
///
/// Implementations are stateless and thread-compatible.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Codec identity, stored in the partition footer.
  virtual CodecType type() const = 0;

  /// Compresses `input` into `output` (overwritten). The output stream is
  /// self-describing for this codec (no external length needed beyond the
  /// container framing).
  virtual Status Compress(const std::vector<uint8_t>& input,
                          std::vector<uint8_t>* output) const = 0;

  /// Decompresses a stream produced by Compress. `output` is overwritten.
  /// `input` is borrowed, so a stream is decoded where it was read.
  virtual Status Decompress(std::span<const uint8_t> input,
                            std::vector<uint8_t>* output) const = 0;
};

/// Identity codec: stores bytes verbatim. A partition is sealed with it
/// when the configured codec would not shrink the payload.
class NullCodec : public Codec {
 public:
  CodecType type() const override { return CodecType::kNone; }
  Status Compress(const std::vector<uint8_t>& input,
                  std::vector<uint8_t>* output) const override {
    *output = input;
    return Status::OK();
  }
  Status Decompress(std::span<const uint8_t> input,
                    std::vector<uint8_t>* output) const override {
    output->assign(input.begin(), input.end());
    return Status::OK();
  }
};

/// Returns the singleton codec for `type`, or InvalidArgument for an unknown
/// or reserved tag (e.g. read from a corrupted partition footer).
Result<const Codec*> GetCodec(CodecType type);

}  // namespace mistique

#endif  // MISTIQUE_COMPRESS_CODEC_H_
