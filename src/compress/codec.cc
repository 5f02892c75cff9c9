#include "compress/codec.h"

#include "compress/lzss.h"
#include "compress/rle.h"

namespace mistique {

const char* CodecTypeName(CodecType type) {
  switch (type) {
    case CodecType::kNone:
      return "none";
    case CodecType::kRle:
      return "rle";
    case CodecType::kLzss:
      return "lzss";
  }
  return "unknown";
}

Result<const Codec*> GetCodec(CodecType type) {
  // Codecs are stateless; function-local statics avoid global destructors
  // (pointers to heap objects intentionally leaked at exit).
  static const NullCodec* const kNull = new NullCodec();
  static const RleCodec* const kRle = new RleCodec();
  static const LzssCodec* const kLzss = new LzssCodec();
  switch (type) {
    case CodecType::kNone:
      return static_cast<const Codec*>(kNull);
    case CodecType::kRle:
      return static_cast<const Codec*>(kRle);
    case CodecType::kLzss:
      return static_cast<const Codec*>(kLzss);
  }
  return Status::InvalidArgument("unknown codec tag " +
                                 std::to_string(static_cast<int>(type)));
}

}  // namespace mistique
