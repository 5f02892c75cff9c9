#include "compress/rle.h"

#include "common/bytes.h"

namespace mistique {

Status RleCodec::Compress(const std::vector<uint8_t>& input,
                          std::vector<uint8_t>* output) const {
  ByteWriter w;
  w.PutU64(input.size());
  size_t i = 0;
  while (i < input.size()) {
    const uint8_t b = input[i];
    size_t run = 1;
    while (i + run < input.size() && input[i + run] == b && run < 255) run++;
    w.PutU8(static_cast<uint8_t>(run));
    w.PutU8(b);
    i += run;
  }
  *output = w.TakeBytes();
  return Status::OK();
}

Status RleCodec::Decompress(std::span<const uint8_t> input,
                            std::vector<uint8_t>* output) const {
  ByteReader r(input.data(), input.size());
  uint64_t out_len = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&out_len));
  // Each pair yields at most 255 bytes, so a corrupt length cannot make
  // the reserve below ask for more than the stream could fill.
  if (out_len > r.remaining() / 2 * 255) {
    return Status::Corruption("rle: declared length exceeds the stream");
  }
  output->clear();
  output->reserve(out_len);
  while (output->size() < out_len) {
    uint8_t run = 0, b = 0;
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&run));
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));
    if (run == 0) return Status::Corruption("rle: zero-length run");
    if (output->size() + run > out_len) {
      return Status::Corruption("rle: run overruns declared length");
    }
    output->insert(output->end(), run, b);
  }
  return Status::OK();
}

}  // namespace mistique
