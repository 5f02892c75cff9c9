#include "compress/lzss.h"

#include <cstring>

#include "common/bytes.h"

namespace mistique {

namespace {

// Match-finder parameters. kMinMatch must exceed the 7-byte encoded size of
// a match token minus one so matches always shrink the stream.
constexpr size_t kMinMatch = 8;
constexpr size_t kMaxMatch = 0xffff;
constexpr int kHashBits = 17;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr int kMaxChainSteps = 16;

inline uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Token stream writer: control byte every 8 tokens.
class TokenWriter {
 public:
  explicit TokenWriter(std::vector<uint8_t>* out) : out_(out) {}

  void Literal(uint8_t b) {
    BeginToken(/*is_match=*/false);
    out_->push_back(b);
  }

  void Match(uint32_t distance, uint16_t length) {
    BeginToken(/*is_match=*/true);
    const size_t n = out_->size();
    out_->resize(n + 6);
    std::memcpy(out_->data() + n, &distance, 4);
    std::memcpy(out_->data() + n + 4, &length, 2);
  }

 private:
  void BeginToken(bool is_match) {
    if (bit_ == 8) {
      ctrl_pos_ = out_->size();
      out_->push_back(0);
      bit_ = 0;
    }
    if (is_match) (*out_)[ctrl_pos_] |= static_cast<uint8_t>(1u << bit_);
    bit_++;
  }

  std::vector<uint8_t>* out_;
  size_t ctrl_pos_ = 0;
  int bit_ = 8;
};

}  // namespace

Status LzssCodec::Compress(const std::vector<uint8_t>& input,
                           std::vector<uint8_t>* output) const {
  output->clear();
  ByteWriter header;
  header.PutU64(input.size());
  *output = header.TakeBytes();
  if (input.empty()) return Status::OK();

  const uint8_t* data = input.data();
  const size_t n = input.size();

  // head[h] = most recent position with hash h; prev[i] = previous position
  // in the same chain. Positions offset by 1 so 0 means "empty".
  std::vector<uint32_t> head(kHashSize, 0);
  std::vector<uint32_t> prev(n, 0);

  TokenWriter tw(output);
  size_t i = 0;
  // LZ4-style acceleration: after repeated search misses, emit several
  // literals per search so incompressible regions cost ~O(1) per byte.
  size_t miss_streak = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_pos = 0;
    if (i + sizeof(uint32_t) <= n) {
      const size_t limit = std::min(n - i, kMaxMatch);
      const uint32_t h = HashAt(data + i);
      uint32_t cand = head[h];
      int steps = 0;
      while (cand != 0 && steps++ < kMaxChainSteps) {
        const size_t c = cand - 1;
        // Quick reject: a candidate can only improve on best_len if it
        // matches at that offset too. This keeps runs (degenerate chains)
        // from re-scanning long matches per candidate.
        if (best_len > 0 &&
            (best_len >= limit || data[c + best_len] != data[i + best_len])) {
          cand = prev[c];
          continue;
        }
        size_t len = 0;
        while (len < limit && data[c + len] == data[i + len]) len++;
        if (len > best_len) {
          best_len = len;
          best_pos = c;
          if (len >= limit) break;
        }
        cand = prev[c];
      }
    }

    if (best_len >= kMinMatch) {
      miss_streak = 0;
      tw.Match(static_cast<uint32_t>(i - best_pos),
               static_cast<uint16_t>(best_len));
      // Index the covered range. Long matches insert sparsely: full-window
      // indexing of a megabyte run buys nothing but chain pollution.
      const size_t end = i + best_len;
      const size_t stride = best_len > 256 ? 16 : 1;
      while (i < end) {
        if (i + sizeof(uint32_t) <= n) {
          const uint32_t h = HashAt(data + i);
          prev[i] = head[h];
          head[h] = static_cast<uint32_t>(i + 1);
        }
        i += stride;
      }
      i = end;
    } else {
      const size_t skip = std::min<size_t>(1 + (miss_streak >> 5), 64);
      miss_streak++;
      const size_t end = std::min(i + skip, n);
      while (i < end) {
        if (i + sizeof(uint32_t) <= n) {
          const uint32_t h = HashAt(data + i);
          prev[i] = head[h];
          head[h] = static_cast<uint32_t>(i + 1);
        }
        tw.Literal(data[i]);
        i++;
      }
    }
  }
  return Status::OK();
}

Status LzssCodec::Decompress(const std::vector<uint8_t>& input,
                             std::vector<uint8_t>* output) const {
  ByteReader r(input);
  uint64_t out_len = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&out_len));
  // Every 6 stream bytes (one match token, its control bit aside) yield at
  // most kMaxMatch output bytes, a literal byte yields one. A longer
  // declared length is corrupt and must not size the allocation.
  const uint64_t stream = r.remaining();
  if (out_len > stream / 6 * kMaxMatch + stream % 6) {
    return Status::Corruption("lzss: declared length exceeds what the "
                              "stream can encode");
  }
  output->clear();
  output->reserve(out_len);

  uint8_t ctrl = 0;
  int bit = 8;
  while (output->size() < out_len) {
    if (bit == 8) {
      MISTIQUE_RETURN_NOT_OK(r.GetU8(&ctrl));
      bit = 0;
    }
    const bool is_match = (ctrl >> bit) & 1;
    bit++;
    if (is_match) {
      uint32_t distance = 0;
      uint16_t length = 0;
      MISTIQUE_RETURN_NOT_OK(r.GetU32(&distance));
      MISTIQUE_RETURN_NOT_OK(r.GetU16(&length));
      if (distance == 0 || distance > output->size()) {
        return Status::Corruption("lzss: invalid match distance");
      }
      if (output->size() + length > out_len) {
        return Status::Corruption("lzss: match overruns declared length");
      }
      // Byte-by-byte copy: matches may overlap their own output.
      size_t src = output->size() - distance;
      for (uint16_t k = 0; k < length; ++k) {
        output->push_back((*output)[src + k]);
      }
    } else {
      uint8_t b = 0;
      MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));
      output->push_back(b);
    }
  }
  return Status::OK();
}

}  // namespace mistique
