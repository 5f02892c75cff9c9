#include "compress/lzss.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

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
// Decoder presizing: see LzssCodec::Decompress.
constexpr uint64_t kPresizeRatio = 64;
constexpr uint64_t kPresizeFloor = uint64_t{1} << 20;

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
  // in the same chain. Entries hold position + 1 + base, and `at` maps
  // anything at or below this call's base to 0, "empty". So the 512 KB
  // head table is kept per thread and zeroed only when the offsets would
  // wrap, not on every call: a partition frame is 16 KB, and zeroing the
  // table cost more than compressing one. prev[i] is written before it is
  // read, so it needs no zeroing either.
  thread_local std::vector<uint32_t> head;
  thread_local uint64_t next_base = 0;
  if (head.empty() ||
      next_base + n + 1 > std::numeric_limits<uint32_t>::max()) {
    head.assign(kHashSize, 0);
    next_base = 0;
  }
  const uint32_t base = static_cast<uint32_t>(next_base);
  next_base += n + 1;
  const auto at = [base](uint32_t v) -> uint32_t {
    return v > base ? v - base : 0;
  };
  std::unique_ptr<uint32_t[]> prev(new uint32_t[n]);

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
      uint32_t cand = at(head[h]);
      int steps = 0;
      while (cand != 0 && steps++ < kMaxChainSteps) {
        const size_t c = cand - 1;
        // Quick reject: a candidate can only improve on best_len if it
        // matches at that offset too. This keeps runs (degenerate chains)
        // from re-scanning long matches per candidate.
        if (best_len > 0 &&
            (best_len >= limit || data[c + best_len] != data[i + best_len])) {
          cand = at(prev[c]);
          continue;
        }
        size_t len = 0;
        while (len < limit && data[c + len] == data[i + len]) len++;
        if (len > best_len) {
          best_len = len;
          best_pos = c;
          if (len >= limit) break;
        }
        cand = at(prev[c]);
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
          head[h] = static_cast<uint32_t>(base + i + 1);
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
          head[h] = static_cast<uint32_t>(base + i + 1);
        }
        tw.Literal(data[i]);
        i++;
      }
    }
  }
  return Status::OK();
}

Status LzssCodec::Decompress(std::span<const uint8_t> input,
                             std::vector<uint8_t>* output) const {
  const auto truncated = [] {
    return Status::Corruption("lzss: stream truncated");
  };
  uint64_t out_len = 0;
  if (input.size() < sizeof(out_len)) return truncated();
  std::memcpy(&out_len, input.data(), sizeof(out_len));
  const uint8_t* in = input.data() + sizeof(out_len);
  const uint8_t* const end = input.data() + input.size();
  // Every 6 stream bytes (one match token, its control bit aside) yield at
  // most kMaxMatch output bytes, a literal byte yields one. A longer
  // declared length is corrupt and must not size the allocation.
  const uint64_t stream = static_cast<uint64_t>(end - in);
  if (out_len > stream / 6 * kMaxMatch + stream % 6) {
    return Status::Corruption("lzss: declared length exceeds what the "
                              "stream can encode");
  }
  // The output is sized once for any stream that expands at most
  // kPresizeRatio times (or to kPresizeFloor bytes), which covers every
  // sealed partition. Beyond that it grows as the tokens prove their
  // lengths, so a corrupt header cannot make the decoder zero-fill memory
  // the stream never writes.
  output->clear();
  size_t cap = static_cast<size_t>(
      std::min(out_len, std::max(stream * kPresizeRatio, kPresizeFloor)));
  output->resize(cap);
  uint8_t* out = output->data();
  const auto grow = [&](size_t need) {
    cap = static_cast<size_t>(
        std::min<uint64_t>(out_len, std::max(need, 2 * cap)));
    output->resize(cap);
    out = output->data();
  };

  size_t pos = 0;
  while (pos < out_len) {
    if (in == end) return truncated();
    const uint8_t ctrl = *in++;
    if (ctrl == 0 && cap - pos >= 8 && end - in >= 8) {
      std::memcpy(out + pos, in, 8);  // Eight literals.
      pos += 8;
      in += 8;
      continue;
    }
    for (int bit = 0; bit < 8 && pos < out_len; ++bit) {
      if (((ctrl >> bit) & 1) == 0) {
        if (in == end) return truncated();
        if (pos == cap) grow(pos + 1);
        out[pos++] = *in++;
        continue;
      }
      if (end - in < 6) return truncated();
      uint32_t distance = 0;
      uint16_t length = 0;
      std::memcpy(&distance, in, 4);
      std::memcpy(&length, in + 4, 2);
      in += 6;
      if (distance == 0 || distance > pos) {
        return Status::Corruption("lzss: invalid match distance");
      }
      if (length > out_len - pos) {
        return Status::Corruption("lzss: match overruns declared length");
      }
      if (length > cap - pos) grow(pos + length);
      // Copy forward in blocks. The bytes written so far repeat with
      // period `distance`, so each pass may copy everything between the
      // source and the write head: one memcpy when the match does not
      // overlap itself, and doubling blocks when it does.
      uint8_t* const dst = out + pos;
      const uint8_t* const src = dst - distance;
      for (size_t done = 0; done < length;) {
        const size_t n = std::min<size_t>(done + distance, length - done);
        std::memcpy(dst + done, src, n);
        done += n;
      }
      pos += length;
    }
  }
  return Status::OK();
}

}  // namespace mistique
