#ifndef MISTIQUE_COMMON_BYTES_H_
#define MISTIQUE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace mistique {

/// Append-only little-endian byte writer used for partition / metadata
/// serialization. All multi-byte integers are written fixed-width LE so the
/// on-disk format is architecture independent.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF32(float v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }

  /// Length-prefixed string.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  /// Length-prefixed byte blob.
  void PutBlob(const std::vector<uint8_t>& b) {
    PutU64(b.size());
    PutRaw(b.data(), b.size());
  }

  void PutRaw(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential reader over a byte range; every Get checks bounds and returns
/// Corruption on truncated input rather than reading past the end.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), len_(buf.size()) {}

  Status GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU16(uint16_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetF32(float* v) { return GetRaw(v, sizeof(*v)); }
  Status GetF64(double* v) { return GetRaw(v, sizeof(*v)); }

  Status GetString(std::string* s) {
    uint32_t n = 0;
    MISTIQUE_RETURN_NOT_OK(GetU32(&n));
    if (n > remaining()) return Truncated();
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  /// Length-prefixed byte blob, borrowed from the buffer being read: the
  /// span is valid while that buffer is.
  Status GetBlob(std::span<const uint8_t>* b) {
    uint64_t n = 0;
    MISTIQUE_RETURN_NOT_OK(GetU64(&n));
    if (n > remaining()) return Truncated();
    *b = {data_ + pos_, static_cast<size_t>(n)};
    pos_ += n;
    return Status::OK();
  }

  /// `out` may be null when `n` is 0 (an empty vector's data()).
  Status GetRaw(void* out, size_t n) {
    if (n > remaining()) return Truncated();
    if (n == 0) return Status::OK();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Truncated() const {
    return Status::Corruption("byte stream truncated at offset " +
                              std::to_string(pos_));
  }
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace mistique

#endif  // MISTIQUE_COMMON_BYTES_H_
