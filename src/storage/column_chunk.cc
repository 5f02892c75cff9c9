#include "storage/column_chunk.h"

#include <cstring>
#include <limits>

#include "common/float16.h"

namespace mistique {

namespace {

const char* kDTypeNames[] = {"float64", "float32",  "float16", "uint8",
                             "bit",     "int64",    "unknown", "packedw"};

}  // namespace

const char* DTypeName(DType t) {
  const auto idx = static_cast<size_t>(t);
  return idx < 8 ? kDTypeNames[idx] : "unknown";
}

ColumnChunk ColumnChunk::FromDoubles(const std::vector<double>& values,
                                     DType dtype) {
  std::vector<uint8_t> data(DTypeByteSize(dtype, values.size()));
  switch (dtype) {
    case DType::kFloat64:
      std::memcpy(data.data(), values.data(), data.size());
      break;
    case DType::kFloat32: {
      auto* out = reinterpret_cast<float*>(data.data());
      for (size_t i = 0; i < values.size(); ++i) {
        out[i] = static_cast<float>(values[i]);
      }
      break;
    }
    case DType::kFloat16: {
      auto* out = reinterpret_cast<uint16_t*>(data.data());
      for (size_t i = 0; i < values.size(); ++i) {
        out[i] = FloatToHalf(static_cast<float>(values[i]));
      }
      break;
    }
    default:
      // Narrow encodings must go through the quantization layer, which
      // produces explicit bins/bits. Encode as float64 to stay lossless.
      return FromDoubles(values, DType::kFloat64);
  }
  return ColumnChunk(dtype, values.size(), std::move(data));
}

ColumnChunk ColumnChunk::FromInts(const std::vector<int64_t>& values) {
  std::vector<uint8_t> data(values.size() * sizeof(int64_t));
  std::memcpy(data.data(), values.data(), data.size());
  return ColumnChunk(DType::kInt64, values.size(), std::move(data));
}

ColumnChunk ColumnChunk::FromBins(const std::vector<uint8_t>& bins) {
  return ColumnChunk(DType::kUInt8, bins.size(), bins);
}

ColumnChunk ColumnChunk::FromBits(const std::vector<bool>& bits) {
  std::vector<uint8_t> data((bits.size() + 7) / 8, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) data[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  return ColumnChunk(DType::kBit, bits.size(), std::move(data));
}

ColumnChunk ColumnChunk::FromPackedWords(const std::vector<uint8_t>& bins,
                                         int bits) {
  if (bits >= 8) return FromBins(bins);
  if (bits < 1) bits = 1;
  const size_t per_word = PackedWFieldsPerWord(static_cast<size_t>(bits));
  std::vector<uint8_t> data(PackedWByteSize(static_cast<size_t>(bits),
                                            bins.size()),
                            0);
  for (size_t i = 0; i < bins.size(); ++i) {
    const size_t word = i / per_word;
    const size_t shift = (i % per_word) * static_cast<size_t>(bits);
    uint64_t w;
    std::memcpy(&w, data.data() + word * sizeof(uint64_t), sizeof(w));
    w |= static_cast<uint64_t>(bins[i]) << shift;
    std::memcpy(data.data() + word * sizeof(uint64_t), &w, sizeof(w));
  }
  return ColumnChunk(DType::kPackedW, bins.size(), std::move(data),
                     static_cast<uint8_t>(bits));
}

Result<std::vector<double>> ColumnChunk::DecodeAsDouble(
    const ReconstructionTable* recon) const {
  std::vector<double> out(num_values_);
  switch (dtype_) {
    case DType::kFloat64:
      std::memcpy(out.data(), data_.data(), data_.size());
      break;
    case DType::kFloat32: {
      const auto* in = reinterpret_cast<const float*>(data_.data());
      for (uint64_t i = 0; i < num_values_; ++i) out[i] = in[i];
      break;
    }
    case DType::kFloat16: {
      const auto* in = reinterpret_cast<const uint16_t*>(data_.data());
      for (uint64_t i = 0; i < num_values_; ++i) out[i] = HalfToFloat(in[i]);
      break;
    }
    case DType::kUInt8: {
      if (recon == nullptr || recon->centers.empty()) {
        return Status::InvalidArgument(
            "uint8 chunk decode requires a reconstruction table");
      }
      for (uint64_t i = 0; i < num_values_; ++i) {
        const uint8_t bin = data_[i];
        if (bin >= recon->centers.size()) {
          return Status::InvalidArgument("bin index out of range: " +
                                         std::to_string(bin));
        }
        out[i] = recon->centers[bin];
      }
      break;
    }
    case DType::kBit: {
      for (uint64_t i = 0; i < num_values_; ++i) {
        out[i] = (data_[i / 8] >> (i % 8)) & 1 ? 1.0 : 0.0;
      }
      break;
    }
    case DType::kInt64: {
      const auto* in = reinterpret_cast<const int64_t*>(data_.data());
      for (uint64_t i = 0; i < num_values_; ++i) {
        out[i] = static_cast<double>(in[i]);
      }
      break;
    }
    case DType::kPackedW: {
      if (recon == nullptr || recon->centers.empty()) {
        return Status::InvalidArgument(
            "packedw chunk decode requires a reconstruction table");
      }
      const size_t per_word = PackedWFieldsPerWord(bit_width_);
      const uint64_t mask =
          bit_width_ >= 64 ? ~0ull : (1ull << bit_width_) - 1;
      for (uint64_t i = 0; i < num_values_; ++i) {
        uint64_t w;
        std::memcpy(&w, data_.data() + (i / per_word) * sizeof(uint64_t),
                    sizeof(w));
        const uint64_t bin = (w >> ((i % per_word) * bit_width_)) & mask;
        if (bin >= recon->centers.size()) {
          return Status::InvalidArgument("packedw bin index out of range");
        }
        out[i] = recon->centers[bin];
      }
      break;
    }
  }
  return out;
}

const Fingerprint& ColumnChunk::fingerprint() const {
  if (!fingerprint_valid_) {
    // Fold the dtype into the seed so identical bytes at different
    // encodings do not collide.
    Fingerprint f = FingerprintBytes(data_.data(), data_.size());
    f.lo = HashCombine(f.lo, static_cast<uint64_t>(dtype_) + 1);
    f.hi = HashCombine(f.hi, num_values_);
    fingerprint_ = f;
    fingerprint_valid_ = true;
  }
  return fingerprint_;
}

void ColumnChunk::ComputeStats() const {
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  // Stats only guide zone-map pruning; bin indices are compared raw.
  ReconstructionTable identity;
  identity.centers.resize(256);
  for (int i = 0; i < 256; ++i) identity.centers[i] = i;
  auto decoded = DecodeAsDouble(&identity);
  if (decoded.ok()) {
    for (double v : decoded.ValueOrDie()) {
      if (v < mn) mn = v;
      if (v > mx) mx = v;
    }
  }
  if (num_values_ == 0) mn = mx = 0;
  min_ = mn;
  max_ = mx;
  stats_valid_ = true;
}

double ColumnChunk::min_value() const {
  if (!stats_valid_) ComputeStats();
  return min_;
}

double ColumnChunk::max_value() const {
  if (!stats_valid_) ComputeStats();
  return max_;
}

}  // namespace mistique
