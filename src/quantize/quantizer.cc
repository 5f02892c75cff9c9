#include "quantize/quantizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mistique {

std::string QuantSchemeName(QuantScheme scheme, int k) {
  switch (scheme) {
    case QuantScheme::kNone:
      return "FULL";
    case QuantScheme::kLp32:
      return "LP_QT(32)";
    case QuantScheme::kLp16:
      return "LP_QT(16)";
    case QuantScheme::kKBit:
      return std::to_string(k) + "BIT_QT";
    case QuantScheme::kThreshold:
      return "THRESHOLD_QT";
  }
  return "UNKNOWN";
}

KBitQuantizer::KBitQuantizer(int k) : k_(std::clamp(k, 1, 8)) {}

Status KBitQuantizer::Fit(std::vector<double> sample) {
  if (sample.empty()) {
    return Status::InvalidArgument("KBitQuantizer::Fit: empty sample");
  }
  std::sort(sample.begin(), sample.end());
  const size_t n = sample.size();
  const size_t bins = size_t{1} << k_;

  edges_.assign(bins - 1, 0.0);
  for (size_t i = 1; i < bins; ++i) {
    // Edge i separates bin i-1 from bin i at the i/bins quantile.
    size_t idx = (i * n) / bins;
    if (idx >= n) idx = n - 1;
    edges_[i - 1] = sample[idx];
  }

  recon_.centers.assign(bins, 0.0);
  for (size_t i = 0; i < bins; ++i) {
    // Representative value: the sample median of the bin's quantile range.
    size_t idx = ((2 * i + 1) * n) / (2 * bins);
    if (idx >= n) idx = n - 1;
    recon_.centers[i] = sample[idx];
  }
  fitted_ = true;
  return Status::OK();
}

uint8_t KBitQuantizer::BinOf(double value) const {
  // First edge >= value marks the bin. NaNs land in the last bin.
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), value);
  return static_cast<uint8_t>(it - edges_.begin());
}

Result<ColumnChunk> KBitQuantizer::Quantize(
    const std::vector<double>& values) const {
  if (!fitted_) {
    return Status::Internal("KBitQuantizer used before Fit");
  }
  std::vector<uint8_t> bins(values.size());
  for (size_t i = 0; i < values.size(); ++i) bins[i] = BinOf(values[i]);
  if (k_ == 8) return ColumnChunk::FromBins(bins);
  // Word-aligned so the src/scan/ kernels can evaluate predicates on the
  // packed words directly.
  return ColumnChunk::FromPackedWords(bins, k_);
}

Result<KBitQuantizer> KBitQuantizer::FromTables(int k,
                                                std::vector<double> edges,
                                                std::vector<double> centers) {
  KBitQuantizer q(k);
  const size_t bins = size_t{1} << q.k_;
  if (edges.size() != bins - 1 || centers.size() != bins) {
    return Status::InvalidArgument(
        "KBitQuantizer::FromTables: table sizes do not match k");
  }
  q.edges_ = std::move(edges);
  q.recon_.centers = std::move(centers);
  q.fitted_ = true;
  return q;
}

Status ThresholdQuantizer::Fit(std::vector<double> sample) {
  if (sample.empty()) {
    return Status::InvalidArgument("ThresholdQuantizer::Fit: empty sample");
  }
  std::sort(sample.begin(), sample.end());
  // (1 - alpha) percentile, e.g. the 99.5th for alpha = 0.005.
  double pos = (1.0 - alpha_) * static_cast<double>(sample.size() - 1);
  if (pos < 0) pos = 0;
  threshold_ = sample[static_cast<size_t>(pos)];
  fitted_ = true;
  return Status::OK();
}

Result<ColumnChunk> ThresholdQuantizer::Quantize(
    const std::vector<double>& values) const {
  if (!fitted_) {
    return Status::Internal("ThresholdQuantizer used before Fit");
  }
  std::vector<bool> bits(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    bits[i] = values[i] > threshold_;
  }
  return ColumnChunk::FromBits(bits);
}

ThresholdQuantizer ThresholdQuantizer::FromThreshold(double alpha,
                                                     double threshold) {
  ThresholdQuantizer q(alpha);
  q.threshold_ = threshold;
  q.fitted_ = true;
  return q;
}

std::vector<double> PoolQuantizer::PoolMap(const std::vector<double>& map,
                                           int height, int width) const {
  const int oh = OutSide(height);
  const int ow = OutSide(width);
  std::vector<double> out(static_cast<size_t>(oh) * ow);
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      const int y0 = oy * sigma_;
      const int x0 = ox * sigma_;
      const int y1 = std::min(y0 + sigma_, height);
      const int x1 = std::min(x0 + sigma_, width);
      double agg = mode_ == PoolMode::kMax
                       ? -std::numeric_limits<double>::infinity()
                       : 0.0;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          const double v = map[static_cast<size_t>(y) * width + x];
          if (mode_ == PoolMode::kMax) {
            agg = std::max(agg, v);
          } else {
            agg += v;
          }
        }
      }
      if (mode_ == PoolMode::kAvg) {
        agg /= static_cast<double>((y1 - y0) * (x1 - x0));
      }
      out[static_cast<size_t>(oy) * ow + ox] = agg;
    }
  }
  return out;
}

std::vector<double> PoolQuantizer::PoolChw(const std::vector<double>& chw,
                                           int channels, int height,
                                           int width) const {
  const int oh = OutSide(height);
  const int ow = OutSide(width);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(channels) * oh * ow);
  std::vector<double> map(static_cast<size_t>(height) * width);
  for (int c = 0; c < channels; ++c) {
    const size_t base = static_cast<size_t>(c) * height * width;
    std::copy(chw.begin() + base, chw.begin() + base + map.size(),
              map.begin());
    std::vector<double> pooled = PoolMap(map, height, width);
    out.insert(out.end(), pooled.begin(), pooled.end());
  }
  return out;
}

Result<ColumnChunk> LpQuantize(const std::vector<double>& values,
                               QuantScheme scheme) {
  switch (scheme) {
    case QuantScheme::kNone:
      return ColumnChunk::FromDoubles(values, DType::kFloat64);
    case QuantScheme::kLp32:
      return ColumnChunk::FromDoubles(values, DType::kFloat32);
    case QuantScheme::kLp16:
      return ColumnChunk::FromDoubles(values, DType::kFloat16);
    default:
      return Status::InvalidArgument(
          "LpQuantize only handles kNone/kLp32/kLp16");
  }
}

}  // namespace mistique
