#include "diagnostics/queries.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace mistique {
namespace diagnostics {

std::vector<std::pair<uint64_t, double>> TopK(
    const std::vector<double>& column, size_t k) {
  std::vector<std::pair<uint64_t, double>> indexed;
  indexed.reserve(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    if (!std::isnan(column[i])) indexed.emplace_back(i, column[i]);
  }
  k = std::min(k, indexed.size());
  std::partial_sort(indexed.begin(),
                    indexed.begin() + static_cast<ptrdiff_t>(k),
                    indexed.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  indexed.resize(k);
  return indexed;
}

Histogram ComputeHistogram(const std::vector<double>& values, int bins) {
  Histogram h;
  h.counts.assign(static_cast<size_t>(std::max(bins, 1)), 0);
  bool first = true;
  for (double v : values) {
    if (std::isnan(v)) continue;
    if (first) {
      h.lo = h.hi = v;
      first = false;
    } else {
      h.lo = std::min(h.lo, v);
      h.hi = std::max(h.hi, v);
    }
  }
  if (first) return h;  // All NaN.
  const double span = std::max(h.hi - h.lo, 1e-300);
  for (double v : values) {
    if (std::isnan(v)) continue;
    auto bin = static_cast<size_t>((v - h.lo) / span *
                                   static_cast<double>(h.counts.size()));
    if (bin >= h.counts.size()) bin = h.counts.size() - 1;
    h.counts[bin]++;
  }
  return h;
}

std::vector<GroupMean> GroupedMeans(const std::vector<double>& values,
                                    const std::vector<double>& group_keys) {
  std::map<int64_t, std::pair<double, uint64_t>> acc;
  const size_t n = std::min(values.size(), group_keys.size());
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(values[i]) || std::isnan(group_keys[i])) continue;
    auto& slot = acc[static_cast<int64_t>(group_keys[i])];
    slot.first += values[i];
    slot.second++;
  }
  std::vector<GroupMean> out;
  out.reserve(acc.size());
  for (const auto& [group, sum_count] : acc) {
    out.push_back(GroupMean{group,
                            sum_count.first /
                                static_cast<double>(sum_count.second),
                            sum_count.second});
  }
  return out;
}

std::vector<double> RowDiff(const std::vector<std::vector<double>>& columns,
                            size_t row_a, size_t row_b) {
  std::vector<double> out(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    out[c] = columns[c][row_a] - columns[c][row_b];
  }
  return out;
}

std::vector<size_t> Knn(const std::vector<std::vector<double>>& columns,
                        size_t query_row, size_t k) {
  if (columns.empty()) return {};
  const size_t n = columns[0].size();
  std::vector<double> dist(n, 0.0);
  for (const auto& col : columns) {
    const double q = col[query_row];
    for (size_t i = 0; i < n; ++i) {
      const double d = col[i] - q;
      dist[i] += d * d;
    }
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  order.erase(std::remove(order.begin(), order.end(), query_row),
              order.end());
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(k),
                    order.end(), [&](size_t a, size_t b) {
                      if (dist[a] != dist[b]) return dist[a] < dist[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

double NeighbourOverlap(const std::vector<size_t>& a,
                        const std::vector<size_t>& b) {
  if (a.empty()) return b.empty() ? 1.0 : 0.0;
  size_t overlap = 0;
  for (size_t x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) overlap++;
  }
  return static_cast<double>(overlap) / static_cast<double>(a.size());
}

std::vector<double> MeanPerColumn(
    const std::vector<std::vector<double>>& columns) {
  std::vector<double> out(columns.size(), 0.0);
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].empty()) continue;
    double sum = 0;
    for (double v : columns[c]) sum += v;
    out[c] = sum / static_cast<double>(columns[c].size());
  }
  return out;
}

std::vector<std::vector<double>> MeanPerColumnByClass(
    const std::vector<std::vector<double>>& columns,
    const std::vector<int>& labels, int num_classes) {
  std::vector<std::vector<double>> out(
      static_cast<size_t>(num_classes),
      std::vector<double>(columns.size(), 0.0));
  std::vector<uint64_t> counts(static_cast<size_t>(num_classes), 0);
  const size_t n = labels.size();
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] < 0 || labels[i] >= num_classes) continue;
    counts[static_cast<size_t>(labels[i])]++;
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    for (size_t i = 0; i < std::min(n, columns[c].size()); ++i) {
      const int label = labels[i];
      if (label < 0 || label >= num_classes) continue;
      out[static_cast<size_t>(label)][c] += columns[c][i];
    }
  }
  for (int k = 0; k < num_classes; ++k) {
    if (counts[static_cast<size_t>(k)] == 0) continue;
    for (double& v : out[static_cast<size_t>(k)]) {
      v /= static_cast<double>(counts[static_cast<size_t>(k)]);
    }
  }
  return out;
}

Result<double> SvccaSimilarity(const std::vector<std::vector<double>>& a,
                               const std::vector<std::vector<double>>& b,
                               double variance_frac) {
  if (a.empty() || b.empty() || a[0].empty() || b[0].empty()) {
    return Status::InvalidArgument("SVCCA: empty activations");
  }
  if (a[0].size() != b[0].size()) {
    return Status::InvalidArgument("SVCCA: row count mismatch");
  }
  const size_t rows = a[0].size();

  const auto to_matrix = [rows](const std::vector<std::vector<double>>& cols) {
    Matrix m(rows, cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      for (size_t r = 0; r < rows; ++r) m.at(r, c) = cols[c][r];
    }
    m.CenterColumns();
    return m;
  };
  Matrix ma = to_matrix(a);
  Matrix mb = to_matrix(b);

  MISTIQUE_ASSIGN_OR_RETURN(Matrix pa, SvdProject(ma, variance_frac));
  MISTIQUE_ASSIGN_OR_RETURN(Matrix pb, SvdProject(mb, variance_frac));
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<double> rho, ComputeCca(pa, pb));
  if (rho.empty()) return Status::Internal("CCA returned no correlations");
  double mean = 0;
  for (double r : rho) mean += r;
  return mean / static_cast<double>(rho.size());
}

Result<NetDissectResult> NetDissect(
    const std::vector<std::vector<double>>& unit_maps,
    const std::vector<std::vector<uint8_t>>& concept_masks, double alpha) {
  if (unit_maps.empty() || unit_maps[0].empty()) {
    return Status::InvalidArgument("NetDissect: empty activations");
  }
  const size_t cells = unit_maps.size();
  const size_t images = unit_maps[0].size();
  if (concept_masks.size() != images) {
    return Status::InvalidArgument("NetDissect: mask count mismatch");
  }

  // T_k: (1 - alpha) percentile over the unit's full activation
  // distribution (all images, all cells).
  std::vector<double> all;
  all.reserve(cells * images);
  for (const auto& cell : unit_maps) {
    all.insert(all.end(), cell.begin(), cell.end());
  }
  std::sort(all.begin(), all.end());
  double pos = (1.0 - alpha) * static_cast<double>(all.size() - 1);
  if (pos < 0) pos = 0;
  const double threshold = all[static_cast<size_t>(pos)];

  uint64_t inter = 0, uni = 0;
  for (size_t img = 0; img < images; ++img) {
    if (concept_masks[img].size() != cells) {
      return Status::InvalidArgument("NetDissect: mask size mismatch");
    }
    for (size_t cell = 0; cell < cells; ++cell) {
      const bool act = unit_maps[cell][img] > threshold;
      const bool labeled = concept_masks[img][cell] != 0;
      if (act && labeled) inter++;
      if (act || labeled) uni++;
    }
  }
  NetDissectResult out;
  out.threshold = threshold;
  out.iou = uni == 0 ? 0.0
                     : static_cast<double>(inter) / static_cast<double>(uni);
  return out;
}

std::vector<std::vector<uint64_t>> ConfusionMatrix(
    const std::vector<int>& y_true, const std::vector<int>& y_pred,
    int num_classes) {
  std::vector<std::vector<uint64_t>> m(
      static_cast<size_t>(num_classes),
      std::vector<uint64_t>(static_cast<size_t>(num_classes), 0));
  const size_t n = std::min(y_true.size(), y_pred.size());
  for (size_t i = 0; i < n; ++i) {
    if (y_true[i] < 0 || y_true[i] >= num_classes || y_pred[i] < 0 ||
        y_pred[i] >= num_classes) {
      continue;
    }
    m[static_cast<size_t>(y_true[i])][static_cast<size_t>(y_pred[i])]++;
  }
  return m;
}

double MeanAbsError(const std::vector<double>& pred,
                    const std::vector<double>& target) {
  const size_t n = std::min(pred.size(), target.size());
  if (n == 0) return 0;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += std::abs(pred[i] - target[i]);
  return sum / static_cast<double>(n);
}

double MeanAbsDeviation(const std::vector<double>& a,
                        const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += std::abs(a[i] - b[i]);
  return sum / static_cast<double>(n);
}

namespace {
std::vector<double> Ranks(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(v.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) j++;
    const double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}
}  // namespace

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n < 2) return 1.0;
  std::vector<double> ra = Ranks(std::vector<double>(a.begin(), a.begin() + static_cast<ptrdiff_t>(n)));
  std::vector<double> rb = Ranks(std::vector<double>(b.begin(), b.begin() + static_cast<ptrdiff_t>(n)));
  double mean_a = 0, mean_b = 0;
  for (size_t i = 0; i < n; ++i) {
    mean_a += ra[i];
    mean_b += rb[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < n; ++i) {
    const double da = ra[i] - mean_a;
    const double db = rb[i] - mean_b;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va < 1e-12 || vb < 1e-12) return 1.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace diagnostics
}  // namespace mistique
