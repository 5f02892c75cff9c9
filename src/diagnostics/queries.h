#ifndef MISTIQUE_DIAGNOSTICS_QUERIES_H_
#define MISTIQUE_DIAGNOSTICS_QUERIES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace mistique {

/// Analytic functions applied on top of fetched intermediates — the
/// diagnostic-technique library of Table 1/5. All take column-major data
/// (as returned by Mistique::Fetch) and are storage-agnostic.
namespace diagnostics {

/// TOPK: row ids of the k largest values in `column`, descending. Ties
/// break toward the lower row id.
std::vector<std::pair<uint64_t, double>> TopK(
    const std::vector<double>& column, size_t k);

/// COL_DIST: equi-width histogram of a column (NaNs skipped).
struct Histogram {
  double lo = 0;
  double hi = 0;
  std::vector<uint64_t> counts;
};
Histogram ComputeHistogram(const std::vector<double>& values, int bins);

/// COL_DIFF: per-group mean of `values` grouped by integer group keys.
/// Returns (group, mean, count) sorted by group.
struct GroupMean {
  int64_t group;
  double mean;
  uint64_t count;
};
std::vector<GroupMean> GroupedMeans(const std::vector<double>& values,
                                    const std::vector<double>& group_keys);

/// ROW_DIFF: elementwise difference between two rows across columns.
std::vector<double> RowDiff(const std::vector<std::vector<double>>& columns,
                            size_t row_a, size_t row_b);

/// KNN: the k nearest rows to `query_row` by L2 distance over the given
/// columns (the query row itself is excluded), nearest first.
std::vector<size_t> Knn(const std::vector<std::vector<double>>& columns,
                        size_t query_row, size_t k);

/// Fraction of overlap between two neighbour sets (Table 3's metric).
double NeighbourOverlap(const std::vector<size_t>& a,
                        const std::vector<size_t>& b);

/// VIS: mean value of every column (the ActiVis-style heatmap cell values).
std::vector<double> MeanPerColumn(
    const std::vector<std::vector<double>>& columns);

/// VIS grouped by class: [class][column] mean activation.
std::vector<std::vector<double>> MeanPerColumnByClass(
    const std::vector<std::vector<double>>& columns,
    const std::vector<int>& labels, int num_classes);

/// SVCCA (Alg. 1): SVD both activation sets to `variance_frac` energy, run
/// CCA on the projections, return the mean canonical correlation.
Result<double> SvccaSimilarity(const std::vector<std::vector<double>>& a,
                               const std::vector<std::vector<double>>& b,
                               double variance_frac = 0.99);

/// Netdissect (Alg. 2): thresholds unit activations at the (1-alpha)
/// percentile, binarizes the maps, and scores intersection-over-union
/// against per-image binary concept masks.
///
/// `unit_maps` is column-major [cell][image] over the unit's H*W cells;
/// `concept_masks` is [image][cell] binary.
struct NetDissectResult {
  double threshold = 0;
  double iou = 0;
};
Result<NetDissectResult> NetDissect(
    const std::vector<std::vector<double>>& unit_maps,
    const std::vector<std::vector<uint8_t>>& concept_masks,
    double alpha = 0.005);

/// Confusion matrix [true][pred] for integer class predictions.
std::vector<std::vector<uint64_t>> ConfusionMatrix(
    const std::vector<int>& y_true, const std::vector<int>& y_pred,
    int num_classes);

/// Mean absolute error (the Zestimate competition metric).
double MeanAbsError(const std::vector<double>& pred,
                    const std::vector<double>& target);

/// Heatmap comparison metrics used by the Fig. 9 quantization study:
/// mean absolute deviation and Spearman rank correlation between two
/// equally-sized heatmaps.
double MeanAbsDeviation(const std::vector<double>& a,
                        const std::vector<double>& b);
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

}  // namespace diagnostics
}  // namespace mistique

#endif  // MISTIQUE_DIAGNOSTICS_QUERIES_H_
