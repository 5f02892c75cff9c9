#include <cmath>

#include "common/random.h"
#include "diagnostics/queries.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace mistique {
namespace {

using namespace diagnostics;  // NOLINT: test-local convenience.

TEST(TopKTest, OrdersDescending) {
  const auto top = TopK({1.0, 5.0, 3.0, 5.0, -2.0}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 1u);  // Value 5, lower row id wins the tie.
  EXPECT_EQ(top[1].first, 3u);
  EXPECT_EQ(top[2].first, 2u);
}

TEST(TopKTest, SkipsNaNAndClampsK) {
  const double nan = std::nan("");
  const auto top = TopK({nan, 2.0, nan}, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, 1u);
}

TEST(HistogramTest, CountsBins) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i / 100.0);
  const Histogram h = ComputeHistogram(values, 10);
  EXPECT_NEAR(h.lo, 0.0, 1e-12);
  EXPECT_NEAR(h.hi, 0.99, 1e-12);
  uint64_t total = 0;
  for (uint64_t c : h.counts) {
    EXPECT_GE(c, 9u);
    EXPECT_LE(c, 11u);
    total += c;
  }
  EXPECT_EQ(total, 100u);
}

TEST(HistogramTest, AllNaNGivesEmpty) {
  const Histogram h = ComputeHistogram({std::nan(""), std::nan("")}, 4);
  for (uint64_t c : h.counts) EXPECT_EQ(c, 0u);
}

TEST(GroupedMeansTest, GroupsByIntegerKey) {
  const auto groups =
      GroupedMeans({1.0, 2.0, 3.0, 10.0}, {0.0, 1.0, 0.0, 1.0});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].group, 0);
  EXPECT_NEAR(groups[0].mean, 2.0, 1e-12);
  EXPECT_EQ(groups[0].count, 2u);
  EXPECT_NEAR(groups[1].mean, 6.0, 1e-12);
}

TEST(RowDiffTest, SubtractsRows) {
  const std::vector<std::vector<double>> cols = {{1, 4}, {2, 6}};
  EXPECT_EQ(RowDiff(cols, 1, 0), (std::vector<double>{3, 4}));
}

TEST(KnnTest, FindsNearestByL2) {
  // 1-D points: 0, 1, 10, 11, 0.5.
  const std::vector<std::vector<double>> cols = {{0, 1, 10, 11, 0.5}};
  const auto nn = Knn(cols, 0, 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0], 4u);  // 0.5 closest to 0.
  EXPECT_EQ(nn[1], 1u);
}

TEST(KnnTest, ExcludesQueryRow) {
  const std::vector<std::vector<double>> cols = {{0, 0, 5}};
  const auto nn = Knn(cols, 0, 3);
  for (size_t id : nn) EXPECT_NE(id, 0u);
}

TEST(NeighbourOverlapTest, FractionOfShared) {
  EXPECT_EQ(NeighbourOverlap({1, 2, 3, 4}, {3, 4, 5, 6}), 0.5);
  EXPECT_EQ(NeighbourOverlap({1}, {1}), 1.0);
  EXPECT_EQ(NeighbourOverlap({}, {}), 1.0);
}

TEST(MeanPerColumnTest, ComputesMeans) {
  const auto means = MeanPerColumn({{1, 3}, {10, 30}});
  EXPECT_EQ(means, (std::vector<double>{2, 20}));
}

TEST(MeanPerColumnByClassTest, SplitsByLabel) {
  const auto means =
      MeanPerColumnByClass({{1, 2, 3, 4}}, {0, 0, 1, 1}, 2);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_NEAR(means[0][0], 1.5, 1e-12);
  EXPECT_NEAR(means[1][0], 3.5, 1e-12);
}

TEST(SvccaTest, IdenticalRepresentationsScoreOne) {
  Rng rng(1);
  std::vector<std::vector<double>> a(5, std::vector<double>(100));
  for (auto& col : a) {
    for (double& v : col) v = rng.Gaussian();
  }
  ASSERT_OK_AND_ASSIGN(double sim, SvccaSimilarity(a, a));
  EXPECT_NEAR(sim, 1.0, 1e-6);
}

TEST(SvccaTest, LinearlyMixedRepresentationsScoreOne) {
  // b = linear mix of a's columns: same subspace, CCA = 1 everywhere.
  Rng rng(2);
  std::vector<std::vector<double>> a(4, std::vector<double>(150));
  for (auto& col : a) {
    for (double& v : col) v = rng.Gaussian();
  }
  std::vector<std::vector<double>> b(4, std::vector<double>(150));
  for (size_t j = 0; j < 4; ++j) {
    for (size_t i = 0; i < 150; ++i) {
      b[j][i] = a[(j + 1) % 4][i] * 2.0 - a[j][i] * 0.5;
    }
  }
  ASSERT_OK_AND_ASSIGN(double sim, SvccaSimilarity(a, b));
  EXPECT_GT(sim, 0.99);
}

TEST(SvccaTest, IndependentRepresentationsScoreLow) {
  Rng rng(3);
  std::vector<std::vector<double>> a(4, std::vector<double>(400));
  std::vector<std::vector<double>> b(4, std::vector<double>(400));
  for (auto& col : a) {
    for (double& v : col) v = rng.Gaussian();
  }
  for (auto& col : b) {
    for (double& v : col) v = rng.Gaussian();
  }
  ASSERT_OK_AND_ASSIGN(double sim, SvccaSimilarity(a, b));
  EXPECT_LT(sim, 0.3);
}

TEST(SvccaTest, RowMismatchRejected) {
  EXPECT_FALSE(SvccaSimilarity({{1, 2}}, {{1, 2, 3}}).ok());
  EXPECT_FALSE(SvccaSimilarity({}, {{1.0}}).ok());
}

TEST(NetDissectTest, PerfectlyAlignedConceptScoresHigh) {
  // Unit activates exactly on the concept cells of each image.
  const size_t cells = 16, images = 50;
  std::vector<std::vector<double>> maps(cells,
                                        std::vector<double>(images, 0.0));
  std::vector<std::vector<uint8_t>> masks(images,
                                          std::vector<uint8_t>(cells, 0));
  Rng rng(4);
  for (size_t img = 0; img < images; ++img) {
    for (size_t cell = 0; cell < cells; ++cell) {
      if (rng.Bernoulli(0.02)) {
        maps[cell][img] = 100.0;  // Strong activation.
        masks[img][cell] = 1;     // Concept present.
      } else {
        maps[cell][img] = rng.NextDouble();  // Background noise < 1.
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(NetDissectResult result,
                       NetDissect(maps, masks, 0.03));
  EXPECT_GT(result.iou, 0.5);
  // The threshold lands just below the strong activations: above the
  // background noise (which is < 1) or at the activation plateau.
  EXPECT_GT(result.threshold, 0.9);
}

TEST(NetDissectTest, UncorrelatedConceptScoresLow) {
  const size_t cells = 16, images = 50;
  std::vector<std::vector<double>> maps(cells, std::vector<double>(images));
  std::vector<std::vector<uint8_t>> masks(images,
                                          std::vector<uint8_t>(cells, 0));
  Rng rng(5);
  for (size_t img = 0; img < images; ++img) {
    for (size_t cell = 0; cell < cells; ++cell) {
      maps[cell][img] = rng.Gaussian();
      masks[img][cell] = rng.Bernoulli(0.1) ? 1 : 0;
    }
  }
  ASSERT_OK_AND_ASSIGN(NetDissectResult result,
                       NetDissect(maps, masks, 0.05));
  EXPECT_LT(result.iou, 0.15);
}

TEST(NetDissectTest, MaskMismatchRejected) {
  EXPECT_FALSE(NetDissect({{1.0}}, {}, 0.1).ok());
}

TEST(ConfusionMatrixTest, CountsPairs) {
  const auto m = ConfusionMatrix({0, 0, 1, 1}, {0, 1, 1, 1}, 2);
  EXPECT_EQ(m[0][0], 1u);
  EXPECT_EQ(m[0][1], 1u);
  EXPECT_EQ(m[1][1], 2u);
  EXPECT_EQ(m[1][0], 0u);
}

TEST(MetricsTest, MeanAbsErrorAndDeviation) {
  EXPECT_NEAR(MeanAbsError({1, 2}, {2, 4}), 1.5, 1e-12);
  EXPECT_NEAR(MeanAbsDeviation({1, 2}, {1, 2}), 0.0, 1e-12);
}

TEST(SpearmanTest, PerfectMonotoneIsOne) {
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0,
              1e-12);
  // Any monotone transform keeps rank correlation at 1.
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3, 4}, {1, 100, 101, 1000}), 1.0,
              1e-12);
}

TEST(SpearmanTest, ReversedIsMinusOne) {
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3}, {9, 5, 1}), -1.0, 1e-12);
}

TEST(SpearmanTest, TiesHandled) {
  const double rho = SpearmanCorrelation({1, 1, 2, 2}, {1, 1, 2, 2});
  EXPECT_NEAR(rho, 1.0, 1e-12);
}

TEST(ClassSensitivityTest, SeparableClassScoresHigh) {
  // Activations where column 0 encodes class 0 membership linearly.
  Rng rng(2);
  const size_t n = 300;
  std::vector<int> labels(n);
  std::vector<std::vector<double>> acts(5, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.NextBelow(3));
    acts[0][i] = (labels[i] == 0 ? 2.0 : -2.0) + 0.1 * rng.Gaussian();
    for (size_t c = 1; c < 5; ++c) acts[c][i] = rng.Gaussian();
  }
  ASSERT_OK_AND_ASSIGN(std::vector<double> sensitivity,
                       SvccaClassSensitivity(acts, labels, 3));
  ASSERT_EQ(sensitivity.size(), 3u);
  EXPECT_GT(sensitivity[0], 0.9);   // Class 0 is linearly decodable.
  EXPECT_LT(sensitivity[1], 0.95);  // Classes 1/2 only via the shared
  EXPECT_LT(sensitivity[2], 0.95);  // anti-signal, which is weaker.
}

TEST(ClassSensitivityTest, Validation) {
  EXPECT_FALSE(SvccaClassSensitivity({}, {}, 2).ok());
  EXPECT_FALSE(SvccaClassSensitivity({{1.0, 2.0}}, {0}, 2).ok());
}

}  // namespace
}  // namespace mistique
