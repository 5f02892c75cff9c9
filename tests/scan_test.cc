#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "core/mistique.h"
#include "gtest/gtest.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"
#include "obs/trace.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "scan/packed_view.h"
#include "scan/scan_kernels.h"
#include "storage/column_chunk.h"
#include "test_util.h"

namespace mistique {
namespace {

class ScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("scan");
    ZillowConfig config;
    config.num_properties = 600;
    config.num_train = 450;
    config.num_test = 150;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));
  }

  MistiqueOptions Options(StorageStrategy strategy) {
    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store" + std::to_string(n_++);
    opts.strategy = strategy;
    opts.row_block_size = 64;
    return opts;
  }

  ScanRequest BaseScan() {
    ScanRequest req;
    req.project = "zillow";
    req.model = "P1_v0";
    req.intermediate = "train_merged";
    req.predicate_column = "yearbuilt";
    return req;
  }

  std::unique_ptr<TempDir> dir_;
  int n_ = 0;
};

TEST_F(ScanTest, MatchesBruteForceFilter) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  ASSERT_OK(mq.Flush());

  ScanRequest req = BaseScan();
  req.lo = 1950;
  req.hi = 1970;
  req.columns = {"taxamount"};
  ASSERT_OK_AND_ASSIGN(ScanResult scan, mq.Scan(req));

  // Brute force over the full fetch.
  FetchRequest full;
  full.project = "zillow";
  full.model = "P1_v0";
  full.intermediate = "train_merged";
  full.columns = {"yearbuilt", "taxamount"};
  ASSERT_OK_AND_ASSIGN(FetchResult all, mq.Fetch(full));
  std::vector<uint64_t> expect_rows;
  std::vector<double> expect_tax;
  for (size_t i = 0; i < all.columns[0].size(); ++i) {
    const double v = all.columns[0][i];
    if (!std::isnan(v) && v >= 1950 && v <= 1970) {
      expect_rows.push_back(i);
      expect_tax.push_back(all.columns[1][i]);
    }
  }
  EXPECT_EQ(scan.row_ids, expect_rows);
  ASSERT_EQ(scan.columns.size(), 1u);
  EXPECT_EQ(scan.columns[0], expect_tax);
  EXPECT_FALSE(scan.row_ids.empty());
}

TEST_F(ScanTest, ZoneMapsPruneBlocks) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());

  // parcelid is monotonically distributed across the properties frame, so
  // a narrow parcelid range prunes most blocks.
  ScanRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "properties";
  req.predicate_column = "parcelid";
  req.lo = 10000010;
  req.hi = 10000030;
  ASSERT_OK_AND_ASSIGN(ScanResult scan, mq.Scan(req));
  EXPECT_EQ(scan.row_ids.size(), 21u);
  EXPECT_GT(scan.blocks_pruned, 0u);
  EXPECT_LT(scan.blocks_scanned, scan.blocks_pruned);
  EXPECT_EQ(scan.blocks_scanned + scan.blocks_pruned,
            (600 + 63) / 64);  // All blocks accounted for.
}

TEST_F(ScanTest, EmptyRangeAndValidation) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());

  ScanRequest req = BaseScan();
  req.lo = 5000;  // No home built in year 5000.
  req.hi = 6000;
  req.columns = {"taxamount"};
  ASSERT_OK_AND_ASSIGN(ScanResult scan, mq.Scan(req));
  EXPECT_TRUE(scan.row_ids.empty());
  EXPECT_EQ(scan.columns.size(), 1u);
  EXPECT_TRUE(scan.columns[0].empty());

  req.lo = 10;
  req.hi = 5;
  EXPECT_EQ(mq.Scan(req).status().code(), StatusCode::kInvalidArgument);

  req = BaseScan();
  req.predicate_column = "ghost";
  EXPECT_EQ(mq.Scan(req).status().code(), StatusCode::kNotFound);
}

TEST_F(ScanTest, UnmaterializedFallsBackToRerun) {
  Mistique mq;
  MistiqueOptions opts = Options(StorageStrategy::kAdaptive);
  opts.gamma_min = 1e18;
  ASSERT_OK(mq.Open(opts));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());

  ScanRequest req = BaseScan();
  req.lo = 1950;
  req.hi = 1970;
  ASSERT_OK_AND_ASSIGN(ScanResult scan, mq.Scan(req));
  EXPECT_FALSE(scan.row_ids.empty());
  EXPECT_EQ(scan.blocks_pruned, 0u);  // No zone maps without storage.
}

TEST_F(ScanTest, NeuronActivationScanOnDnn) {
  // The paper's example: find examples whose neuron activation exceeds a
  // threshold, on a quantized (8BIT_QT) store — the predicate evaluates
  // on reconstructed values.
  CifarConfig config;
  config.num_examples = 128;
  const CifarData data = GenerateCifar(config);
  auto input = std::make_shared<Tensor>(data.images);

  Mistique mq;
  MistiqueOptions opts = Options(StorageStrategy::kDedup);
  opts.dnn_scheme = QuantScheme::kKBit;
  ASSERT_OK(mq.Open(opts));
  DnnScaleConfig scale;
  scale.cnn_scale = 0.2;
  auto net = BuildCifarCnn(scale);
  ASSERT_OK(mq.LogNetwork(net.get(), input, "cifar", "cnn").status());
  ASSERT_OK(mq.Flush());

  // Pick a live neuron from fc1 and scan for its top activations.
  FetchRequest probe;
  probe.project = "cifar";
  probe.model = "cnn";
  probe.intermediate = "layer7";
  ASSERT_OK_AND_ASSIGN(FetchResult fc1, mq.Fetch(probe));
  size_t busiest = 0;
  double best_max = -1;
  for (size_t n = 0; n < fc1.columns.size(); ++n) {
    const double mx = *std::max_element(fc1.columns[n].begin(),
                                        fc1.columns[n].end());
    if (mx > best_max) {
      best_max = mx;
      busiest = n;
    }
  }
  ASSERT_GT(best_max, 0);

  ScanRequest req;
  req.project = "cifar";
  req.model = "cnn";
  req.intermediate = "layer7";
  req.predicate_column = "n" + std::to_string(busiest);
  req.lo = best_max * 0.5;
  ASSERT_OK_AND_ASSIGN(ScanResult scan, mq.Scan(req));
  EXPECT_FALSE(scan.row_ids.empty());
  // Every returned row's (reconstructed) activation satisfies the bound.
  for (uint64_t row : scan.row_ids) {
    EXPECT_GE(fc1.columns[busiest][row], req.lo);
  }
}

// ---------------------------------------------------------------------
// Kernel-level properties: packed kernels vs naive per-field evaluation.
// ---------------------------------------------------------------------

TEST(ScanKernelsTest, PackedViewQualification) {
  // kPackedW (any k<8), kUInt8, and kBit qualify; float chunks keep the
  // decode path.
  const std::vector<uint8_t> bins = {0, 1, 2, 3, 3, 2, 1, 0, 1};
  for (int bits = 1; bits <= 7; ++bits) {
    std::vector<uint8_t> fit(bins.size());
    const uint8_t max_bin = static_cast<uint8_t>((1u << bits) - 1);
    for (size_t i = 0; i < bins.size(); ++i)
      fit[i] = std::min(bins[i], max_bin);
    const ColumnChunk wchunk = ColumnChunk::FromPackedWords(fit, bits);
    EXPECT_EQ(wchunk.dtype(), DType::kPackedW);
    EXPECT_TRUE(scan::PackedView::Qualifies(wchunk)) << bits;
    auto view = scan::PackedView::Of(wchunk);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->bits, static_cast<unsigned>(bits));
    EXPECT_EQ(view->n, fit.size());
    for (size_t i = 0; i < fit.size(); ++i) EXPECT_EQ(view->Get(i), fit[i]);
  }
  EXPECT_TRUE(scan::PackedView::Qualifies(ColumnChunk::FromBins(bins)));
  EXPECT_TRUE(scan::PackedView::Qualifies(
      ColumnChunk::FromBits({true, false, true})));
  EXPECT_FALSE(scan::PackedView::Qualifies(
      ColumnChunk::FromDoubles({1.0, 2.0})));
}

TEST(ScanKernelsTest, RandomizedKernelsMatchNaive) {
  TestSeed seed(20260808);
  Rng rng(seed.value());
  // Widths 1..8, random lengths including empty, word-multiple, and
  // ragged tails; random and degenerate (constant) payloads.
  for (int bits = 1; bits <= 8; ++bits) {
    const uint64_t max_bin = (1ull << bits) - 1;
    const size_t per_word = 64 / bits;
    for (int trial = 0; trial < 40; ++trial) {
      size_t n;
      switch (trial % 4) {
        case 0: n = rng.NextBelow(300); break;
        case 1: n = per_word * (1 + rng.NextBelow(4)); break;  // exact words
        case 2: n = per_word * (1 + rng.NextBelow(4)) + 1; break;  // ragged
        case 3: n = 1 + rng.NextBelow(3); break;  // sub-word
      }
      std::vector<uint8_t> bins(n);
      const bool constant = trial % 5 == 0;  // min==max zone-map shape
      const uint8_t fill = static_cast<uint8_t>(rng.NextBelow(max_bin + 1));
      for (uint8_t& b : bins) {
        b = constant ? fill
                     : static_cast<uint8_t>(rng.NextBelow(max_bin + 1));
      }
      const ColumnChunk chunk =
          bits == 8 ? ColumnChunk::FromBins(bins)
                    : ColumnChunk::FromPackedWords(bins, bits);
      auto view = scan::PackedView::Of(chunk);
      ASSERT_TRUE(view.has_value());
      const uint64_t base = rng.NextBelow(1 << 20);

      // POINTQ: random range plus the edge ranges.
      const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
          {rng.NextBelow(max_bin + 1), rng.NextBelow(max_bin + 1)},
          {0, max_bin},          // none filtered
          {max_bin, max_bin},    // top bin only
          {0, 0},                // bottom bin only
          {max_bin, 0},          // empty (lo > hi)
      };
      for (const auto& [lo, hi] : ranges) {
        std::vector<uint64_t> got;
        scan::CmpPacked(*view, lo, hi, base, &got);
        std::vector<uint64_t> want;
        for (size_t i = 0; i < n; ++i) {
          if (bins[i] >= lo && bins[i] <= hi) want.push_back(base + i);
        }
        ASSERT_EQ(got, want) << "bits=" << bits << " lo=" << lo
                             << " hi=" << hi << " n=" << n;
      }

      // TOPK vs sorting (bin desc, row asc).
      const size_t k = 1 + rng.NextBelow(8);
      scan::TopKAccumulator acc(k);
      scan::TopKPacked(*view, base, &acc);
      std::vector<scan::TopKAccumulator::Entry> got = acc.Take();
      std::vector<std::pair<uint64_t, uint64_t>> ref;
      for (size_t i = 0; i < n; ++i) ref.push_back({bins[i], base + i});
      std::sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      });
      ref.resize(std::min(ref.size(), k));
      ASSERT_EQ(got.size(), ref.size()) << "bits=" << bits << " n=" << n;
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i].bin, ref[i].first) << "bits=" << bits << " i=" << i;
        ASSERT_EQ(got[i].row, ref[i].second) << "bits=" << bits << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Engine-level properties: packed Scan/Fetch byte-identical to the
// decode oracle across quantization schemes and bit widths.
// ---------------------------------------------------------------------

class PackedScanTest : public ::testing::Test {
 protected:
  /// Builds a quantized CIFAR CNN store and returns the engine.
  void OpenQuantized(Mistique* mq, QuantScheme scheme, int kbits) {
    dirs_.push_back(std::make_unique<TempDir>("packed_scan"));
    CifarConfig config;
    config.num_examples = 130;  // not a multiple of the row block: ragged
    const CifarData data = GenerateCifar(config);
    auto input = std::make_shared<Tensor>(data.images);
    MistiqueOptions opts;
    opts.store.directory = dirs_.back()->path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 32;
    opts.dnn_scheme = scheme;
    opts.kbits = kbits;
    ASSERT_OK(mq->Open(opts));
    DnnScaleConfig scale;
    scale.cnn_scale = 0.2;
    auto net = BuildCifarCnn(scale);
    ASSERT_OK(mq->LogNetwork(net.get(), input, "cifar", "cnn").status());
    ASSERT_OK(mq->Flush());
  }

  std::vector<std::unique_ptr<TempDir>> dirs_;
};

TEST_F(PackedScanTest, ScanMatchesDecodeOracleAcrossSchemes) {
  TestSeed seed(20260809);
  struct Case {
    QuantScheme scheme;
    int kbits;
  };
  // Every packed width class: 1-bit bitmap, sub-byte kPackedW, full byte.
  const std::vector<Case> cases = {{QuantScheme::kKBit, 1},
                                   {QuantScheme::kKBit, 2},
                                   {QuantScheme::kKBit, 5},
                                   {QuantScheme::kKBit, 8},
                                   {QuantScheme::kThreshold, 8}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "scheme=" << static_cast<int>(c.scheme)
                 << " kbits=" << c.kbits);
    Mistique mq;
    OpenQuantized(&mq, c.scheme, c.kbits);

    // Oracle: the full reconstructed fetch (decode path).
    FetchRequest full;
    full.project = "cifar";
    full.model = "cnn";
    full.intermediate = "layer7";
    ASSERT_OK_AND_ASSIGN(FetchResult all, mq.Fetch(full));
    ASSERT_FALSE(all.columns.empty());

    Rng rng(seed.value() + c.kbits +
            static_cast<uint64_t>(c.scheme) * 100);
    for (int trial = 0; trial < 10; ++trial) {
      // A predicate anchored at observed values hits real bin edges.
      const size_t col = rng.NextBelow(all.columns.size());
      const std::vector<double>& vals = all.columns[col];
      const double a = vals[rng.NextBelow(vals.size())];
      const double b = vals[rng.NextBelow(vals.size())];
      ScanRequest req;
      req.project = "cifar";
      req.model = "cnn";
      req.intermediate = "layer7";
      req.predicate_column = "n" + std::to_string(col);
      req.lo = std::min(a, b);
      req.hi = std::max(a, b);
      ASSERT_OK_AND_ASSIGN(ScanResult scan, mq.Scan(req));
      std::vector<uint64_t> want;
      for (size_t i = 0; i < vals.size(); ++i) {
        if (vals[i] >= req.lo && vals[i] <= req.hi) want.push_back(i);
      }
      ASSERT_EQ(scan.row_ids, want) << "trial " << trial;
      ASSERT_FALSE(scan.row_ids.empty());  // anchored: >= 1 match
      // All blocks accounted for: pruning only ever skips work.
      EXPECT_EQ(scan.blocks_scanned + scan.blocks_pruned, (130 + 31) / 32);

      // Row-subset fetch (packed gather) vs the bulk decode oracle.
      FetchRequest sub = full;
      sub.row_ids = scan.row_ids;
      ASSERT_OK_AND_ASSIGN(FetchResult picked, mq.Fetch(sub));
      ASSERT_EQ(picked.columns.size(), all.columns.size());
      for (size_t cc = 0; cc < all.columns.size(); ++cc) {
        ASSERT_EQ(picked.columns[cc].size(), scan.row_ids.size());
        for (size_t r = 0; r < scan.row_ids.size(); ++r) {
          ASSERT_EQ(picked.columns[cc][r], all.columns[cc][scan.row_ids[r]])
              << "col " << cc << " row " << scan.row_ids[r];
        }
      }
    }

    // Zone-map edges: a range beyond every value prunes every block; the
    // full value range prunes none.
    const std::vector<double>& c0 = all.columns[0];
    const double vmax =
        *std::max_element(c0.begin(), c0.end());
    ScanRequest none;
    none.project = "cifar";
    none.model = "cnn";
    none.intermediate = "layer7";
    none.predicate_column = "n0";
    none.lo = vmax + 1.0;
    none.hi = vmax + 2.0;
    ASSERT_OK_AND_ASSIGN(ScanResult pruned, mq.Scan(none));
    EXPECT_TRUE(pruned.row_ids.empty());
    EXPECT_EQ(pruned.blocks_scanned, 0u);
    EXPECT_EQ(pruned.blocks_pruned, (130u + 31) / 32);

    ScanRequest everything = none;
    everything.lo = -1e30;
    everything.hi = 1e30;
    ASSERT_OK_AND_ASSIGN(ScanResult open, mq.Scan(everything));
    EXPECT_EQ(open.row_ids.size(), 130u);
    EXPECT_EQ(open.blocks_pruned, 0u);
  }
}

TEST_F(PackedScanTest, QuantizedImportScansPacked) {
  // ImportModel's opt-in quantization (the soak harness seed path):
  // imported KBIT columns must qualify for packed scanning, and the scan
  // must equal filtering the reconstructed fetch.
  TestSeed seed(20260810);
  Rng rng(seed.value());
  TempDir dir("quant_import");
  MistiqueOptions opts;
  opts.store.directory = dir.path() + "/store";
  opts.strategy = StorageStrategy::kDedup;
  opts.row_block_size = 32;
  Mistique mq;
  ASSERT_OK(mq.Open(opts));

  ImportIntermediate interm;
  interm.name = "pred";
  interm.stage_index = 1;
  interm.num_rows = 100;
  interm.column_names = {"pred"};
  interm.columns.resize(1);
  for (uint64_t r = 0; r < 100; ++r) {
    interm.columns[0].push_back(rng.Gaussian());
  }
  const std::vector<double> raw = interm.columns[0];
  interm.scheme = QuantScheme::kKBit;
  interm.kbits = 3;
  ASSERT_OK(mq.ImportModel("soak", "q1", {interm}).status());
  ASSERT_OK(mq.Flush());

  FetchRequest full;
  full.project = "soak";
  full.model = "q1";
  full.intermediate = "pred";
  ASSERT_OK_AND_ASSIGN(FetchResult fetched, mq.Fetch(full));
  ASSERT_EQ(fetched.columns.size(), 1u);
  const std::vector<double>& vals = fetched.columns[0];
  // Lossy but on at most 2^3 centers.
  std::vector<double> distinct(vals);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_LE(distinct.size(), 8u);
  EXPECT_NE(vals, raw);

  obs::QueryTrace trace(2, "soak.q1.pred");
  ScanRequest req;
  req.project = "soak";
  req.model = "q1";
  req.intermediate = "pred";
  req.predicate_column = "pred";
  req.lo = distinct.front();
  req.hi = distinct[distinct.size() / 2];
  Result<ScanResult> scan = [&] {
    obs::TraceScope scope(&trace);
    return mq.Scan(req);
  }();
  ASSERT_OK(scan.status());
  std::vector<uint64_t> want;
  for (uint64_t r = 0; r < 100; ++r) {
    if (vals[r] >= req.lo && vals[r] <= req.hi) want.push_back(r);
  }
  EXPECT_EQ(scan->row_ids, want);
  EXPECT_GT(trace.StageSeconds("scan_packed"), 0.0);
}

TEST_F(PackedScanTest, TraceShowsScanPackedStage) {
  Mistique mq;
  OpenQuantized(&mq, QuantScheme::kKBit, 4);
  ScanRequest req;
  req.project = "cifar";
  req.model = "cnn";
  req.intermediate = "layer7";
  req.predicate_column = "n0";
  req.lo = -1e30;
  req.hi = 1e30;
  obs::QueryTrace trace(1, "cifar.cnn.layer7");
  {
    obs::TraceScope scope(&trace);
    ASSERT_OK(mq.Scan(req).status());
  }
  // The packed kernels ran; nothing fell back to decode-and-filter.
  EXPECT_GT(trace.StageSeconds("scan_packed"), 0.0);
  EXPECT_EQ(trace.StageSeconds("scan_decode"), 0.0);
}

}  // namespace
}  // namespace mistique
