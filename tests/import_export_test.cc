#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/mistique.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace mistique {
namespace {

// Direct coverage for the rebalance ingest/egress pair: ImportModel's
// validation and rollback paths and ExportCatalog's snapshot contents
// (docs/CLUSTER.md). The happy byte-identity path also lives in
// cluster_test.cc as part of the rebalance flow.

std::vector<ImportIntermediate> TwoColumnModel(int model_index,
                                               uint64_t rows = 48) {
  ImportIntermediate interm;
  interm.name = "pred";
  interm.stage_index = 1;
  interm.num_rows = rows;
  interm.column_names = {"pred", "score"};
  interm.columns.resize(2);
  for (uint64_t r = 0; r < rows; ++r) {
    interm.columns[0].push_back(model_index * 1000.0 + r * 0.25);
    interm.columns[1].push_back(std::sin(model_index + 0.1 * r));
  }
  return {interm};
}

class ImportExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("mq_import");
    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.row_block_size = 32;
    ASSERT_OK(mq_.Open(opts));
  }

  std::unique_ptr<TempDir> dir_;
  Mistique mq_;
};

TEST_F(ImportExportTest, RejectsColumnNameCountMismatch) {
  std::vector<ImportIntermediate> bad = TwoColumnModel(1);
  bad[0].column_names.pop_back();  // two columns, one name
  Status status = mq_.ImportModel("proj", "m1", bad).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Validation failed before staging: no catalog entry, no epoch bump.
  EXPECT_TRUE(mq_.ExportCatalog().models.empty());
  FetchRequest req;
  req.project = "proj";
  req.model = "m1";
  req.intermediate = "pred";
  EXPECT_EQ(mq_.Fetch(req).status().code(), StatusCode::kNotFound);
}

TEST_F(ImportExportTest, RejectsRowCountMismatch) {
  std::vector<ImportIntermediate> bad = TwoColumnModel(1);
  bad[0].columns[1].pop_back();  // declares 48 rows, column holds 47
  EXPECT_EQ(mq_.ImportModel("proj", "m1", bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(mq_.ExportCatalog().models.empty());
}

TEST_F(ImportExportTest, DuplicateNameFailsAndRollsBack) {
  ASSERT_OK(mq_.ImportModel("proj", "m1", TwoColumnModel(1)).status());
  const uint64_t epoch = mq_.CurrentEpoch();
  const uint64_t footprint = mq_.StorageFootprintBytes();

  EXPECT_EQ(mq_.ImportModel("proj", "m1", TwoColumnModel(2)).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(mq_.CurrentEpoch(), epoch);
  EXPECT_EQ(mq_.ExportCatalog().models.size(), 1u);

  // The first import's data is untouched by the failed second attempt.
  FetchRequest req;
  req.project = "proj";
  req.model = "m1";
  req.intermediate = "pred";
  ASSERT_OK_AND_ASSIGN(FetchResult result, mq_.Fetch(req));
  ASSERT_EQ(result.columns.size(), 2u);
  for (uint64_t r = 0; r < 48; ++r) {
    EXPECT_EQ(result.columns[0][r], 1000.0 + r * 0.25) << r;
  }

  // A different name still imports fine after the rollback.
  ASSERT_OK(mq_.ImportModel("proj", "m2", TwoColumnModel(2)).status());
  EXPECT_GT(mq_.CurrentEpoch(), epoch);
  EXPECT_GE(mq_.StorageFootprintBytes(), footprint);
}

TEST_F(ImportExportTest, SameNameDifferentProjectIsAllowed) {
  ASSERT_OK(mq_.ImportModel("proj_a", "m1", TwoColumnModel(1)).status());
  ASSERT_OK(mq_.ImportModel("proj_b", "m1", TwoColumnModel(2)).status());
  EXPECT_EQ(mq_.ExportCatalog().models.size(), 2u);
}

TEST_F(ImportExportTest, EmptyIntermediateListImportsEmptyModel) {
  // An intermediate-free model is legal (the shape a rebalance source with
  // zero logged stages would stream); it exports and fetches accordingly.
  ASSERT_OK(mq_.ImportModel("proj", "hollow", {}).status());
  CatalogSummary catalog = mq_.ExportCatalog();
  ASSERT_EQ(catalog.models.size(), 1u);
  EXPECT_TRUE(catalog.models[0].intermediates.empty());
  FetchRequest req;
  req.project = "proj";
  req.model = "hollow";
  req.intermediate = "pred";
  EXPECT_EQ(mq_.Fetch(req).status().code(), StatusCode::kNotFound);
}

TEST_F(ImportExportTest, ExportCatalogReflectsShapeInRegistrationOrder) {
  EXPECT_TRUE(mq_.ExportCatalog().models.empty());

  ASSERT_OK(mq_.ImportModel("proj", "m2", TwoColumnModel(2, 16)).status());
  ASSERT_OK(mq_.ImportModel("proj", "m1", TwoColumnModel(1, 24)).status());

  CatalogSummary catalog = mq_.ExportCatalog();
  ASSERT_EQ(catalog.models.size(), 2u);
  EXPECT_EQ(catalog.models[0].name, "m2");
  EXPECT_EQ(catalog.models[1].name, "m1");
  for (const CatalogSummary::Model& model : catalog.models) {
    EXPECT_EQ(model.project, "proj");
    EXPECT_EQ(model.kind, ModelKind::kTrad);
    ASSERT_EQ(model.intermediates.size(), 1u);
    const CatalogSummary::Intermediate& interm = model.intermediates[0];
    EXPECT_EQ(interm.name, "pred");
    EXPECT_EQ(interm.stage_index, 1);
    ASSERT_EQ(interm.columns.size(), 2u);
    EXPECT_EQ(interm.columns[0], "pred");
    EXPECT_EQ(interm.columns[1], "score");
  }
  EXPECT_EQ(catalog.models[0].intermediates[0].num_rows, 16u);
  EXPECT_EQ(catalog.models[1].intermediates[0].num_rows, 24u);
}

TEST_F(ImportExportTest, ExportThenImportRoundTripsByteIdentical) {
  // The rebalance flow end to end at the API level: export the shape,
  // fetch every column, import into a second store, compare.
  ASSERT_OK(mq_.ImportModel("proj", "m1", TwoColumnModel(1)).status());
  CatalogSummary catalog = mq_.ExportCatalog();
  ASSERT_EQ(catalog.models.size(), 1u);

  Mistique other;
  MistiqueOptions opts;
  opts.store.directory = dir_->path() + "/other";
  opts.row_block_size = 32;
  ASSERT_OK(other.Open(opts));

  for (const CatalogSummary::Model& model : catalog.models) {
    std::vector<ImportIntermediate> payload;
    for (const CatalogSummary::Intermediate& shape : model.intermediates) {
      FetchRequest req;
      req.project = model.project;
      req.model = model.name;
      req.intermediate = shape.name;
      ASSERT_OK_AND_ASSIGN(FetchResult fetched, mq_.Fetch(req));
      ImportIntermediate in;
      in.name = shape.name;
      in.stage_index = shape.stage_index;
      in.num_rows = shape.num_rows;
      in.column_names = fetched.column_names;
      in.columns = fetched.columns;
      payload.push_back(std::move(in));
    }
    ASSERT_OK(other.ImportModel(model.project, model.name, payload).status());
  }

  FetchRequest req;
  req.project = "proj";
  req.model = "m1";
  req.intermediate = "pred";
  ASSERT_OK_AND_ASSIGN(FetchResult source, mq_.Fetch(req));
  ASSERT_OK_AND_ASSIGN(FetchResult copy, other.Fetch(req));
  ASSERT_EQ(source.columns.size(), copy.columns.size());
  for (size_t c = 0; c < source.columns.size(); ++c) {
    ASSERT_EQ(source.columns[c].size(), copy.columns[c].size());
    for (size_t r = 0; r < source.columns[c].size(); ++r) {
      EXPECT_EQ(source.columns[c][r], copy.columns[c][r]) << c << "," << r;
    }
  }
}

// A 16 x 4096 KBIT intermediate whose chunks are all distinct, so exact
// dedup stores every one of them.
ImportIntermediate KBitIntermediate(const std::string& name, double phase) {
  const uint64_t rows = 4096;
  ImportIntermediate in;
  in.name = name;
  in.num_rows = rows;
  in.scheme = QuantScheme::kKBit;
  in.kbits = 8;
  for (int c = 0; c < 16; ++c) {
    in.column_names.push_back("n" + std::to_string(c));
    std::vector<double> column(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      column[r] = std::sin(phase + 0.37 * c + 0.011 * r) * (1.0 + c);
    }
    in.columns.push_back(std::move(column));
  }
  return in;
}

// Imports `models` into a fresh store (512-row blocks, sync writes on)
// and returns the partition files the imports sealed.
size_t PartitionFilesSealed(const TempDir& dir, const std::string& store,
                            size_t target_bytes,
                            const std::vector<std::vector<ImportIntermediate>>&
                                models) {
  Mistique mq;
  MistiqueOptions opts;
  opts.store.directory = dir.path() + "/" + store;
  opts.store.partition_target_bytes = target_bytes;
  opts.row_block_size = 512;
  EXPECT_OK(mq.Open(opts));
  const size_t before = mq.store().disk().num_partitions();
  for (size_t m = 0; m < models.size(); ++m) {
    EXPECT_OK(
        mq.ImportModel("proj", "m" + std::to_string(m), models[m]).status());
  }
  return mq.store().disk().num_partitions() - before;
}

TEST(ImportPlacementTest, OnePartitionPerIntermediateNotPerChunk) {
  // 16 columns x 4096 rows in 512-row blocks: 128 one-byte-per-value
  // chunks of 512 B, 64 KB in all. Each intermediate fills its own open
  // partition; no chunk goes through the similarity search.
  TempDir dir("import_placement");
  const size_t kMB = 1u << 20;
  EXPECT_EQ(PartitionFilesSealed(dir, "one", kMB,
                                 {{KBitIntermediate("layer", 0.0)}}),
            1u);
  // Larger than the target: sealed every 20,000 B (40 chunks), so
  // ceil(65,536 / 20,000) = 4 files.
  EXPECT_EQ(PartitionFilesSealed(dir, "split", 20000,
                                 {{KBitIntermediate("layer", 0.0)}}),
            4u);
  EXPECT_EQ(PartitionFilesSealed(dir, "two", kMB,
                                 {{KBitIntermediate("a", 0.0),
                                   KBitIntermediate("b", 1.0)}}),
            2u);
  // Exact dedup still applies: a second model with the same values stores
  // no chunk and seals no file.
  EXPECT_EQ(PartitionFilesSealed(dir, "dup", kMB,
                                 {{KBitIntermediate("layer", 0.0)},
                                  {KBitIntermediate("layer", 0.0)}}),
            1u);
}

TEST(ImportPlacementTest, ValuesSurviveSplitAcrossPartitions) {
  // Full precision, 8 B a value: 512 KB sealed every 20,000 B, so each
  // column's chunks span several partitions. Every value comes back exact.
  TempDir dir("import_values");
  Mistique mq;
  MistiqueOptions opts;
  opts.store.directory = dir.path() + "/store";
  opts.store.partition_target_bytes = 20000;
  opts.row_block_size = 512;
  ASSERT_OK(mq.Open(opts));
  ImportIntermediate in = KBitIntermediate("layer", 0.0);
  in.scheme = QuantScheme::kNone;
  ASSERT_OK(mq.ImportModel("proj", "m", {in}).status());
  EXPECT_GT(mq.store().disk().num_partitions(), 16u);

  FetchRequest req;
  req.project = "proj";
  req.model = "m";
  req.intermediate = "layer";
  ASSERT_OK_AND_ASSIGN(FetchResult got, mq.Fetch(req));
  ASSERT_EQ(got.columns.size(), in.columns.size());
  for (size_t c = 0; c < in.columns.size(); ++c) {
    ASSERT_EQ(got.columns[c], in.columns[c]) << "column " << c;
  }
}

}  // namespace
}  // namespace mistique
