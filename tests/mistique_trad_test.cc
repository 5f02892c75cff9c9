#include <cmath>

#include "core/mistique.h"
#include "gtest/gtest.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "test_util.h"

namespace mistique {
namespace {

class MistiqueTradTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("mq_trad");
    ZillowConfig config;
    config.num_properties = 500;
    config.num_train = 350;
    config.num_test = 120;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));
  }

  MistiqueOptions Options(StorageStrategy strategy) {
    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.strategy = strategy;
    opts.row_block_size = 256;
    return opts;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(MistiqueTradTest, LogsEveryStageAsIntermediate) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK_AND_ASSIGN(ModelId id, mq.LogPipeline(pipeline.get(), "zillow"));
  ASSERT_OK_AND_ASSIGN(const ModelInfo* model, mq.metadata().GetModel(id));
  EXPECT_EQ(model->kind, ModelKind::kTrad);
  EXPECT_EQ(model->intermediates.size(), pipeline->num_stages());
  for (const IntermediateInfo& interm : model->intermediates) {
    EXPECT_GT(interm.num_rows, 0u) << interm.name;
    EXPECT_FALSE(interm.columns.empty()) << interm.name;
    EXPECT_TRUE(interm.columns[0].materialized) << interm.name;
    EXPECT_GE(interm.cum_exec_sec_per_ex, 0) << interm.name;
  }
  EXPECT_GT(mq.StorageFootprintBytes(), 0u);
}

TEST_F(MistiqueTradTest, ReadMatchesRerunExactly) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  ASSERT_OK(mq.Flush());

  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "pred_test";

  req.force_read = true;
  ASSERT_OK_AND_ASSIGN(FetchResult read, mq.Fetch(req));
  req.force_read = false;
  ASSERT_OK_AND_ASSIGN(FetchResult rerun, mq.Fetch(req));

  EXPECT_TRUE(read.used_read);
  EXPECT_FALSE(rerun.used_read);
  ASSERT_EQ(read.columns.size(), 1u);
  ASSERT_EQ(read.columns[0].size(), rerun.columns[0].size());
  for (size_t i = 0; i < read.columns[0].size(); ++i) {
    EXPECT_EQ(read.columns[0][i], rerun.columns[0][i]) << i;
  }
}

TEST_F(MistiqueTradTest, ColumnSubsetAndRowSubset) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());

  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "train_merged";
  req.columns = {"taxamount", "bedroomcnt"};
  req.n_ex = 10;
  ASSERT_OK_AND_ASSIGN(FetchResult result, mq.Fetch(req));
  ASSERT_EQ(result.columns.size(), 2u);
  EXPECT_EQ(result.column_names[0], "taxamount");
  EXPECT_EQ(result.columns[0].size(), 10u);

  // Row-id fetch returns exactly those rows, matching the full fetch.
  FetchRequest by_id = req;
  by_id.n_ex = 0;
  by_id.row_ids = {3, 7};
  ASSERT_OK_AND_ASSIGN(FetchResult subset, mq.Fetch(by_id));
  ASSERT_EQ(subset.columns[0].size(), 2u);
  EXPECT_EQ(subset.columns[0][0], result.columns[0][3]);
  EXPECT_EQ(subset.columns[0][1], result.columns[0][7]);
}

TEST_F(MistiqueTradTest, GetIntermediatesKeyApi) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());

  ASSERT_OK_AND_ASSIGN(
      FetchResult result,
      mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}, 5));
  ASSERT_EQ(result.columns.size(), 1u);
  EXPECT_EQ(result.columns[0].size(), 5u);

  ASSERT_OK_AND_ASSIGN(FetchResult star,
                       mq.GetIntermediates({"zillow.P1_v0.x_train.*"}, 3));
  EXPECT_GT(star.columns.size(), 5u);

  EXPECT_FALSE(mq.GetIntermediates({}).ok());
  EXPECT_FALSE(mq.GetIntermediates({"zillow.P1_v0.pred_test.pred",
                                    "zillow.P1_v0.x_train.taxamount"})
                   .ok());
  EXPECT_FALSE(mq.GetIntermediates({"zillow.P1_v0.missing.pred"}).ok());
}

TEST_F(MistiqueTradTest, DedupSharesStorageAcrossVariants) {
  // Two variants of the same template share all intermediates except the
  // model outputs: DEDUP must store the second pipeline almost for free.
  Mistique store_all;
  Mistique dedup;
  ASSERT_OK(store_all.Open([&] {
    MistiqueOptions o = Options(StorageStrategy::kStoreAll);
    o.store.directory = dir_->path() + "/sa";
    return o;
  }()));
  ASSERT_OK(dedup.Open([&] {
    MistiqueOptions o = Options(StorageStrategy::kDedup);
    o.store.directory = dir_->path() + "/dd";
    return o;
  }()));

  for (int variant = 0; variant < 2; ++variant) {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> p1,
                         BuildZillowPipeline(3, variant, dir_->path()));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> p2,
                         BuildZillowPipeline(3, variant, dir_->path()));
    ASSERT_OK(store_all.LogPipeline(p1.get(), "zillow").status());
    ASSERT_OK(dedup.LogPipeline(p2.get(), "zillow").status());
  }
  ASSERT_OK(store_all.Flush());
  ASSERT_OK(dedup.Flush());

  EXPECT_LT(dedup.StorageFootprintBytes(),
            store_all.StorageFootprintBytes() / 2);
  EXPECT_GT(dedup.dedup().duplicate_chunks(), 0u);
}

TEST_F(MistiqueTradTest, DuplicatePipelineNameRejected) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  EXPECT_EQ(mq.LogPipeline(pipeline.get(), "zillow").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(MistiqueTradTest, FetchUnknownTargetsFail) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());

  FetchRequest req;
  req.project = "zillow";
  req.model = "P9_v9";
  req.intermediate = "pred_test";
  EXPECT_EQ(mq.Fetch(req).status().code(), StatusCode::kNotFound);

  req.model = "P1_v0";
  req.intermediate = "nope";
  EXPECT_EQ(mq.Fetch(req).status().code(), StatusCode::kNotFound);

  req.intermediate = "pred_test";
  req.columns = {"ghost"};
  EXPECT_EQ(mq.Fetch(req).status().code(), StatusCode::kNotFound);

  req.columns = {};
  req.row_ids = {99999};
  EXPECT_EQ(mq.Fetch(req).status().code(), StatusCode::kOutOfRange);
}

TEST_F(MistiqueTradTest, QueryCountTracked) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options(StorageStrategy::kDedup)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK_AND_ASSIGN(ModelId id, mq.LogPipeline(pipeline.get(), "zillow"));

  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "pred_test";
  ASSERT_OK(mq.Fetch(req).status());
  ASSERT_OK(mq.Fetch(req).status());
  // A scan is one query, although it fetches its output columns through
  // the fetch planner.
  ScanRequest scan;
  scan.project = "zillow";
  scan.model = "P1_v0";
  scan.intermediate = "pred_test";
  scan.predicate_column = "pred";
  scan.columns = {"pred"};
  ASSERT_OK_AND_ASSIGN(ScanResult scanned, mq.Scan(scan));
  ASSERT_FALSE(scanned.row_ids.empty());
  ASSERT_EQ(scanned.columns.size(), 1u);
  EXPECT_EQ(scanned.columns[0].size(), scanned.row_ids.size());
  // Snapshot readers count queries in a side table that folds into the
  // live catalog at the next writer operation (docs/MVCC.md).
  ASSERT_OK(mq.Flush());
  ASSERT_OK_AND_ASSIGN(const IntermediateInfo* interm,
                       std::as_const(mq.metadata())
                           .FindIntermediate(id, "pred_test"));
  EXPECT_EQ(interm->n_query, 3u);
}

}  // namespace
}  // namespace mistique
