#include "core/mistique.h"
#include "gtest/gtest.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "service/query_service.h"
#include "test_util.h"

namespace mistique {
namespace {

class CacheSamplingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("cache");
    ZillowConfig config;
    config.num_properties = 600;
    config.num_train = 450;
    config.num_test = 150;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));
  }

  MistiqueOptions Options() {
    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store" + std::to_string(n_++);
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 64;
    return opts;
  }

  FetchRequest Req(const std::string& interm) {
    FetchRequest req;
    req.project = "zillow";
    req.model = "P1_v0";
    req.intermediate = interm;
    return req;
  }

  std::unique_ptr<TempDir> dir_;
  int n_ = 0;
};

// Result caching lives in one place, QueryService's per-session LRU
// (docs/CONCURRENCY.md); the engine itself keeps no result cache.

TEST_F(CacheSamplingTest, RepeatedQueriesHitCache) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  QueryService service(&mq);
  const SessionId session = service.OpenSession();

  FetchRequest req = Req("pred_test");
  ASSERT_OK_AND_ASSIGN(FetchResult first, service.Fetch(session, req));
  EXPECT_FALSE(first.from_cache);
  ASSERT_OK_AND_ASSIGN(FetchResult second, service.Fetch(session, req));
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.columns, first.columns);
  EXPECT_EQ(service.Stats().cache_hits, 1u);

  // A different request misses.
  req.n_ex = 10;
  ASSERT_OK_AND_ASSIGN(FetchResult other, service.Fetch(session, req));
  EXPECT_FALSE(other.from_cache);
  EXPECT_EQ(other.columns[0].size(), 10u);
}

TEST_F(CacheSamplingTest, CacheDisabledByDefault) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  // The engine answers every fetch afresh.
  FetchRequest req = Req("pred_test");
  ASSERT_OK(mq.Fetch(req).status());
  ASSERT_OK_AND_ASSIGN(FetchResult second, mq.Fetch(req));
  EXPECT_FALSE(second.from_cache);

  // And a service whose session cache is sized 0 never hits.
  QueryServiceOptions options;
  options.session_cache_entries = 0;
  QueryService service(&mq, options);
  const SessionId session = service.OpenSession();
  ASSERT_OK(service.Fetch(session, req).status());
  ASSERT_OK_AND_ASSIGN(FetchResult again, service.Fetch(session, req));
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(service.Stats().cache_hits, 0u);
  EXPECT_EQ(service.Stats().cache_lookups, 0u);
}

TEST_F(CacheSamplingTest, SampledFetchReadsEveryKthBlock) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());

  // train_merged has 450 rows = 8 blocks of 64 (last partial).
  FetchRequest req = Req("train_merged");
  req.columns = {"taxamount"};
  req.sample_fraction = 0.5;
  ASSERT_OK_AND_ASSIGN(FetchResult half, mq.Fetch(req));
  // Blocks 0, 2, 4, 6 -> 4 * 64 = 256 rows.
  EXPECT_EQ(half.columns[0].size(), 256u);
  EXPECT_EQ(half.row_ids.front(), 0u);
  // Row 64 (block 1) excluded; row 128 (block 2) included.
  EXPECT_EQ(std::count(half.row_ids.begin(), half.row_ids.end(), 64), 0);
  EXPECT_EQ(std::count(half.row_ids.begin(), half.row_ids.end(), 128), 1);

  // Sampled mean approximates the full mean.
  req.sample_fraction = 1.0;
  ASSERT_OK_AND_ASSIGN(FetchResult full, mq.Fetch(req));
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    size_t n = 0;
    for (double x : v) {
      if (!std::isnan(x)) {
        s += x;
        n++;
      }
    }
    return s / static_cast<double>(n ? n : 1);
  };
  EXPECT_NEAR(mean(half.columns[0]), mean(full.columns[0]),
              0.15 * std::abs(mean(full.columns[0])));
}

TEST_F(CacheSamplingTest, SampleIgnoredWithExplicitRows) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  FetchRequest req = Req("train_merged");
  req.columns = {"taxamount"};
  req.row_ids = {1, 65, 130};
  req.sample_fraction = 0.25;
  ASSERT_OK_AND_ASSIGN(FetchResult result, mq.Fetch(req));
  EXPECT_EQ(result.columns[0].size(), 3u);
}

}  // namespace
}  // namespace mistique
