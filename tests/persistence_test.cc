#include <filesystem>

#include "core/mistique.h"
#include "durability/durable_file.h"
#include "durability/fault_injection.h"
#include "gtest/gtest.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "test_util.h"

namespace mistique {
namespace {

// ------------------------------------------------- MetadataDb serde

TEST(MetadataSerdeTest, RoundTripsFullCatalog) {
  MetadataDb db;
  ASSERT_OK_AND_ASSIGN(ModelId id,
                       db.RegisterModel("proj", "model", ModelKind::kDnn));
  ASSERT_OK_AND_ASSIGN(ModelInfo * model, db.GetModel(id));
  model->model_load_sec = 1.25;
  IntermediateInfo interm;
  interm.name = "layer3";
  interm.stage_index = 3;
  interm.num_rows = 500;
  interm.row_block_size = 128;
  interm.channels = 8;
  interm.height = 4;
  interm.width = 4;
  interm.pool_sigma = 2;
  interm.scheme = QuantScheme::kKBit;
  interm.kbits = 8;
  interm.threshold = 0.5;
  interm.recon.centers = {0.0, 1.5, 2.5};
  interm.edges = {1.0, 2.0};
  interm.cum_exec_sec_per_ex = 3e-4;
  interm.stored_bytes_per_ex = 64;
  interm.n_query = 7;
  ColumnInfo col;
  col.name = "n0";
  col.materialized = true;
  col.encoded_bytes = 4096;
  col.stored_bytes = 1024;
  col.chunks = {11, 12, 13};
  interm.columns.push_back(col);
  model->intermediates.push_back(interm);

  ByteWriter writer;
  db.Save(&writer);
  MetadataDb restored;
  ByteReader reader(writer.bytes());
  ASSERT_OK(restored.Load(&reader));

  ASSERT_OK_AND_ASSIGN(ModelId rid, restored.FindModel("proj", "model"));
  EXPECT_EQ(rid, id);
  ASSERT_OK_AND_ASSIGN(const ModelInfo* rmodel, restored.GetModel(rid));
  EXPECT_EQ(rmodel->kind, ModelKind::kDnn);
  EXPECT_EQ(rmodel->model_load_sec, 1.25);
  ASSERT_EQ(rmodel->intermediates.size(), 1u);
  const IntermediateInfo& ri = rmodel->intermediates[0];
  EXPECT_EQ(ri.name, "layer3");
  EXPECT_EQ(ri.num_rows, 500u);
  EXPECT_EQ(ri.channels, 8);
  EXPECT_EQ(ri.pool_sigma, 2);
  EXPECT_EQ(ri.scheme, QuantScheme::kKBit);
  EXPECT_EQ(ri.recon.centers, (std::vector<double>{0.0, 1.5, 2.5}));
  EXPECT_EQ(ri.edges, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(ri.n_query, 7u);
  ASSERT_EQ(ri.columns.size(), 1u);
  EXPECT_EQ(ri.columns[0].chunks, (std::vector<ChunkId>{11, 12, 13}));
  EXPECT_TRUE(ri.columns[0].materialized);

  // Id allocation continues past recovered ids.
  ASSERT_OK_AND_ASSIGN(ModelId next,
                       restored.RegisterModel("proj", "other",
                                              ModelKind::kTrad));
  EXPECT_GT(next, id);
}

TEST(MetadataSerdeTest, CorruptCatalogRejected) {
  MetadataDb db;
  std::vector<uint8_t> junk(32, 0xee);
  ByteReader reader(junk);
  EXPECT_EQ(db.Load(&reader).code(), StatusCode::kCorruption);
}

// ----------------------------------------- Partition directory scan

TEST(PartitionDirectoryTest, ReadLayoutWithoutDecompress) {
  Partition p(9);
  ASSERT_OK(p.Add(100, ColumnChunk::FromDoubles({1, 2, 3})));
  ASSERT_OK(p.Add(200, ColumnChunk::FromBins({1, 2})));
  ASSERT_OK_AND_ASSIGN(const Codec* codec, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*codec));
  // A blob that fails to decode does not stop the layout parse.
  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(bytes));
  bytes.back() ^= 0xff;
  ASSERT_OK_AND_ASSIGN(PartitionLayout rotten, Partition::ReadLayout(bytes));
  EXPECT_EQ(layout.id, 9u);
  EXPECT_EQ(rotten.chunk_ids, (std::vector<ChunkId>{100, 200}));
  EXPECT_EQ(rotten.chunk_frames, (std::vector<uint32_t>{0, 0}));
}

// ------------------------------------------------- End-to-end reopen

class ReopenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("reopen");
    ZillowConfig config;
    config.num_properties = 400;
    config.num_train = 300;
    config.num_test = 100;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));
  }

  MistiqueOptions Options() {
    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 128;
    return opts;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(ReopenTest, TradQueriesSurviveReopen) {
  std::vector<double> original;
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                         BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
    ASSERT_OK_AND_ASSIGN(
        FetchResult r,
        mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}));
    original = r.columns[0];
    ASSERT_OK(mq.SaveCatalog());
  }

  // Fresh process: reopen the directory, query without any executor.
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  EXPECT_EQ(mq.metadata().num_models(), 1u);
  ASSERT_OK_AND_ASSIGN(FetchResult r,
                       mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}));
  EXPECT_TRUE(r.used_read);
  EXPECT_EQ(r.columns[0], original);
}

TEST_F(ReopenTest, RerunNeedsAttachedExecutor) {
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                         BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
    ASSERT_OK(mq.SaveCatalog());
  }
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));

  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "pred_test";
  req.force_read = false;  // Force the re-run path.
  EXPECT_EQ(mq.Fetch(req).status().code(), StatusCode::kNotFound);

  // Attaching the (re-built) pipeline restores the re-run path. The
  // re-attached pipeline re-fits on first execution, which reproduces the
  // same model because training is deterministic.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.AttachPipeline("zillow", "P1_v0", pipeline.get()));
  ASSERT_OK_AND_ASSIGN(FetchResult rerun, mq.Fetch(req));
  EXPECT_FALSE(rerun.used_read);

  req.force_read = true;
  ASSERT_OK_AND_ASSIGN(FetchResult read, mq.Fetch(req));
  EXPECT_EQ(rerun.columns[0], read.columns[0]);

  // Attach validation.
  EXPECT_FALSE(mq.AttachPipeline("zillow", "ghost", pipeline.get()).ok());
}

TEST_F(ReopenTest, DnnQueriesSurviveReopenAndReattach) {
  CifarConfig config;
  config.num_examples = 96;
  const CifarData data = GenerateCifar(config);
  auto input = std::make_shared<Tensor>(data.images);

  DnnScaleConfig scale;
  scale.cnn_scale = 0.2;
  std::vector<double> original;
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    auto net = BuildCifarCnn(scale);
    ASSERT_OK(mq.LogNetwork(net.get(), input, "cifar", "cnn").status());
    ASSERT_OK_AND_ASSIGN(FetchResult r,
                         mq.GetIntermediates({"cifar.cnn.layer8.n3"}));
    original = r.columns[0];
    ASSERT_OK(mq.SaveCatalog());
  }

  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK_AND_ASSIGN(FetchResult read,
                       mq.GetIntermediates({"cifar.cnn.layer8.n3"}));
  EXPECT_TRUE(read.used_read);
  // float32-encoded store decodes to the same values.
  ASSERT_EQ(read.columns[0].size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(read.columns[0][i], original[i], 1e-6);
  }

  // Re-attach a freshly built network: weights come from the checkpoint,
  // so re-run must reproduce the stored activations.
  auto net = BuildCifarCnn(scale);
  ASSERT_OK(mq.AttachNetwork("cifar", "cnn", net.get(), input));
  FetchRequest req;
  req.project = "cifar";
  req.model = "cnn";
  req.intermediate = "layer8";
  req.columns = {"n3"};
  req.force_read = false;
  ASSERT_OK_AND_ASSIGN(FetchResult rerun, mq.Fetch(req));
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(rerun.columns[0][i], original[i], 1e-5);
  }
}

TEST_F(ReopenTest, NewModelsLogAfterReopen) {
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                         BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
    ASSERT_OK(mq.SaveCatalog());
  }
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  // Chunk/partition counters were recovered, so new logging must not
  // collide with existing chunks.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 1, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  ASSERT_OK(mq.Flush());
  ASSERT_OK_AND_ASSIGN(FetchResult both,
                       mq.GetIntermediates({"zillow.P1_v1.pred_test.pred"}));
  EXPECT_EQ(both.columns[0].size(), 100u);
  ASSERT_OK_AND_ASSIGN(FetchResult old,
                       mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}));
  EXPECT_TRUE(old.used_read);
}

// ------------------------------------------- Catalog WAL replay

/// n_query of one intermediate, or 0 if the model/intermediate is absent.
uint64_t NQueryOf(const Mistique& mq, const std::string& project,
                  const std::string& model_name,
                  const std::string& interm_name) {
  Result<ModelId> id = mq.metadata().FindModel(project, model_name);
  if (!id.ok()) return 0;
  Result<const ModelInfo*> model = mq.metadata().GetModel(*id);
  if (!model.ok()) return 0;
  for (const IntermediateInfo& interm : (*model)->intermediates) {
    if (interm.name == interm_name) return interm.n_query;
  }
  return 0;
}

TEST_F(ReopenTest, WalReplayRestoresPostSnapshotQueryStats) {
  uint64_t n_query_before = 0;
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                         BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
    ASSERT_OK(mq.SaveCatalog());
    // Queries AFTER the snapshot reach the catalog only via the WAL.
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK(
          mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}).status());
    }
    // Fold the reader-side query counts into the live catalog so they are
    // observable (Flush folds without saving the catalog — the stats'
    // only on-disk trace stays the WAL).
    ASSERT_OK(mq.Flush());
    n_query_before = NQueryOf(mq, "zillow", "P1_v0", "pred_test");
    EXPECT_GE(n_query_before, 3u);
    // No SaveCatalog here: the process "crashes" with stats only in the WAL.
  }
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  EXPECT_EQ(NQueryOf(mq, "zillow", "P1_v0", "pred_test"), n_query_before);
}

TEST_F(ReopenTest, WalReplayRestoresAdaptiveMaterialization) {
  std::vector<double> original;
  {
    MistiqueOptions opts = Options();
    opts.strategy = StorageStrategy::kAdaptive;
    opts.gamma_min = 0;  // Materialize on first query.
    Mistique mq;
    ASSERT_OK(mq.Open(opts));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                         BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
    // Snapshot the catalog while NOTHING is materialized…
    ASSERT_OK(mq.SaveCatalog());
    // …then let a query trigger adaptive materialization. The partition
    // seal + catalog WAL record are the only trace of it on disk.
    ASSERT_OK_AND_ASSIGN(
        FetchResult r, mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}));
    original = r.columns[0];
    EXPECT_TRUE(r.materialized_now);
  }
  // Crash-reopen: the WAL replays the materialization onto the snapshot,
  // so the read path serves it without any executor attached.
  MistiqueOptions opts = Options();
  opts.strategy = StorageStrategy::kAdaptive;
  Mistique mq;
  ASSERT_OK(mq.Open(opts));
  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "pred_test";
  req.force_read = true;
  ASSERT_OK_AND_ASSIGN(FetchResult read, mq.Fetch(req));
  EXPECT_TRUE(read.used_read);
  EXPECT_EQ(read.columns[0], original);
}

TEST_F(ReopenTest, WalReplayRestoresModelDeletion) {
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> p0,
                         BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> p1,
                         BuildZillowPipeline(1, 1, dir_->path()));
    ASSERT_OK(mq.LogPipeline(p0.get(), "zillow").status());
    ASSERT_OK(mq.LogPipeline(p1.get(), "zillow").status());
    ASSERT_OK(mq.SaveCatalog());
    // Post-snapshot deletion lives only in the WAL.
    ASSERT_OK(mq.DeleteModel("zillow", "P1_v0"));
  }
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  EXPECT_EQ(mq.metadata().num_models(), 1u);
  EXPECT_FALSE(mq.metadata().FindModel("zillow", "P1_v0").ok());
  ASSERT_OK_AND_ASSIGN(FetchResult keep,
                       mq.GetIntermediates({"zillow.P1_v1.pred_test.pred"}));
  EXPECT_EQ(keep.columns[0].size(), 100u);
}

// --------------------------------- Crash-at-every-fault-point reopen

/// For every labeled point in the durable write path: inject a failure
/// there (error mode — the on-disk state at the fault is identical to a
/// kill at the same point), then prove a reopen recovers the last-good
/// state and leaves no temp files. The kill-mode equivalent runs out of
/// process in bench/crash_recovery.
class CrashPointTest : public ReopenTest {
 protected:
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

TEST_F(CrashPointTest, ReopenRecoversAfterFaultAtEveryPoint) {
  for (const std::string& label : FaultPointLabels()) {
    SCOPED_TRACE(label);
    const std::string store_dir =
        dir_->path() + "/store_" + label;  // Fresh store per label.
    MistiqueOptions opts = Options();
    opts.store.directory = store_dir;

    std::vector<double> original;
    {
      Mistique mq;
      ASSERT_OK(mq.Open(opts));
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> p0,
                           BuildZillowPipeline(1, 0, dir_->path()));
      ASSERT_OK(mq.LogPipeline(p0.get(), "zillow").status());
      ASSERT_OK_AND_ASSIGN(
          FetchResult r,
          mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}));
      original = r.columns[0];
      ASSERT_OK(mq.SaveCatalog());

      // Run a write-heavy workload into the armed fault: a second model's
      // logging (partition seals), queries (WAL appends), a deletion
      // (durable WAL append), and a snapshot (catalog write + rotation).
      // Whichever op hits the label fails there; on-disk state is frozen
      // mid-protocol, exactly as a crash would leave it.
      FaultInjector::Instance().Arm(label, FaultMode::kError);
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> p1,
                           BuildZillowPipeline(1, 1, dir_->path()));
      (void)mq.LogPipeline(p1.get(), "zillow");
      (void)mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"});
      (void)mq.DeleteModel("zillow", "ghost");
      (void)mq.SaveCatalog();
      FaultInjector::Instance().Disarm();
    }

    // "Restart": recovery must land on a consistent catalog with the
    // first model intact, and the atomic-write protocol guarantees no
    // temp debris survives any fault point.
    Mistique mq;
    ASSERT_OK(mq.Open(opts));
    for (const auto& entry :
         std::filesystem::directory_iterator(store_dir)) {
      EXPECT_FALSE(
          entry.path().filename().string().ends_with(kTempSuffix))
          << entry.path();
    }
    ASSERT_GE(mq.metadata().num_models(), 1u);
    FetchRequest req;
    req.project = "zillow";
    req.model = "P1_v0";
    req.intermediate = "pred_test";
    req.columns = {"pred"};
    req.force_read = true;
    ASSERT_OK_AND_ASSIGN(FetchResult read, mq.Fetch(req));
    EXPECT_TRUE(read.used_read);
    EXPECT_EQ(read.columns[0], original);
  }
}

}  // namespace
}  // namespace mistique
