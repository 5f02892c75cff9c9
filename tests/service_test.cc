#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "service/query_service.h"
#include "test_util.h"

namespace mistique {
namespace {

/// Gate that parks service workers inside the pre_execute_hook until the
/// test opens it — makes queue-full and deadline scenarios deterministic.
class WorkerGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(m_);
      arrived_++;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    };
  }

  /// Blocks until `n` workers are parked in the hook.
  void AwaitParked(int n) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

class ServiceTradTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("service");
    ZillowConfig config;
    config.num_properties = 400;
    config.num_train = 300;
    config.num_test = 100;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));

    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 64;
    ASSERT_OK(mq_.Open(opts));
    ASSERT_OK_AND_ASSIGN(pipeline_, BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq_.LogPipeline(pipeline_.get(), "zillow").status());
    ASSERT_OK(mq_.Flush());
  }

  FetchRequest FetchReq(uint64_t n_ex = 0) {
    FetchRequest req;
    req.project = "zillow";
    req.model = "P1_v0";
    req.intermediate = "pred_test";
    req.force_read = true;
    req.n_ex = n_ex;
    return req;
  }

  ScanRequest ScanReq() {
    ScanRequest req;
    req.project = "zillow";
    req.model = "P1_v0";
    req.intermediate = "train_merged";
    req.predicate_column = "taxamount";
    req.lo = 0;
    req.hi = 1e9;
    return req;
  }

  std::unique_ptr<TempDir> dir_;
  Mistique mq_;
  std::unique_ptr<Pipeline> pipeline_;
};

TEST_F(ServiceTradTest, ConcurrentSessionsMixedFetchScan) {
  // Reference answers, single-threaded through the engine.
  ASSERT_OK_AND_ASSIGN(FetchResult ref_fetch, mq_.Fetch(FetchReq()));
  ASSERT_OK_AND_ASSIGN(ScanResult ref_scan, mq_.Scan(ScanReq()));
  ASSERT_FALSE(ref_fetch.columns.empty());
  ASSERT_FALSE(ref_scan.row_ids.empty());

  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue = 256;
  options.session_cache_entries = 8;
  QueryService service(&mq_, options);

  constexpr int kClients = 4;
  constexpr int kIters = 12;
  std::vector<SessionId> sessions;
  for (int i = 0; i < kClients; ++i) sessions.push_back(service.OpenSession());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        if ((c + i) % 3 == 2) {
          Result<ScanResult> scan = service.Scan(sessions[c], ScanReq());
          if (!scan.ok() || scan->row_ids != ref_scan.row_ids) mismatches++;
        } else {
          // Vary n_ex so the per-session cache sees hits and misses.
          const uint64_t n_ex = (i % 2) ? 0 : 50;
          Result<FetchResult> got = service.Fetch(sessions[c], FetchReq(n_ex));
          if (!got.ok()) {
            mismatches++;
            continue;
          }
          const size_t want = n_ex == 0 ? ref_fetch.columns[0].size() : n_ex;
          if (got->columns[0].size() != want ||
              got->columns[0][0] != ref_fetch.columns[0][0]) {
            mismatches++;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.cache_hits, 0u);  // Repeated identical requests per session.
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_GT(stats.p95_latency_sec, 0.0);
  for (SessionId id : sessions) EXPECT_OK(service.CloseSession(id));
  EXPECT_EQ(service.Stats().open_sessions, 0u);
}

TEST_F(ServiceTradTest, QueueFullRejectsWithResourceExhausted) {
  WorkerGate gate;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.session_cache_entries = 0;
  options.pre_execute_hook = gate.Hook();
  QueryService service(&mq_, options);
  const SessionId session = service.OpenSession();

  // First request occupies the single worker (parked in the hook); the
  // second fills the queue; the third must bounce.
  auto running = service.SubmitFetch(session, FetchReq());
  gate.AwaitParked(1);
  auto queued = service.SubmitFetch(session, FetchReq());
  auto bounced = service.SubmitFetch(session, FetchReq());
  Result<FetchResult> rejected = bounced.get();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.Stats().rejected, 1u);

  gate.Open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued.get().ok());
  EXPECT_EQ(service.Stats().completed, 2u);
}

TEST_F(ServiceTradTest, DeadlineExpiresWhileQueued) {
  WorkerGate gate;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.session_cache_entries = 0;
  options.pre_execute_hook = gate.Hook();
  QueryService service(&mq_, options);
  const SessionId session = service.OpenSession();

  auto running = service.SubmitFetch(session, FetchReq());
  gate.AwaitParked(1);
  // Queued behind the parked worker with a deadline that cannot survive
  // the park.
  auto doomed = service.SubmitFetch(session, FetchReq(), /*deadline_sec=*/1e-4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  Result<FetchResult> expired = doomed.get();
  EXPECT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(running.get().ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(ServiceTradTest, DestructionDrainsQueuedRequests) {
  std::vector<std::future<Result<FetchResult>>> futures;
  {
    QueryServiceOptions options;
    options.num_workers = 2;
    options.max_queue = 64;
    options.session_cache_entries = 0;
    QueryService service(&mq_, options);
    const SessionId session = service.OpenSession();
    for (int i = 0; i < 16; ++i) {
      futures.push_back(service.SubmitFetch(session, FetchReq()));
    }
    // Destroyed with most requests still queued: the drain runs them
    // against service state (counters, latency ring, session map) that
    // must still be alive.
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

TEST_F(ServiceTradTest, UnknownSessionIsRejected) {
  QueryService service(&mq_, {});
  Result<FetchResult> result = service.Fetch(999, FetchReq());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Stats().rejected, 1u);
}

TEST_F(ServiceTradTest, SessionCachesAreIsolated) {
  QueryServiceOptions options;
  options.num_workers = 2;
  options.session_cache_entries = 4;
  QueryService service(&mq_, options);
  const SessionId a = service.OpenSession();
  const SessionId b = service.OpenSession();

  ASSERT_OK_AND_ASSIGN(FetchResult first, service.Fetch(a, FetchReq()));
  EXPECT_FALSE(first.from_cache);
  ASSERT_OK_AND_ASSIGN(FetchResult second, service.Fetch(a, FetchReq()));
  EXPECT_TRUE(second.from_cache);
  // Session b has its own (cold) cache.
  ASSERT_OK_AND_ASSIGN(FetchResult other, service.Fetch(b, FetchReq()));
  EXPECT_FALSE(other.from_cache);
  EXPECT_EQ(service.Stats().cache_hits, 1u);

  ASSERT_OK(service.CloseSession(b));
  EXPECT_EQ(service.CloseSession(b).code(), StatusCode::kNotFound);
}

TEST_F(ServiceTradTest, SessionCacheEvictsLeastRecentlyUsed) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.session_cache_entries = 2;
  QueryService service(&mq_, options);
  const SessionId session = service.OpenSession();

  for (const uint64_t n : {5u, 6u, 7u}) {  // Third insert evicts the first.
    ASSERT_OK(service.Fetch(session, FetchReq(n)).status());
  }
  ASSERT_OK_AND_ASSIGN(FetchResult evicted,
                       service.Fetch(session, FetchReq(5)));
  EXPECT_FALSE(evicted.from_cache);
  // Re-inserting 5 evicted 6, the least recently used; 7 stayed.
  ASSERT_OK_AND_ASSIGN(FetchResult kept, service.Fetch(session, FetchReq(7)));
  EXPECT_TRUE(kept.from_cache);
  ASSERT_FALSE(kept.columns.empty());
  EXPECT_EQ(kept.columns[0].size(), 7u);
  ASSERT_OK_AND_ASSIGN(FetchResult dropped,
                       service.Fetch(session, FetchReq(6)));
  EXPECT_FALSE(dropped.from_cache);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  EXPECT_EQ(service.Stats().cache_lookups, 6u);
}

TEST_F(ServiceTradTest, SessionCacheAnswersOnlyTheRequestItCached) {
  // sample_fraction 0.4 samples every 3rd RowBlock and 0.4000005 every
  // 2nd (k = round(1 / f)). Both once truncated to the same cache key, so
  // the second fetch returned the first one's rows from the cache.
  FetchRequest every_third;
  every_third.project = "zillow";
  every_third.model = "P1_v0";
  every_third.intermediate = "train_merged";
  every_third.columns = {"logerror"};
  every_third.sample_fraction = 0.4;
  FetchRequest every_second = every_third;
  every_second.sample_fraction = 0.4000005;
  ASSERT_OK_AND_ASSIGN(FetchResult want_third, mq_.Fetch(every_third));
  ASSERT_OK_AND_ASSIGN(FetchResult want_second, mq_.Fetch(every_second));
  ASSERT_NE(want_third.row_ids, want_second.row_ids);

  QueryServiceOptions options;
  options.num_workers = 1;
  options.session_cache_entries = 4;
  QueryService service(&mq_, options);
  const SessionId session = service.OpenSession();
  ASSERT_OK_AND_ASSIGN(FetchResult third, service.Fetch(session, every_third));
  EXPECT_FALSE(third.from_cache);
  ASSERT_OK_AND_ASSIGN(FetchResult second,
                       service.Fetch(session, every_second));
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(second.row_ids, want_second.row_ids);
  EXPECT_EQ(second.columns, want_second.columns);

  // 0.35 samples with the same stride as 0.4, so it is the same answer.
  FetchRequest same_stride = every_third;
  same_stride.sample_fraction = 0.35;
  ASSERT_OK_AND_ASSIGN(FetchResult hit, service.Fetch(session, same_stride));
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.row_ids, want_third.row_ids);
  EXPECT_EQ(hit.columns, want_third.columns);
}

TEST(RequestKeyTest, SameRequestComparesWhatTheEngineAnswers) {
  FetchRequest a;
  a.project = "p";
  a.model = "m";
  a.intermediate = "i";
  a.sample_fraction = 0.4;
  FetchRequest b = a;
  b.sample_fraction = 0.35;  // also every 3rd RowBlock
  EXPECT_TRUE(Mistique::SameRequest(a, b));
  EXPECT_EQ(Mistique::RequestKey(a), Mistique::RequestKey(b));
  b.sample_fraction = 0.4000005;  // every 2nd RowBlock
  EXPECT_FALSE(Mistique::SameRequest(a, b));
  EXPECT_NE(Mistique::RequestKey(a), Mistique::RequestKey(b));
  // Every fraction outside (0, 1) is an exact fetch.
  a.sample_fraction = 1.0;
  b.sample_fraction = 0.0;
  EXPECT_TRUE(Mistique::SameRequest(a, b));
  b.sample_fraction = 1.0;
  for (auto change : std::vector<std::function<void(FetchRequest*)>>{
           [](FetchRequest* r) { r->project = "q"; },
           [](FetchRequest* r) { r->columns = {"c"}; },
           [](FetchRequest* r) { r->n_ex = 5; },
           [](FetchRequest* r) { r->row_ids = {1}; },
           [](FetchRequest* r) { r->force_read = false; }}) {
    FetchRequest c = a;
    change(&c);
    EXPECT_FALSE(Mistique::SameRequest(a, c));
  }
}

TEST_F(ServiceTradTest, GetIntermediatesThroughService) {
  QueryService service(&mq_, {});
  const SessionId session = service.OpenSession();
  ASSERT_OK_AND_ASSIGN(
      FetchResult result,
      service.GetIntermediates(session, {"zillow.P1_v0.pred_test.*"}));
  EXPECT_FALSE(result.columns.empty());
}

/// DNN store under ADAPTIVE: first touches re-run and materialize
/// (exclusive), later touches read (shared) — all racing across sessions.
TEST(ServiceAdaptiveTest, ReadWhileMaterializeIsSafe) {
  TempDir dir("service_adaptive");
  CifarConfig data_config;
  data_config.num_examples = 96;
  CifarData data = GenerateCifar(data_config);
  auto input = std::make_shared<Tensor>(data.images);

  DnnScaleConfig scale;
  scale.vgg_scale = 0.05;
  scale.cnn_scale = 0.2;
  auto net = BuildCifarCnn(scale);

  MistiqueOptions opts;
  opts.store.directory = dir.path() + "/store";
  opts.strategy = StorageStrategy::kAdaptive;
  opts.gamma_min = 0;  // Materialize on first query.
  opts.row_block_size = 32;
  Mistique mq;
  ASSERT_OK(mq.Open(opts));
  ASSERT_OK_AND_ASSIGN(ModelId id,
                       mq.LogNetwork(net.get(), input, "cifar", "cnn"));
  ASSERT_OK_AND_ASSIGN(const ModelInfo* model, mq.metadata().GetModel(id));
  const size_t num_layers = model->intermediates.size();
  ASSERT_GE(num_layers, 4u);

  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue = 256;
  options.session_cache_entries = 4;
  QueryService service(&mq, options);

  constexpr int kClients = 4;
  constexpr int kIters = 6;
  std::vector<SessionId> sessions;
  for (int i = 0; i < kClients; ++i) sessions.push_back(service.OpenSession());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        FetchRequest req;
        req.project = "cifar";
        req.model = "cnn";
        // Collide on a few layers so materialization races with reads.
        req.intermediate =
            "layer" + std::to_string(1 + (c + i) % (num_layers / 2));
        req.n_ex = 48;
        Result<FetchResult> result = service.Fetch(sessions[c], req);
        if (!result.ok() || result->columns.empty() ||
            result->columns[0].size() != 48) {
          failures++;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);

  // The races materialized the touched layers; the read path serves them.
  // force_read pins the decision (on fast machines the measured re-run
  // cost can legitimately undercut the modeled read cost) and errors if
  // the races failed to materialize layer1.
  FetchRequest req;
  req.project = "cifar";
  req.model = "cnn";
  req.intermediate = "layer1";
  req.n_ex = 48;
  req.force_read = true;
  ASSERT_OK_AND_ASSIGN(FetchResult read_back, mq.Fetch(req));
  EXPECT_TRUE(read_back.used_read);
  ASSERT_FALSE(read_back.columns.empty());
  EXPECT_EQ(read_back.columns[0].size(), 48u);
}

/// Raw DataStore: concurrent readers that miss on the same sealed
/// partition decompress it once (single-flight) and all get valid chunks.
TEST(ServiceStoreTest, SingleFlightConcurrentPartitionLoads) {
  TempDir dir("single_flight");
  DataStoreOptions options;
  options.directory = dir.path() + "/store";
  // Budget holds at most one partition (the newest is always admitted),
  // so alternating reads across two sealed partitions thrash the pool and
  // force the single-flight disk-load path.
  options.memory_budget_bytes = 1;
  options.partition_target_bytes = 1 << 20;
  DataStore store;
  ASSERT_OK(store.Open(options));

  std::vector<ChunkId> chunks;
  for (int p = 0; p < 2; ++p) {
    const PartitionId partition = store.CreatePartition();
    for (int i = 0; i < 4; ++i) {
      const int value = p * 4 + i;
      std::vector<double> values(512, static_cast<double>(value));
      ASSERT_OK_AND_ASSIGN(ColumnChunk chunk,
                           LpQuantize(values, QuantScheme::kNone));
      ASSERT_OK_AND_ASSIGN(ChunkId id, store.AddChunk(partition, chunk));
      chunks.push_back(id);
    }
    ASSERT_OK(store.SealPartition(partition));
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t which = static_cast<size_t>(t + i) % chunks.size();
        Result<ChunkRef> ref = store.GetChunk(chunks[which]);
        if (!ref.ok()) {
          failures++;
          continue;
        }
        Result<std::vector<double>> decoded =
            ref->chunk->DecodeAsDouble(nullptr);
        if (!decoded.ok() || decoded->size() != 512 ||
            (*decoded)[0] != static_cast<double>(which)) {
          failures++;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // All 100 reads hit the same partition; single-flight keeps the number
  // of decompressions bounded by the number of pool misses, and most
  // overlapping misses piggyback (not asserted: scheduling-dependent).
  EXPECT_GT(store.disk_read_bytes(), 0u);
}

/// Raw DataStore: concurrent batched reads that miss on overlapping runs
/// of frames load each frame once per miss, joining each other's loads,
/// and all get valid chunks.
TEST(ServiceStoreTest, SingleFlightConcurrentBatchedLoads) {
  TempDir dir("single_flight_batch");
  DataStoreOptions options;
  options.directory = dir.path() + "/store";
  options.memory_budget_bytes = 1;  // Only a batch's own refs pin frames.
  options.partition_target_bytes = 1 << 20;
  DataStore store;
  ASSERT_OK(store.Open(options));

  // Two partitions of eight 8 KB chunks: four frames of two chunks each.
  std::vector<ChunkId> chunks;
  for (int p = 0; p < 2; ++p) {
    const PartitionId partition = store.CreatePartition();
    for (int i = 0; i < 8; ++i) {
      const double base = 10000.0 * (p * 8 + i);
      std::vector<double> values(1024);
      for (size_t j = 0; j < values.size(); ++j) values[j] = base + j;
      ASSERT_OK_AND_ASSIGN(ChunkId id,
                           store.AddChunk(partition,
                                          ColumnChunk::FromDoubles(values)));
      chunks.push_back(id);
    }
    ASSERT_OK(store.SealPartition(partition));
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Seven chunks from a rotating start: runs of frames in one or
        // both partitions, overlapping the other readers' batches.
        std::vector<size_t> which;
        std::vector<ChunkId> ids;
        for (size_t k = 0; k < 7; ++k) {
          which.push_back((static_cast<size_t>(3 * t + i) + k) %
                          chunks.size());
          ids.push_back(chunks[which.back()]);
        }
        std::vector<ChunkRef> refs;
        if (!store.GetChunks(ids, &refs).ok()) {
          failures++;
          continue;
        }
        for (size_t k = 0; k < ids.size(); ++k) {
          Result<std::vector<double>> decoded =
              refs[k].chunk->DecodeAsDouble(nullptr);
          if (!decoded.ok() || decoded->size() != 1024 ||
              (*decoded)[7] != 10000.0 * static_cast<double>(which[k]) + 7) {
            failures++;
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(store.disk_read_bytes(), 0u);
}

}  // namespace
}  // namespace mistique
