/// Cluster layer tests (docs/CLUSTER.md): consistent-hash ShardMap
/// properties, the new wire frames, ImportModel/ExportCatalog round
/// trips, rebalance primitives, and the Router end-to-end against a
/// single-store oracle — including the degradation contract: a scan with
/// an unreachable shard yields the typed degraded error, never a silent
/// partial answer.

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "cluster/rebalance.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "common/random.h"
#include "core/mistique.h"
#include "net/client.h"
#include "net/frame_handler.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "raw_frame.h"
#include "service/query_service.h"
#include "test_util.h"

namespace mistique {
namespace {

using cluster::Router;
using cluster::RouterOptions;
using cluster::ShardMap;
using cluster::ShardSpec;

std::vector<ShardSpec> ThreeShards(uint16_t base_port = 0) {
  std::vector<ShardSpec> shards;
  for (uint32_t id = 0; id < 3; ++id) {
    ShardSpec spec;
    spec.shard_id = id;
    spec.port = base_port == 0 ? 0 : static_cast<uint16_t>(base_port + id);
    shards.push_back(spec);
  }
  return shards;
}

// --- ShardMap: determinism, balance, minimal movement ---

TEST(ShardMapTest, OwnershipIgnoresEndpoints) {
  // Ring placement hashes (shard_id, vnode) only, so the offline splitter
  // (dummy endpoints) and the live router (real ports) must agree.
  ShardMap dummy(1, ThreeShards());
  std::vector<ShardSpec> live = ThreeShards(9000);
  for (ShardSpec& spec : live) spec.host = "10.0.0." + std::to_string(spec.shard_id);
  ShardMap routed(7, live);
  for (int i = 0; i < 500; ++i) {
    const std::string key = ShardMap::PartitionKey("proj", "m" + std::to_string(i));
    EXPECT_EQ(dummy.OwnerIndex(key), routed.OwnerIndex(key)) << key;
  }
}

TEST(ShardMapTest, OwnershipIsStableAcrossInstances) {
  ShardMap a(1, ThreeShards());
  ShardMap b(1, ThreeShards());
  for (int i = 0; i < 200; ++i) {
    const std::string key = "p.m" + std::to_string(i);
    EXPECT_EQ(a.OwnerOf(key), b.OwnerOf(key));
  }
}

TEST(ShardMapTest, AssignmentIsRoughlyBalanced) {
  ShardMap map(1, ThreeShards());
  std::vector<int> counts(3, 0);
  const int kKeys = 3000;
  for (int i = 0; i < kKeys; ++i) {
    counts[map.OwnerIndex("proj.model_" + std::to_string(i))]++;
  }
  // With 64 vnodes/shard the split should be nowhere near degenerate;
  // demand each shard holds at least half its fair share.
  for (int c : counts) EXPECT_GE(c, kKeys / 6) << "counts: " << counts[0]
                                               << " " << counts[1] << " "
                                               << counts[2];
}

TEST(ShardMapTest, AddingShardMovesKeysOnlyToIt) {
  // Consistent hashing's point: growing the ring only moves keys onto
  // the new shard; no key shuffles between surviving shards.
  ShardMap three(1, ThreeShards());
  std::vector<ShardSpec> four = ThreeShards();
  ShardSpec extra;
  extra.shard_id = 3;
  four.push_back(extra);
  ShardMap grown(2, four);

  int moved = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "proj.m" + std::to_string(i);
    const uint32_t before = three.OwnerOf(key);
    const uint32_t after = grown.OwnerOf(key);
    if (before != after) {
      EXPECT_EQ(after, 3u) << key << " moved between surviving shards";
      moved++;
    }
  }
  // The new shard should take roughly a quarter of the space; demand it
  // takes something and not the majority.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(ShardMapTest, IndexOfAndWireRoundTrip) {
  std::vector<ShardSpec> shards = ThreeShards(7100);
  shards[1].host = "192.168.1.5";
  ShardMap map(42, shards, 32);
  EXPECT_EQ(map.IndexOf(2), 2u);
  EXPECT_EQ(map.IndexOf(99), map.shards().size());

  const wire::ShardMapInfo info = map.ToWire();
  EXPECT_EQ(info.version, 42u);
  EXPECT_EQ(info.vnodes_per_shard, 32u);
  ASSERT_EQ(info.shards.size(), 3u);
  EXPECT_EQ(info.shards[1].host, "192.168.1.5");
  EXPECT_EQ(info.shards[1].port, 7101);

  ASSERT_OK_AND_ASSIGN(ShardMap back, ShardMap::FromWire(info));
  EXPECT_EQ(back.version(), 42u);
  EXPECT_EQ(back.vnodes_per_shard(), 32u);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "p.m" + std::to_string(i);
    EXPECT_EQ(back.OwnerOf(key), map.OwnerOf(key));
  }
}

TEST(ShardMapTest, FromWireRejectsEmptyAndDuplicateIds) {
  wire::ShardMapInfo empty;
  empty.vnodes_per_shard = 64;
  EXPECT_FALSE(ShardMap::FromWire(empty).ok());

  wire::ShardMapInfo dup;
  dup.vnodes_per_shard = 64;
  wire::ShardEntry e;
  e.shard_id = 5;
  dup.shards.push_back(e);
  dup.shards.push_back(e);
  EXPECT_FALSE(ShardMap::FromWire(dup).ok());
}

// --- Wire frames: shard map, health, catalog, degraded error ---

TEST(WireClusterTest, ShardMapInfoRoundTrip) {
  wire::ShardMapInfo map;
  map.version = 9;
  map.vnodes_per_shard = 64;
  for (uint32_t i = 0; i < 3; ++i) {
    wire::ShardEntry entry;
    entry.shard_id = i;
    entry.host = "host" + std::to_string(i);
    entry.port = static_cast<uint16_t>(7000 + i);
    entry.health = i == 2 ? 2 : 0;
    map.shards.push_back(entry);
  }
  const std::string payload = wire::EncodeShardMap(map);
  wire::ShardMapInfo out;
  ASSERT_OK(wire::DecodeShardMap(payload, &out));
  EXPECT_EQ(out.version, 9u);
  EXPECT_EQ(out.vnodes_per_shard, 64u);
  ASSERT_EQ(out.shards.size(), 3u);
  EXPECT_EQ(out.shards[2].host, "host2");
  EXPECT_EQ(out.shards[2].port, 7002);
  EXPECT_EQ(out.shards[2].health, 2);

  // Truncation at every prefix must error, never crash or misread.
  for (size_t len = 0; len < payload.size(); ++len) {
    wire::ShardMapInfo t;
    EXPECT_FALSE(wire::DecodeShardMap(payload.substr(0, len), &t).ok())
        << "prefix " << len;
  }
}

TEST(WireClusterTest, HealthInfoRoundTrip) {
  wire::HealthInfo health;
  health.state = 1;
  health.queued = 17;
  health.running = 3;
  health.open_sessions = 2;
  const std::string payload = wire::EncodeHealth(health);
  wire::HealthInfo out;
  ASSERT_OK(wire::DecodeHealth(payload, &out));
  EXPECT_EQ(out.state, 1);
  EXPECT_EQ(out.queued, 17u);
  EXPECT_EQ(out.running, 3u);
  EXPECT_EQ(out.open_sessions, 2u);
  for (size_t len = 0; len < payload.size(); ++len) {
    wire::HealthInfo t;
    EXPECT_FALSE(wire::DecodeHealth(payload.substr(0, len), &t).ok());
  }
}

TEST(WireClusterTest, CatalogRoundTrip) {
  wire::CatalogInfo catalog;
  wire::CatalogModel model;
  model.project = "zillow";
  model.model = "P1_v0";
  model.kind = 1;
  wire::CatalogIntermediate interm;
  interm.name = "pred_test";
  interm.stage_index = 4;
  interm.num_rows = 100;
  interm.columns = {"pred", "score"};
  model.intermediates.push_back(interm);
  interm.name = "train_merged";
  interm.stage_index = 2;
  model.intermediates.push_back(interm);
  catalog.models.push_back(model);
  model.model = "P2_v0";
  model.intermediates.clear();
  catalog.models.push_back(model);

  const std::string payload = wire::EncodeCatalog(catalog);
  wire::CatalogInfo out;
  ASSERT_OK(wire::DecodeCatalog(payload, &out));
  ASSERT_EQ(out.models.size(), 2u);
  EXPECT_EQ(out.models[0].project, "zillow");
  EXPECT_EQ(out.models[0].kind, 1);
  ASSERT_EQ(out.models[0].intermediates.size(), 2u);
  EXPECT_EQ(out.models[0].intermediates[0].name, "pred_test");
  EXPECT_EQ(out.models[0].intermediates[0].stage_index, 4);
  EXPECT_EQ(out.models[0].intermediates[0].num_rows, 100u);
  EXPECT_EQ(out.models[0].intermediates[0].columns,
            (std::vector<std::string>{"pred", "score"}));
  EXPECT_TRUE(out.models[1].intermediates.empty());
  for (size_t len = 0; len < payload.size(); ++len) {
    wire::CatalogInfo t;
    EXPECT_FALSE(wire::DecodeCatalog(payload.substr(0, len), &t).ok());
  }
}

TEST(WireClusterTest, DegradedErrorIsTypedAcrossTheWire) {
  const Status degraded = wire::Degraded("shard 1 is unavailable");
  EXPECT_EQ(degraded.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(wire::IsDegraded(degraded));
  EXPECT_FALSE(wire::IsDegraded(Status::Unavailable("whole endpoint gone")));

  EXPECT_EQ(wire::WireErrorFromStatus(degraded),
            static_cast<uint16_t>(wire::WireError::kDegraded));
  const Status decoded = wire::StatusFromWireError(
      static_cast<uint16_t>(wire::WireError::kDegraded),
      "shard 1 is unavailable");
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(wire::IsDegraded(decoded));
}

// --- Reconnect backoff jitter (satellite b) ---

TEST(JitterTest, ZeroJitterKeepsDeterministicSchedule) {
  Rng rng;
  rng.Seed(7);
  EXPECT_DOUBLE_EQ(net::JitteredBackoff(0.5, 0.0, &rng), 0.5);
}

TEST(JitterTest, JitteredDelayStaysWithinBounds) {
  Rng rng;
  rng.Seed(1234);
  for (int i = 0; i < 1000; ++i) {
    const double d = net::JitteredBackoff(0.8, 0.25, &rng);
    // Full jitter downward only: never longer than base, never below
    // base * (1 - jitter).
    EXPECT_LE(d, 0.8);
    EXPECT_GT(d, 0.8 * 0.75 - 1e-12);
  }
  // Oversized jitter clamps to 1: delay in (0, base].
  for (int i = 0; i < 1000; ++i) {
    const double d = net::JitteredBackoff(0.8, 5.0, &rng);
    EXPECT_LE(d, 0.8);
    EXPECT_GT(d, 0.0);
  }
}

// --- ImportModel / ExportCatalog / rebalance primitives ---

std::vector<ImportIntermediate> SyntheticModel(int model_index,
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

TEST(ImportModelTest, FetchesBackByteIdentical) {
  TempDir dir("import");
  MistiqueOptions opts;
  opts.store.directory = dir.path() + "/store";
  opts.row_block_size = 16;
  Mistique mq;
  ASSERT_OK(mq.Open(opts));

  const std::vector<ImportIntermediate> data = SyntheticModel(3);
  ASSERT_OK_AND_ASSIGN(ModelId id, mq.ImportModel("proj", "m3", data));
  (void)id;

  FetchRequest req;
  req.project = "proj";
  req.model = "m3";
  req.intermediate = "pred";
  ASSERT_OK_AND_ASSIGN(FetchResult result, mq.Fetch(req));
  EXPECT_EQ(result.column_names, data[0].column_names);
  ASSERT_EQ(result.columns.size(), 2u);
  EXPECT_EQ(result.columns[0], data[0].columns[0]);  // bit-for-bit
  EXPECT_EQ(result.columns[1], data[0].columns[1]);
  EXPECT_TRUE(result.used_read);  // no executor: read path only

  const CatalogSummary catalog = mq.ExportCatalog();
  ASSERT_EQ(catalog.models.size(), 1u);
  EXPECT_EQ(catalog.models[0].project, "proj");
  EXPECT_EQ(catalog.models[0].name, "m3");
  ASSERT_EQ(catalog.models[0].intermediates.size(), 1u);
  EXPECT_EQ(catalog.models[0].intermediates[0].num_rows, 48u);
  EXPECT_EQ(catalog.models[0].intermediates[0].columns,
            (std::vector<std::string>{"pred", "score"}));
}

TEST(ImportModelTest, RejectsShapeMismatch) {
  TempDir dir("import_bad");
  MistiqueOptions opts;
  opts.store.directory = dir.path() + "/store";
  Mistique mq;
  ASSERT_OK(mq.Open(opts));

  std::vector<ImportIntermediate> data = SyntheticModel(0);
  data[0].columns[1].pop_back();  // rows no longer match num_rows
  EXPECT_FALSE(mq.ImportModel("proj", "bad", data).ok());
}

TEST(RebalanceTest, SplitStoreAssignsEveryModelToItsRingOwner) {
  TempDir dir("split");
  MistiqueOptions opts;
  opts.row_block_size = 16;
  opts.store.directory = dir.path() + "/src";
  Mistique src;
  ASSERT_OK(src.Open(opts));
  const int kModels = 9;
  for (int i = 0; i < kModels; ++i) {
    ASSERT_OK(
        src.ImportModel("proj", "m" + std::to_string(i), SyntheticModel(i))
            .status());
  }

  std::vector<std::unique_ptr<Mistique>> shards;
  std::vector<Mistique*> shard_ptrs;
  for (int s = 0; s < 3; ++s) {
    MistiqueOptions shard_opts = opts;
    shard_opts.store.directory = dir.path() + "/shard" + std::to_string(s);
    shards.push_back(std::make_unique<Mistique>());
    ASSERT_OK(shards.back()->Open(shard_opts));
    shard_ptrs.push_back(shards.back().get());
  }

  ShardMap map(1, ThreeShards());
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> assigned,
                       cluster::SplitStore(&src, shard_ptrs, map));
  size_t total = 0;
  for (size_t c : assigned) total += c;
  EXPECT_EQ(total, static_cast<size_t>(kModels));

  // Every model lives on exactly the shard the ring names, byte-identical
  // to the source.
  for (int i = 0; i < kModels; ++i) {
    const std::string model = "m" + std::to_string(i);
    const size_t owner = map.OwnerIndex(ShardMap::PartitionKey("proj", model));
    FetchRequest req;
    req.project = "proj";
    req.model = model;
    req.intermediate = "pred";
    ASSERT_OK_AND_ASSIGN(FetchResult from_shard, shard_ptrs[owner]->Fetch(req));
    ASSERT_OK_AND_ASSIGN(FetchResult from_src, src.Fetch(req));
    EXPECT_EQ(from_shard.columns, from_src.columns);
    for (size_t other = 0; other < shard_ptrs.size(); ++other) {
      if (other == owner) continue;
      EXPECT_EQ(shard_ptrs[other]->Fetch(req).status().code(),
                StatusCode::kNotFound);
    }
  }
}

TEST(RebalanceTest, PullModelStreamsOverTheWire) {
  TempDir dir("pull");
  MistiqueOptions opts;
  opts.row_block_size = 16;
  opts.store.directory = dir.path() + "/src";
  Mistique src;
  ASSERT_OK(src.Open(opts));
  ASSERT_OK(src.ImportModel("proj", "moving", SyntheticModel(7)).status());

  QueryService service(&src);
  net::Server server(&service);
  ASSERT_OK(server.Start());

  MistiqueOptions dst_opts = opts;
  dst_opts.store.directory = dir.path() + "/dst";
  Mistique dst;
  ASSERT_OK(dst.Open(dst_opts));

  net::ClientOptions copts;
  copts.port = server.port();
  net::Client client(copts);
  ASSERT_OK(cluster::PullModel(&client, &dst, "proj", "moving"));
  EXPECT_EQ(cluster::PullModel(&client, &dst, "proj", "absent").code(),
            StatusCode::kNotFound);

  FetchRequest req;
  req.project = "proj";
  req.model = "moving";
  req.intermediate = "pred";
  ASSERT_OK_AND_ASSIGN(FetchResult pulled, dst.Fetch(req));
  ASSERT_OK_AND_ASSIGN(FetchResult original, src.Fetch(req));
  EXPECT_EQ(pulled.columns, original.columns);
  EXPECT_EQ(pulled.column_names, original.column_names);
  server.Stop();
}

// --- Router end-to-end: split store behind 3 shard servers ---

class RouterTest : public ::testing::Test {
 protected:
  static constexpr int kModels = 8;

  void SetUp() override {
    dir_ = std::make_unique<TempDir>("router");
    MistiqueOptions opts;
    opts.row_block_size = 16;
    opts.store.directory = dir_->path() + "/oracle";
    ASSERT_OK(oracle_.Open(opts));
    for (int i = 0; i < kModels; ++i) {
      ASSERT_OK(oracle_
                    .ImportModel("proj", "m" + std::to_string(i),
                                 SyntheticModel(i))
                    .status());
    }

    // Offline split with dummy endpoints; the live map must route the
    // same because placement ignores endpoints.
    std::vector<Mistique*> shard_ptrs;
    for (int s = 0; s < 3; ++s) {
      MistiqueOptions shard_opts = opts;
      shard_opts.store.directory =
          dir_->path() + "/shard" + std::to_string(s);
      shard_stores_.push_back(std::make_unique<Mistique>());
      ASSERT_OK(shard_stores_.back()->Open(shard_opts));
      shard_ptrs.push_back(shard_stores_.back().get());
    }
    ASSERT_OK(
        cluster::SplitStore(&oracle_, shard_ptrs, ShardMap(1, ThreeShards()))
            .status());

    std::vector<ShardSpec> live;
    for (int s = 0; s < 3; ++s) {
      shard_services_.push_back(
          std::make_unique<QueryService>(shard_ptrs[s]));
      shard_servers_.push_back(
          std::make_unique<net::Server>(shard_services_.back().get()));
      ASSERT_OK(shard_servers_.back()->Start());
      ShardSpec spec;
      spec.shard_id = static_cast<uint32_t>(s);
      spec.port = shard_servers_.back()->port();
      live.push_back(spec);
    }

    RouterOptions router_options;
    router_options.health_interval_sec = 0.05;
    router_options.health_timeout_sec = 0.5;
    router_options.shard_client.backoff_initial_sec = 0.005;
    router_options.shard_client.backoff_max_sec = 0.02;
    router_ = std::make_unique<Router>(ShardMap(1, live), router_options);
    ASSERT_OK(router_->Start());
    front_ = std::make_unique<net::Server>(router_.get());
    ASSERT_OK(front_->Start());
  }

  void TearDown() override {
    if (front_) front_->Stop();
    if (router_) router_->Stop();
    for (auto& server : shard_servers_) {
      if (server) server->Stop();
    }
  }

  net::ClientOptions RouterClientOpts() {
    net::ClientOptions options;
    options.port = front_->port();
    options.backoff_initial_sec = 0.005;
    options.backoff_max_sec = 0.02;
    return options;
  }

  FetchRequest FetchReq(const std::string& model) {
    FetchRequest req;
    req.project = "proj";
    req.model = model;
    req.intermediate = "pred";
    return req;
  }

  size_t OwnerOf(const std::string& model) const {
    return router_->map().OwnerIndex(ShardMap::PartitionKey("proj", model));
  }

  /// A model owned by `shard` (and, with want_owned false, one that is
  /// not). With 8 models over 3 shards both always exist.
  std::string ModelOnShard(size_t shard, bool want_owned = true) {
    for (int i = 0; i < kModels; ++i) {
      const std::string model = "m" + std::to_string(i);
      if ((OwnerOf(model) == shard) == want_owned) return model;
    }
    ADD_FAILURE() << "no model with owner" << (want_owned ? "==" : "!=")
                  << shard;
    return "m0";
  }

  bool WaitFor(const std::function<bool()>& pred, double timeout_sec = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_sec);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  std::unique_ptr<TempDir> dir_;
  Mistique oracle_;
  std::vector<std::unique_ptr<Mistique>> shard_stores_;
  std::vector<std::unique_ptr<QueryService>> shard_services_;
  std::vector<std::unique_ptr<net::Server>> shard_servers_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<net::Server> front_;
};

TEST_F(RouterTest, FetchesMatchOracleByteForByte) {
  net::Client client(RouterClientOpts());
  for (int i = 0; i < kModels; ++i) {
    const std::string model = "m" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(FetchResult remote, client.Fetch(FetchReq(model)));
    ASSERT_OK_AND_ASSIGN(FetchResult ref, oracle_.Fetch(FetchReq(model)));
    EXPECT_EQ(remote.column_names, ref.column_names) << model;
    EXPECT_EQ(remote.columns, ref.columns) << model;  // identical doubles
    EXPECT_EQ(remote.row_ids, ref.row_ids) << model;
  }
  EXPECT_GE(router_->Stats().fetches, static_cast<uint64_t>(kModels));
}

TEST_F(RouterTest, ScatterGatherScanMatchesOracle) {
  net::Client client(RouterClientOpts());
  ScanRequest scan;
  scan.project = "proj";
  scan.model = "m2";
  scan.intermediate = "pred";
  scan.predicate_column = "score";
  scan.lo = 0;
  scan.hi = 1;
  scan.columns = {"pred", "score"};
  ASSERT_OK_AND_ASSIGN(ScanResult ref, oracle_.Scan(scan));
  ASSERT_FALSE(ref.row_ids.empty());

  ASSERT_OK_AND_ASSIGN(ScanResult remote, client.Scan(scan));
  EXPECT_EQ(remote.row_ids, ref.row_ids);
  EXPECT_EQ(remote.columns, ref.columns);
  EXPECT_EQ(remote.column_names, ref.column_names);
}

TEST_F(RouterTest, ScanOnUnknownModelIsNotFoundNotDegraded) {
  net::Client client(RouterClientOpts());
  ScanRequest scan;
  scan.project = "proj";
  scan.model = "nope";
  scan.intermediate = "pred";
  scan.predicate_column = "score";
  const Status st = client.Scan(scan).status();
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  EXPECT_FALSE(wire::IsDegraded(st));
}

TEST_F(RouterTest, RetiredTraceFramesGetAnErrorAndCloseTheConnection) {
  net::Client good(RouterClientOpts());
  ASSERT_OK(good.Fetch(FetchReq("m0")).status());
  for (const uint8_t retired : {16, 17, 24}) {
    const RawExchange exchange =
        ExchangeRawFrame(front_->port(), static_cast<wire::MsgType>(retired),
                         wire::EncodeFetchRequest(1, FetchReq("m1")));
    ASSERT_TRUE(exchange.answered) << int{retired};
    EXPECT_EQ(exchange.type, wire::MsgType::kErrorResp) << int{retired};
    EXPECT_TRUE(exchange.closed) << int{retired};
    // Other connections keep serving.
    EXPECT_OK(good.Fetch(FetchReq("m2")).status());
  }
}

TEST_F(RouterTest, ShardMapRpcAnswersAtTheRouter) {
  net::Client client(RouterClientOpts());
  ASSERT_OK_AND_ASSIGN(wire::ShardMapInfo info, client.FetchShardMap());
  EXPECT_EQ(info.version, 1u);
  ASSERT_EQ(info.shards.size(), 3u);
  for (const wire::ShardEntry& entry : info.shards) {
    EXPECT_EQ(entry.health, 0) << "shard " << entry.shard_id;
  }
}

TEST_F(RouterTest, CatalogUnionsAllShards) {
  net::Client client(RouterClientOpts());
  ASSERT_OK_AND_ASSIGN(wire::CatalogInfo catalog, client.Catalog());
  std::set<std::string> models;
  for (const wire::CatalogModel& model : catalog.models) {
    models.insert(model.model);
  }
  EXPECT_EQ(models.size(), static_cast<size_t>(kModels));
}

// Satellite (c): a scatter-gather scan with one shard unavailable must
// yield the typed degraded error — never a silent partial answer.
TEST_F(RouterTest, ScanDegradesTypedWhenAnyShardIsDown) {
  const uint64_t degraded_before = router_->Stats().degraded;
  shard_servers_[1]->Stop();

  net::Client client(RouterClientOpts());
  ScanRequest scan;
  scan.project = "proj";
  scan.model = "m0";
  scan.intermediate = "pred";
  scan.predicate_column = "score";
  const Status st = client.Scan(scan).status();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_TRUE(wire::IsDegraded(st)) << st.ToString();
  EXPECT_GT(router_->Stats().degraded, degraded_before);
}

TEST_F(RouterTest, DeadShardDegradesOnlyItsPartitions) {
  const size_t victim = 2;
  shard_servers_[victim]->Stop();
  ASSERT_TRUE(WaitFor([&] { return !router_->ShardUp(victim); }));

  net::Client client(RouterClientOpts());
  // A partition owned by the dead shard answers with the typed error...
  const Status dead =
      client.Fetch(FetchReq(ModelOnShard(victim))).status();
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable) << dead.ToString();
  EXPECT_TRUE(wire::IsDegraded(dead)) << dead.ToString();

  // ...while the rest of the key space keeps serving, byte-identical.
  const std::string alive = ModelOnShard(victim, /*want_owned=*/false);
  ASSERT_OK_AND_ASSIGN(FetchResult remote, client.Fetch(FetchReq(alive)));
  ASSERT_OK_AND_ASSIGN(FetchResult ref, oracle_.Fetch(FetchReq(alive)));
  EXPECT_EQ(remote.columns, ref.columns);
}

TEST_F(RouterTest, RestartedShardRejoinsWithoutRouterRestart) {
  const size_t victim = 0;
  const uint16_t port = shard_servers_[victim]->port();
  const uint64_t rejoins_before = router_->Stats().rejoins;
  shard_servers_[victim]->Stop();
  ASSERT_TRUE(WaitFor([&] { return !router_->ShardUp(victim); }));

  // Same store, same port, fresh service + server — as after a process
  // restart (Stop() drained the old QueryService for good; a restarted
  // shard process always builds a new one over the persisted store).
  net::ServerOptions server_options;
  server_options.port = port;
  shard_services_[victim] =
      std::make_unique<QueryService>(shard_stores_[victim].get());
  shard_servers_[victim] = std::make_unique<net::Server>(
      shard_services_[victim].get(), server_options);
  ASSERT_OK(shard_servers_[victim]->Start());
  ASSERT_EQ(shard_servers_[victim]->port(), port);
  {
    net::ClientOptions direct_opts;
    direct_opts.port = port;
    net::Client direct(direct_opts);
    ASSERT_OK(direct.Ping());
  }
  ASSERT_TRUE(WaitFor([&] { return router_->ShardUp(victim); }));
  EXPECT_GT(router_->Stats().rejoins, rejoins_before);

  net::Client client(RouterClientOpts());
  const std::string model = ModelOnShard(victim);
  ASSERT_OK_AND_ASSIGN(FetchResult remote, client.Fetch(FetchReq(model)));
  ASSERT_OK_AND_ASSIGN(FetchResult ref, oracle_.Fetch(FetchReq(model)));
  EXPECT_EQ(remote.columns, ref.columns);
}

TEST_F(RouterTest, HedgedFetchStillMatchesOracle) {
  // Hedging duplicates work against the same shard; the answer must be
  // unchanged whether the primary or the hedge wins.
  RouterOptions hedged_options;
  hedged_options.health_interval_sec = 0.05;
  hedged_options.hedge_delay_sec = 0.0001;  // hedge almost every request
  auto hedged =
      std::make_unique<Router>(router_->map(), hedged_options);
  ASSERT_OK(hedged->Start());
  net::Server front(hedged.get());
  ASSERT_OK(front.Start());

  net::ClientOptions copts;
  copts.port = front.port();
  net::Client client(copts);
  for (int i = 0; i < kModels; ++i) {
    const std::string model = "m" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(FetchResult remote, client.Fetch(FetchReq(model)));
    ASSERT_OK_AND_ASSIGN(FetchResult ref, oracle_.Fetch(FetchReq(model)));
    EXPECT_EQ(remote.columns, ref.columns) << model;
  }
  front.Stop();
  hedged->Stop();
}

// Tentpole acceptance: a traced scan through the router comes back as
// ONE assembled tree — router root, one child per live shard the
// scatter touched — while the merged rows stay byte-identical to the
// untraced path.
TEST_F(RouterTest, TracedScatterScanAssemblesOneChildPerLiveShard) {
  net::Client client(RouterClientOpts());
  ScanRequest scan;
  scan.project = "proj";
  scan.model = "m2";
  scan.intermediate = "pred";
  scan.predicate_column = "score";
  scan.lo = 0;
  scan.hi = 1;
  scan.columns = {"pred", "score"};
  ASSERT_OK_AND_ASSIGN(ScanResult ref, oracle_.Scan(scan));
  ASSERT_FALSE(ref.row_ids.empty());

  const uint64_t trace_id = obs::NewTraceId();
  client.SetTraceContext({trace_id, 0, true});
  ASSERT_OK_AND_ASSIGN(ScanResult remote, client.Scan(scan));
  std::optional<obs::QueryTrace> trace = client.TakeLastTrace();
  client.ClearTraceContext();

  EXPECT_EQ(remote.row_ids, ref.row_ids);
  EXPECT_EQ(remote.columns, ref.columns);
  EXPECT_EQ(remote.column_names, ref.column_names);

  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->trace_id, trace_id);
  EXPECT_EQ(trace->node, "router");
  EXPECT_EQ(trace->strategy, "scatter-gather");
  EXPECT_TRUE(trace->sampled);
  EXPECT_GT(trace->total_sec, 0.0);
  ASSERT_EQ(trace->children.size(), 3u);  // one child per live shard

  size_t with_rows = 0;
  size_t not_found = 0;
  for (const obs::QueryTrace& child : trace->children) {
    EXPECT_EQ(child.trace_id, trace_id) << child.node;
    EXPECT_TRUE(child.sampled) << child.node;
    EXPECT_FALSE(child.node.empty());
    if (child.strategy == "not-found") {
      ++not_found;
    } else {
      ++with_rows;
      // The owning shard's child carries its own engine scan stages.
      EXPECT_GT(child.StageSeconds("scan_decode") +
                    child.StageSeconds("scan_packed"),
                0.0)
          << child.node;
      EXPECT_GT(child.total_sec, 0.0) << child.node;
    }
  }
  // The model lives on exactly one shard; the other two scatter legs
  // answered not-found and were synthesized into the tree so shard
  // coverage stays visible.
  EXPECT_EQ(with_rows, 1u);
  EXPECT_EQ(not_found, 2u);
}

// Tentpole acceptance: hedged duplicates become visible in the trace —
// the root carries one attempt span per launch, the winner tagged, and
// only the winning attempt's child trace is grafted.
TEST_F(RouterTest, HedgedTracedFetchShowsBothAttemptsInRoot) {
  RouterOptions hedged_options;
  hedged_options.health_interval_sec = 0.05;
  hedged_options.hedge_delay_sec = 0.0001;  // hedge almost every request
  auto hedged = std::make_unique<Router>(router_->map(), hedged_options);
  ASSERT_OK(hedged->Start());
  net::Server front(hedged.get());
  ASSERT_OK(front.Start());

  net::ClientOptions copts;
  copts.port = front.port();
  net::Client client(copts);

  bool saw_hedge_attempt = false;
  for (int i = 0; i < kModels; ++i) {
    const std::string model = "m" + std::to_string(i);
    const uint64_t trace_id = obs::NewTraceId();
    client.SetTraceContext({trace_id, 0, true});
    ASSERT_OK_AND_ASSIGN(FetchResult remote, client.Fetch(FetchReq(model)));
    std::optional<obs::QueryTrace> trace = client.TakeLastTrace();
    client.ClearTraceContext();

    ASSERT_OK_AND_ASSIGN(FetchResult ref, oracle_.Fetch(FetchReq(model)));
    EXPECT_EQ(remote.columns, ref.columns) << model;

    ASSERT_TRUE(trace.has_value()) << model;
    EXPECT_EQ(trace->trace_id, trace_id) << model;
    EXPECT_EQ(trace->strategy, "forward") << model;
    ASSERT_EQ(trace->children.size(), 1u) << model;  // winner's child only
    EXPECT_EQ(trace->children[0].trace_id, trace_id) << model;

    bool primary = false;
    bool hedge = false;
    int won = 0;
    for (const obs::TraceEvent& event : trace->events()) {
      if (event.name.rfind("attempt primary", 0) == 0) primary = true;
      if (event.name.rfind("attempt hedge", 0) == 0) hedge = true;
      if (event.name.find(" (won)") != std::string::npos) ++won;
    }
    EXPECT_TRUE(primary) << model;
    EXPECT_EQ(won, 1) << model;  // exactly the winning attempt is tagged
    saw_hedge_attempt = saw_hedge_attempt || hedge;
  }
  // With a 0.1 ms hedge delay at least one of the eight fetches hedged;
  // both attempts must then be visible in that request's root.
  EXPECT_TRUE(saw_hedge_attempt);
  EXPECT_GT(hedged->Stats().hedges, 0u);

  front.Stop();
  hedged->Stop();
}

// --- Router relay: fetch answers cross the router as the owner's bytes ---

/// A shard that answers every fetch, bare or in a trace envelope, with
/// one canned kFetchResp payload, plus the health and session frames a
/// router needs. It lets a test fix the exact bytes the router receives.
class CannedShard : public net::FrameHandler {
 public:
  explicit CannedShard(std::string fetch_payload)
      : fetch_payload_(std::move(fetch_payload)) {}

  net::FrameDisposition HandleFrame(uint64_t conn_token,
                                    const wire::Frame& frame,
                                    net::Responder respond) override {
    (void)conn_token;
    switch (frame.type) {
      case wire::MsgType::kHealthReq:
        respond(wire::MsgType::kHealthResp,
                wire::EncodeHealth(wire::HealthInfo{}));
        return net::FrameDisposition::kOk;
      case wire::MsgType::kOpenSessionReq:
        respond(wire::MsgType::kOpenSessionResp, wire::EncodeSessionId(1));
        return net::FrameDisposition::kOk;
      case wire::MsgType::kCloseSessionReq:
        respond(wire::MsgType::kCloseSessionResp, "");
        return net::FrameDisposition::kOk;
      case wire::MsgType::kFetchReq:
        respond(wire::MsgType::kFetchResp, fetch_payload_);
        return net::FrameDisposition::kOk;
      case wire::MsgType::kTracedReq:
        respond(wire::MsgType::kTracedResp,
                wire::EncodeTracedResponse(wire::MsgType::kFetchResp,
                                           fetch_payload_, nullptr));
        return net::FrameDisposition::kOk;
      default:
        respond(wire::MsgType::kErrorResp,
                wire::EncodeError(Status::InvalidArgument("not canned")));
        return net::FrameDisposition::kMalformed;
    }
  }
  void OnConnectionClosed(uint64_t conn_token) override { (void)conn_token; }
  uint64_t DrainRequests(double deadline_sec) override {
    (void)deadline_sec;
    return 0;
  }

 private:
  const std::string fetch_payload_;
};

/// The router configurations a fetch can take: plain forward, hedged
/// forward, and router-side self-sampling through the traced path.
struct RelayConfig {
  const char* name;
  double hedge_delay_sec;
  double sample_rate;
};
constexpr RelayConfig kRelayConfigs[] = {
    {"plain", 0, 0}, {"hedged", 0.0001, 0}, {"self-sampled", 0, 1}};

std::unique_ptr<Router> StartRelayRouter(uint16_t shard_port,
                                         const RelayConfig& config,
                                         obs::FlightRecorder* recorder) {
  ShardSpec spec;
  spec.shard_id = 0;
  spec.port = shard_port;
  RouterOptions options;
  options.health_interval_sec = 0.05;
  options.hedge_delay_sec = config.hedge_delay_sec;
  options.flight_recorder = recorder;
  auto router = std::make_unique<Router>(ShardMap(1, {spec}), options);
  EXPECT_OK(router->Start());
  return router;
}

FetchRequest RelayFetch() {
  FetchRequest req;
  req.project = "proj";
  req.model = "vis";
  req.intermediate = "layer";
  return req;
}

TEST(RouterRelayTest, RoutedFetchReturnsTheOwnerShardsBytes) {
  // VIS-sized: a whole 8 x 8192 intermediate of doubles (~512 KiB), with
  // values a decode + re-encode could silently alter.
  FetchResult vis;
  Rng rng(15);
  for (int c = 0; c < 8; ++c) {
    vis.column_names.push_back("c" + std::to_string(c));
    std::vector<double> col(8192);
    for (double& v : col) v = rng.NextDouble() * 2 - 1;
    col[0] = -0.0;
    col[1] = std::nan("0x123");
    col[2] = std::numeric_limits<double>::denorm_min();
    vis.columns.push_back(std::move(col));
  }
  vis.used_read = true;
  vis.fetch_seconds = 0.001;
  const std::string payload = wire::EncodeFetchResult(vis);
  ASSERT_GT(payload.size(), 512u * 1024);

  CannedShard shard(payload);
  net::Server shard_server(&shard);
  ASSERT_OK(shard_server.Start());
  net::ClientOptions direct_options;
  direct_options.port = shard_server.port();
  net::Client direct(direct_options);
  ASSERT_OK_AND_ASSIGN(std::string owner, direct.FetchPayload(RelayFetch()));
  ASSERT_TRUE(owner == payload);

  for (const RelayConfig& config : kRelayConfigs) {
    obs::FlightRecorderOptions recorder_options;
    recorder_options.sample_rate = config.sample_rate;
    obs::FlightRecorder recorder(recorder_options);
    std::unique_ptr<Router> router =
        StartRelayRouter(shard_server.port(), config, &recorder);
    net::Server front(router.get());
    ASSERT_OK(front.Start());
    net::ClientOptions options;
    options.port = front.port();
    net::Client client(options);

    ASSERT_OK_AND_ASSIGN(std::string routed, client.FetchPayload(RelayFetch()));
    EXPECT_TRUE(routed == owner) << config.name;
    ASSERT_OK_AND_ASSIGN(FetchResult decoded, client.Fetch(RelayFetch()));
    EXPECT_EQ(decoded.column_names, vis.column_names) << config.name;

    // A client-sampled trace: the router answers in an envelope, and the
    // fetch payload inside it is still the owner's, byte for byte.
    const uint64_t trace_id = obs::NewTraceId();
    client.SetTraceContext({trace_id, 0, true});
    ASSERT_OK_AND_ASSIGN(std::string traced,
                         client.FetchPayload(RelayFetch()));
    std::optional<obs::QueryTrace> trace = client.TakeLastTrace();
    client.ClearTraceContext();
    EXPECT_TRUE(traced == owner) << config.name;
    ASSERT_TRUE(trace.has_value()) << config.name;
    EXPECT_EQ(trace->trace_id, trace_id) << config.name;
    EXPECT_EQ(trace->strategy, "forward") << config.name;

    front.Stop();
    router->Stop();
  }
  shard_server.Stop();
}

TEST(RouterRelayTest, TruncatedShardAnswerBecomesAnErrorFrame) {
  FetchResult result;
  result.column_names = {"pred"};
  result.columns = {{1.0, 2.0, 3.0}};
  const std::string good = wire::EncodeFetchResult(result);
  CannedShard shard(good.substr(0, good.size() - 1));
  net::Server shard_server(&shard);
  ASSERT_OK(shard_server.Start());

  for (const RelayConfig& config : kRelayConfigs) {
    obs::FlightRecorderOptions recorder_options;
    recorder_options.sample_rate = config.sample_rate;
    obs::FlightRecorder recorder(recorder_options);
    std::unique_ptr<Router> router =
        StartRelayRouter(shard_server.port(), config, &recorder);
    const std::string request = wire::EncodeFetchRequest(1, RelayFetch());
    wire::Frame bare;
    bare.type = wire::MsgType::kFetchReq;
    bare.payload = request;
    wire::Frame enveloped;
    enveloped.type = wire::MsgType::kTracedReq;
    enveloped.payload = wire::EncodeTracedRequest(
        {obs::NewTraceId(), 0, true}, wire::MsgType::kFetchReq, request);
    for (const wire::Frame* frame : {&bare, &enveloped}) {
      // Driven in-process, so the test sees the frame type the router
      // answers with: an error, never the shard's bytes relayed on.
      std::promise<std::pair<wire::MsgType, std::string>> answered;
      ASSERT_EQ(router->HandleFrame(
                    1, *frame,
                    [&answered](wire::MsgType type, std::string payload) {
                      answered.set_value({type, std::move(payload)});
                    }),
                net::FrameDisposition::kOk);
      const auto [type, body] = answered.get_future().get();
      ASSERT_EQ(type, wire::MsgType::kErrorResp)
          << config.name << " " << static_cast<int>(frame->type);
      EXPECT_EQ(wire::DecodeError(body).code(), StatusCode::kCorruption)
          << config.name << " " << static_cast<int>(frame->type);
    }
    EXPECT_TRUE(router->ShardUp(0)) << config.name;
    router->Stop();
  }
  shard_server.Stop();
}

// --- Router teardown with hedged attempts still in flight ---

/// A shard whose fetches answer only after `stall_sec`, each from a thread
/// of its own, so a router's hedge fires and both attempts are still
/// outstanding when a test acts. Health probes and session frames answer
/// at once.
class StallingShard : public net::FrameHandler {
 public:
  StallingShard(std::string fetch_payload, double stall_sec)
      : fetch_payload_(std::move(fetch_payload)), stall_sec_(stall_sec) {}
  /// Stop the server first: no frame arrives after that.
  ~StallingShard() override {
    for (std::thread& thread : threads_) thread.join();
  }
  StallingShard(const StallingShard&) = delete;
  StallingShard& operator=(const StallingShard&) = delete;

  net::FrameDisposition HandleFrame(uint64_t conn_token,
                                    const wire::Frame& frame,
                                    net::Responder respond) override {
    (void)conn_token;
    switch (frame.type) {
      case wire::MsgType::kHealthReq:
        respond(wire::MsgType::kHealthResp,
                wire::EncodeHealth(wire::HealthInfo{}));
        return net::FrameDisposition::kOk;
      case wire::MsgType::kOpenSessionReq:
        respond(wire::MsgType::kOpenSessionResp, wire::EncodeSessionId(1));
        return net::FrameDisposition::kOk;
      case wire::MsgType::kCloseSessionReq:
        respond(wire::MsgType::kCloseSessionResp, "");
        return net::FrameDisposition::kOk;
      case wire::MsgType::kFetchReq:
        threads_.emplace_back([this, respond = std::move(respond)] {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(stall_sec_));
          respond(wire::MsgType::kFetchResp, fetch_payload_);
        });
        return net::FrameDisposition::kOk;
      default:
        respond(wire::MsgType::kErrorResp,
                wire::EncodeError(Status::InvalidArgument("not stalled")));
        return net::FrameDisposition::kMalformed;
    }
  }
  void OnConnectionClosed(uint64_t conn_token) override { (void)conn_token; }
  uint64_t DrainRequests(double deadline_sec) override {
    (void)deadline_sec;
    return 0;
  }

 private:
  const std::string fetch_payload_;
  const double stall_sec_;
  /// One per stalled fetch; touched only on the server's I/O thread.
  std::vector<std::thread> threads_;
};

TEST(RouterTeardownTest, DestroyingARouterWithHedgesInFlightIsSafe) {
  FetchResult result;
  result.column_names = {"pred"};
  result.columns = {{1.0, 2.0, 3.0}};
  StallingShard shard(wire::EncodeFetchResult(result), /*stall_sec=*/0.2);
  net::Server shard_server(&shard);
  ASSERT_OK(shard_server.Start());

  obs::FlightRecorderOptions recorder_options;
  recorder_options.sample_rate = 0;
  obs::FlightRecorder recorder(recorder_options);
  const RelayConfig hedged{"hedged", /*hedge_delay_sec=*/0.02,
                           /*sample_rate=*/0};
  std::unique_ptr<Router> router =
      StartRelayRouter(shard_server.port(), hedged, &recorder);
  const uint64_t hedges_before = router->Stats().hedges;

  wire::Frame frame;
  frame.type = wire::MsgType::kFetchReq;
  frame.payload = wire::EncodeFetchRequest(1, RelayFetch());
  std::promise<wire::MsgType> answered;
  ASSERT_EQ(router->HandleFrame(1, frame,
                                [&answered](wire::MsgType type, std::string) {
                                  answered.set_value(type);
                                }),
            net::FrameDisposition::kOk);
  // Wait for the hedge: the primary and the hedge now both stall in the
  // shard.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router->Stats().hedges == hedges_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(router->Stats().hedges, hedges_before);

  // Destruction waits for the forward's first answer; the losing attempt
  // is still in flight and finishes after the router is gone.
  router.reset();
  EXPECT_EQ(answered.get_future().get(), wire::MsgType::kFetchResp);
  // Let the losing attempt land before the shard goes away.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  shard_server.Stop();
}

}  // namespace
}  // namespace mistique
