// serve_routed: the serving stack. Four client connections in a closed
// loop send Table 5's query shapes through a front net::Server whose
// handler is a cluster::Router over three shard servers, all in this
// process. The synthetic models are imported with KBIT (k=8), placed on
// shards by the router's ShardMap, and sized to fit every shard's buffer
// pool, which set-up warms — so wire encode/decode, the server I/O
// threads, the router hop, service admission, snapshot pins and the
// packed scan kernels do the work, and disk, decompression and nn do none.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "common.h"
#include "core/mistique.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "replay.h"
#include "serve_kinds.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

using namespace mistique;  // NOLINT: driver brevity.

constexpr int kModels = 12;
constexpr int kColumns = 16;
constexpr uint64_t kRows = 4096;
constexpr int kShards = 3;
constexpr int kClients = 4;
constexpr int kSetupReps = 3;
constexpr size_t kShardPoolBytes = 32u << 20;
constexpr uint64_t kRowBlock = 512;
/// Requests of one op vary their rows (or row count) over this many
/// shifts, and clients take turns at them, so a client repeats a request
/// only every kShifts / kClients = 16 cycles. The router's pooled shard
/// sessions are shared by all front clients; at 16 cycles each of them
/// sees well over its 32-entry result cache of other requests between two
/// repeats, so the caches miss. (With repeats every 4 cycles, about one
/// lookup in ten hit.)
/// Set-up warms with shift kShifts, which no timed request uses. The timed
/// phase's cache hits and lookups are printed on the info line.
constexpr uint64_t kShifts = 64;
constexpr const char* kProject = "bench";

using namespace serve;  // NOLINT: the shared query shapes.
/// Copies of each kind in one client's cycle. A steadiness device, not
/// measured traffic: POINTQ outnumbers TOPK 3 to 1, so fcfr_p50_ms
/// measures POINTQ rather than falling between the two shapes.
const int kCopies[] = {9, 3, 8, 8, 3};

struct Op {
  Kind kind = kPoint;
  int model = 0;
  int col = 0;
  uint64_t row = 0;
  double lo = 0;
  double hi = 0;
};

std::string ModelName(int m) { return "m" + std::to_string(m); }
std::string ColName(int c) { return "c" + std::to_string(c); }

/// Fixed synthetic data: smooth per-column signals plus hashed noise, so
/// KBIT bins and LZSS both have structure to work with.
ImportIntermediate ModelData(int m) {
  ImportIntermediate in;
  in.name = "act";
  in.stage_index = 1;
  in.num_rows = kRows;
  in.scheme = QuantScheme::kKBit;
  in.kbits = 8;
  Rng rng(1000 + static_cast<uint64_t>(m));
  for (int c = 0; c < kColumns; ++c) {
    in.column_names.push_back(ColName(c));
    std::vector<double> col(kRows);
    const double freq = 0.001 * (1 + c + m);
    for (uint64_t r = 0; r < kRows; ++r) {
      col[r] = std::sin(freq * static_cast<double>(r) + m) * (1.0 + 0.1 * c) +
               0.25 * rng.Gaussian();
    }
    in.columns.push_back(std::move(col));
  }
  return in;
}

struct Cluster {
  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::vector<std::unique_ptr<Mistique>> shards;
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<net::Server> front;
  cluster::ShardMap map;
  std::vector<double> import_s;
  double catalog_save_s = 0;

  void Stop() {
    if (front) front->Stop();
    if (router) router->Stop();
    for (auto& server : servers) server->Stop();
  }
  ~Cluster() { Stop(); }

  size_t Owner(int model) const {
    return map.OwnerIndex(
        cluster::ShardMap::PartitionKey(kProject, ModelName(model)));
  }
};

MistiqueOptions StoreOptions(const std::string& dir) {
  MistiqueOptions o;
  o.store.directory = dir;
  o.store.memory_budget_bytes = kShardPoolBytes;
  o.store.partition_target_bytes = 1u << 20;
  o.row_block_size = kRowBlock;
  // One encode thread keeps the imports single-threaded, so they can
  // rotate over the cores (CoreRotation).
  o.encode_threads = 1;
  return o;
}

/// Builds the shards (each model imported with KBIT on the shard the
/// ShardMap assigns it) and starts the servers and the router.
std::unique_ptr<Cluster> BuildCluster(const std::string& dir,
                                      const std::vector<ImportIntermediate>&
                                          data) {
  auto c = std::make_unique<Cluster>();
  std::vector<cluster::ShardSpec> specs;
  for (int s = 0; s < kShards; ++s) {
    c->shards.push_back(std::make_unique<Mistique>());
    CheckOk(c->shards.back()->Open(
                StoreOptions(dir + "/shard" + std::to_string(s))),
            "open shard");
    cluster::ShardSpec spec;
    spec.shard_id = static_cast<uint32_t>(s);
    specs.push_back(spec);
  }
  c->map = cluster::ShardMap(1, specs);
  // Open started the engines' encode threads; importing starts none.
  std::optional<CoreRotation> rotate(std::in_place);
  for (int m = 0; m < kModels; ++m) {
    const double t0 = Now();
    CheckOk(c->shards[c->Owner(m)]
                ->ImportModel(kProject, ModelName(m), {data[m]})
                .status(),
            "import");
    c->import_s.push_back(Now() - t0);
  }
  rotate.reset();
  const double t_save = Now();
  for (auto& shard : c->shards) {
    CheckOk(shard->Flush(), "flush shard");
    CheckOk(shard->SaveCatalog(), "save catalog");
  }
  c->catalog_save_s = (Now() - t_save) / kShards;

  std::vector<cluster::ShardSpec> live;
  for (int s = 0; s < kShards; ++s) {
    QueryServiceOptions so;
    so.num_workers = 2;
    so.node_name = "shard" + std::to_string(s);
    c->services.push_back(
        std::make_unique<QueryService>(c->shards[s].get(), so));
    c->servers.push_back(std::make_unique<net::Server>(c->services.back().get()));
    CheckOk(c->servers.back()->Start(), "shard server start");
    cluster::ShardSpec spec = specs[s];
    spec.port = c->servers.back()->port();
    live.push_back(spec);
  }
  cluster::RouterOptions ro;
  ro.num_workers = kClients;
  ro.max_idle_clients_per_shard = 2 * kClients;
  c->router = std::make_unique<cluster::Router>(cluster::ShardMap(1, live), ro);
  CheckOk(c->router->Start(), "router start");
  c->front = std::make_unique<net::Server>(c->router.get());
  CheckOk(c->front->Start(), "front start");
  return c;
}

std::vector<Op> MakeOps(uint64_t seed, int client) {
  Rng rng(SubSeed(seed, 200 + static_cast<uint64_t>(client)));
  std::vector<std::pair<double, Op>> placed;
  for (int k = 0; k < static_cast<int>(kNumKinds); ++k) {
    for (int copy = 0; copy < kCopies[k]; ++copy) {
      Op op;
      op.kind = static_cast<Kind>(k);
      op.model = (copy + client) % kModels;
      op.col = static_cast<int>(rng.NextBelow(kColumns));
      op.row = rng.NextBelow(kRows);
      // Predicate windows of ~2% of a column's range around a seeded
      // level: a selective scan, as in "rows where neuron k fires".
      const double center = -0.8 + 1.6 * (copy + rng.NextDouble()) / kCopies[k];
      op.lo = center - 0.02;
      op.hi = center + 0.02;
      placed.push_back({(copy + 0.5) / kCopies[k] + k * 1e-6, op});
    }
  }
  return CycleOrder(std::move(placed));
}

/// The request an op sends on its `shift`-th use.
FetchRequest FetchFor(const Op& op, uint64_t shift) {
  FetchRequest r;
  r.project = kProject;
  r.model = ModelName(op.model);
  r.intermediate = "act";
  switch (op.kind) {
    case kPoint:
      r.columns = {ColName(op.col)};
      for (uint64_t i = 0; i < 4; ++i) {
        r.row_ids.push_back((op.row + shift * 997 + i * 4099) % kRows);
      }
      break;
    case kTopK:
      r.columns = {ColName(op.col)};
      r.n_ex = kRows - shift;
      break;
    case kRow:
      for (uint64_t i = 0; i < 4; ++i) {
        r.row_ids.push_back((op.row + shift * 613 + i * 2053) % kRows);
      }
      break;
    case kVis:
      r.n_ex = kRows - shift;
      break;
    default:
      break;
  }
  return r;
}

ScanRequest ScanFor(const Op& op) {
  ScanRequest r;
  r.project = kProject;
  r.model = ModelName(op.model);
  r.intermediate = "act";
  r.predicate_column = ColName(op.col);
  r.lo = op.lo;
  r.hi = op.hi;
  return r;
}

/// What one op received over the wire.
struct Answer {
  FetchResult fetch;
  ScanResult scan;
};

/// Sends one op through `client`. The client-side diagnostics compute is
/// part of the op.
Status RunOp(net::Client* client, const Op& op, uint64_t shift,
             Answer* answer) {
  if (op.kind == kScan) {
    MISTIQUE_ASSIGN_OR_RETURN(answer->scan, client->Scan(ScanFor(op)));
    return Status::OK();
  }
  MISTIQUE_ASSIGN_OR_RETURN(answer->fetch,
                            client->Fetch(FetchFor(op, shift)));
  Diagnose(op.kind, answer->fetch);
  return Status::OK();
}

/// Hash of every byte the op received, for the byte-identical checks.
uint64_t HashAnswer(const Op& op, const Answer& answer) {
  return op.kind == kScan ? HashScan(answer.scan) : HashFetch(answer.fetch);
}

/// First answer hash per (op, shift), plus mismatches of later repeats.
struct AnswerLog {
  std::map<std::pair<size_t, uint64_t>, std::pair<uint64_t, uint64_t>> first;
  uint64_t mismatches = 0;
  void Record(size_t op, uint64_t shift, uint64_t hash) {
    auto [it, inserted] = first.try_emplace({op, shift}, hash, 0);
    it->second.second++;
    if (!inserted && it->second.first != hash) ++mismatches;
  }
};

/// Client `k`'s closed loop until `end` (or one cycle when end < 0). `k`
/// picks the shifts the client sends.
void ClientLoop(uint16_t port, int k, const std::vector<Op>& ops, double end,
                Tally* tally, AnswerLog* log) {
  net::ClientOptions co;
  co.port = port;
  net::Client client(co);
  for (uint64_t i = 0; end < 0 ? i < ops.size() : Now() < end; ++i) {
    const size_t j = i % ops.size();
    const uint64_t shift = ((i / ops.size()) * kClients + k) % kShifts;
    Answer answer;
    const double t0 = Now();
    const Status st = RunOp(&client, ops[j], shift, &answer);
    const double dt = Now() - t0;
    tally->attempted++;
    if (!st.ok()) {
      tally->errors++;
      continue;
    }
    tally->samples.push_back({ops[j].kind, kCategory[ops[j].kind], dt});
    if (log != nullptr) log->Record(j, shift, HashAnswer(ops[j], answer));
  }
}

struct ServeCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t rejected = 0;
  uint64_t wal_bytes = 0;

  static ServeCounters Read(const Cluster& c) {
    ServeCounters out;
    for (size_t s = 0; s < c.shards.size(); ++s) {
      const ServiceStats st = c.services[s]->Stats();
      out.cache_hits += st.cache_hits;
      out.cache_lookups += st.cache_lookups;
      out.rejected += st.rejected;
      out.wal_bytes += FileBytes(c.shards[s]->options().store.directory +
                                 "/catalog.wal");
    }
    return out;
  }
};

/// The traced pass: one client's cycle, each op sent through the router
/// (the op itself) and stacked through the owner shard's Mistique, its
/// QueryService and a direct Client; then the layer replays.
void TracedPass(Cluster& c, const std::vector<Op>& ops, Spans* spans,
                Tally* tally, std::map<std::string, double>* layer) {
  net::ClientOptions co;
  co.port = c.front->port();
  net::Client front(co);
  std::vector<std::unique_ptr<net::Client>> direct;
  std::vector<SessionId> sessions;
  for (int s = 0; s < kShards; ++s) {
    net::ClientOptions dco;
    dco.port = c.servers[s]->port();
    direct.push_back(std::make_unique<net::Client>(dco));
    sessions.push_back(c.services[s]->OpenSession());
  }
  const uint64_t packed0 = CounterValue("mistique_scan_packed_blocks_total");
  const uint64_t decode0 = CounterValue("mistique_scan_decode_blocks_total");
  const uint64_t read0 = CounterValue("mistique_fetch_read_total");
  const uint64_t rerun0 = CounterValue("mistique_fetch_rerun_total");
  const uint64_t hits0 = CounterValue("mistique_buffer_pool_hits_total");
  const uint64_t loads0 = CounterValue("mistique_buffer_pool_loads_total");
  const ServeCounters sc0 = ServeCounters::Read(c);
  const cluster::RouterStats rs0 = c.router->Stats();
  for (uint64_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const uint64_t id = i + 1;
    // Shifts no other request sends (set-up's warm-up uses kShifts), so
    // the session caches miss.
    const uint64_t shift = kShifts + 1 + i;
    const size_t owner = c.Owner(op.model);
    Mistique* engine = c.shards[owner].get();
    tally->attempted++;
    if (op.kind == kScan) {
      const ScanRequest req = ScanFor(op);
      Result<ScanResult> routed(Status::Internal("unset"));
      const double t0 = Now();
      {
        Spans::Scope span(spans, "op", id);
        Spans::Scope hop(spans, "cluster.router_scan", id);
        routed = front.Scan(req);
      }
      const double dt = Now() - t0;
      if (!routed.ok()) {
        tally->errors++;
        continue;
      }
      tally->samples.push_back({op.kind, kCategory[op.kind], dt});
      Spans::Scope stack(spans, "stack", id);
      {
        Spans::Scope span(spans, "core.fetch", id);
        (void)engine->Scan(req);
      }
      {
        Spans::Scope span(spans, "service.call", id);
        (void)c.services[owner]->Scan(sessions[owner], req);
      }
      for (int s = 0; s < kShards; ++s) {
        Spans::Scope span(spans, "net.direct_scan", id);
        (void)direct[s]->Scan(req);
      }
      std::string payload;
      {
        Spans::Scope span(spans, "net.encode", id);
        payload = wire::EncodeScanResult(*routed);
        span.set_work(static_cast<double>(payload.size()));
      }
      {
        Spans::Scope span(spans, "net.decode", id);
        ScanResult back;
        (void)wire::DecodeScanResult(payload, &back);
      }
      FetchRequest pred;
      pred.project = req.project;
      pred.model = req.model;
      pred.intermediate = req.intermediate;
      pred.columns = {req.predicate_column};
      ReplayPackedScan(engine, ChunksOf(engine, pred), req.lo, req.hi, spans,
                       id);
      continue;
    }
    const FetchRequest req = FetchFor(op, shift);
    Result<FetchResult> routed(Status::Internal("unset"));
    const double t0 = Now();
    {
      Spans::Scope span(spans, "op", id);
      Spans::Scope hop(spans, "cluster.router", id);
      routed = front.Fetch(req);
      if (routed.ok() && op.kind != kPoint) {
        Spans::Scope diag(spans, kDiagSpan[op.kind], id);
        Diagnose(op.kind, *routed);
      }
    }
    const double dt = Now() - t0;
    if (!routed.ok()) {
      tally->errors++;
      continue;
    }
    tally->samples.push_back({op.kind, kCategory[op.kind], dt});
    Spans::Scope stack(spans, "stack", id);
    {
      Spans::Scope span(spans, "core.fetch", id);
      (void)engine->Fetch(req);
    }
    {
      Spans::Scope span(spans, "service.call", id);
      (void)c.services[owner]->Fetch(sessions[owner], req);
    }
    {
      Spans::Scope span(spans, "net.direct", id);
      (void)direct[owner]->Fetch(req);
    }
    std::string payload;
    {
      Spans::Scope span(spans, "net.encode", id);
      payload = wire::EncodeFetchResult(*routed);
      span.set_work(static_cast<double>(payload.size()));
    }
    {
      Spans::Scope span(spans, "net.decode", id);
      FetchResult back;
      (void)wire::DecodeFetchResult(payload, &back);
    }
    ReplayDecode(engine, ChunksOf(engine, req), spans, id);
  }
  // The "cluster.router" span holds the client-side diagnostics compute;
  // hop = router - direct is taken on the fetch alone.
  const cluster::RouterStats rs1 = c.router->Stats();
  const ServeCounters sc1 = ServeCounters::Read(c);
  std::map<std::string, double>& L = *layer;
  const double n_ops = static_cast<double>(ops.size());
  L["scan.packed_blocks"] = static_cast<double>(
      CounterValue("mistique_scan_packed_blocks_total") - packed0);
  L["scan.decode_blocks"] = static_cast<double>(
      CounterValue("mistique_scan_decode_blocks_total") - decode0);
  L["core.read_picks"] =
      static_cast<double>(CounterValue("mistique_fetch_read_total") - read0);
  L["core.rerun_picks"] =
      static_cast<double>(CounterValue("mistique_fetch_rerun_total") - rerun0);
  L["storage.pool_hits"] = static_cast<double>(
      CounterValue("mistique_buffer_pool_hits_total") - hits0);
  L["storage.pool_loads"] = static_cast<double>(
      CounterValue("mistique_buffer_pool_loads_total") - loads0);
  L["service.rejected"] = static_cast<double>(sc1.rejected - sc0.rejected);
  L["durability.wal_bytes_per_op"] =
      static_cast<double>(sc1.wal_bytes - sc0.wal_bytes) / n_ops;
  L["cluster.retries"] = static_cast<double>(rs1.retries - rs0.retries);
  L["cluster.hedges"] = static_cast<double>(rs1.hedges - rs0.hedges);
  for (int s = 0; s < kShards; ++s) {
    (void)c.services[s]->CloseSession(sessions[s]);
  }
}

}  // namespace

std::vector<std::string> ServeRoutedKinds() {
  return std::vector<std::string>(kKindNames, kKindNames + kNumKinds);
}

void RunServeRouted(const Args& args, RunResult* out) {
  std::vector<ImportIntermediate> data;
  std::unique_ptr<Cluster> c;
  std::vector<std::vector<Op>> ops(kClients);
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    c.reset();
    std::filesystem::remove_all(args.work_dir + "/rep" +
                                std::to_string(rep - 1));
    const double t0 = Now();
    data.clear();
    for (int m = 0; m < kModels; ++m) data.push_back(ModelData(m));
    c = BuildCluster(args.work_dir + "/rep" + std::to_string(rep), data);
    for (int k = 0; k < kClients; ++k) ops[k] = MakeOps(args.seed, k);
    // Warm-up: one pass of every model through the router fills each
    // shard's buffer pool and the router's connection pools.
    {
      net::ClientOptions co;
      co.port = c->front->port();
      net::Client warm(co);
      for (int m = 0; m < kModels; ++m) {
        Op op;
        op.kind = kVis;
        op.model = m;
        Answer answer;
        CheckOk(RunOp(&warm, op, kShifts, &answer), "warm-up");
      }
    }
    out->setup_s.push_back(Now() - t0);
    out->ingest_s.insert(out->ingest_s.end(), c->import_s.begin(),
                         c->import_s.end());
  }
  const double model_values = kColumns * static_cast<double>(kRows);
  out->ingest_unit.trad = model_values;
  double stored = 0;
  for (auto& shard : c->shards) {
    stored += static_cast<double>(shard->StorageFootprintBytes());
  }
  out->info["stored_bytes"] = stored;
  out->info["pool_bytes_per_shard"] = static_cast<double>(kShardPoolBytes);
  out->info["ops_per_cycle"] = static_cast<double>(ops[0].size());
  if (stored > static_cast<double>(kShardPoolBytes)) {
    Fatal("the stored bytes do not fit a shard's buffer pool");
  }
  uint64_t per_cat[kNumCategories] = {0, 0, 0, 0};
  for (const auto& client_ops : ops) {
    for (const Op& op : client_ops) per_cat[kCategory[op.kind]]++;
  }
  for (int k = 0; k < kNumCategories; ++k) {
    out->counts[std::string("ops.") + CategoryName(k)] =
        static_cast<double>(per_cat[k]);
  }

  std::vector<Tally> tallies(kClients);
  std::vector<AnswerLog> logs(kClients);
  if (args.trace) {
    // One client at a time sends each client's cycle, untraced (with that
    // client's shifts, as in the timed phase's first cycle) and then
    // traced, after an unrecorded pass on shifts neither uses that warms
    // the connections and the router's.
    std::vector<Op> all;
    for (const auto& client_ops : ops) {
      all.insert(all.end(), client_ops.begin(), client_ops.end());
    }
    Tally warm;
    for (int k = 0; k < kClients; ++k) {
      ClientLoop(c->front->port(), kClients + k, ops[k], -1, &warm, nullptr);
    }
    const ServeCounters plain0 = ServeCounters::Read(*c);
    for (int k = 0; k < kClients; ++k) {
      ClientLoop(c->front->port(), k, ops[k], -1, &out->plain_pass, nullptr);
    }
    const ServeCounters plain1 = ServeCounters::Read(*c);
    TracedPass(*c, all, &out->spans, &out->traced_pass, &out->layer);
    // Session caches as the plain pass, which routes like the timed phase,
    // used them.
    out->layer["service.cache_hits"] =
        static_cast<double>(plain1.cache_hits - plain0.cache_hits);
    out->layer["service.cache_lookups"] =
        static_cast<double>(plain1.cache_lookups - plain0.cache_lookups);
    ReplaySyncWrite(c->shards[0].get(), &out->spans);
    out->layer["metadata.catalog_save_ms"] = c->catalog_save_s * 1e3;
    double retired = 0, reclaimed = 0;
    for (auto& shard : c->shards) {
      retired += static_cast<double>(shard->snapshots().retired_snapshots());
      reclaimed +=
          static_cast<double>(shard->snapshots().snapshots_reclaimed());
    }
    out->layer["mvcc.retired_max"] = retired;
    out->layer["mvcc.reclaimed"] = reclaimed;
    for (const auto& [k, v] : out->counts) out->layer[k] = v;
  } else {
    const ServeCounters timed0 = ServeCounters::Read(*c);
    const double start = Now();
    const double end = start + args.seconds;
    std::vector<std::thread> threads;
    for (int k = 0; k < kClients; ++k) {
      threads.emplace_back(ClientLoop, c->front->port(), k, std::cref(ops[k]),
                           end, &tallies[k], &logs[k]);
    }
    for (auto& t : threads) t.join();
    out->measured_s = Now() - start;
    out->peak_rss_kb = PeakRssKb();
    for (const Tally& t : tallies) out->timed.Merge(t);
    const ServeCounters timed1 = ServeCounters::Read(*c);
    out->info["service.cache_hits"] =
        static_cast<double>(timed1.cache_hits - timed0.cache_hits);
    out->info["service.cache_lookups"] =
        static_cast<double>(timed1.cache_lookups - timed0.cache_lookups);
  }
  c->Stop();

  // Checks, after the timed phase: every answer must be byte-identical to
  // the in-process answer of an unsplit store on the decode path
  // (enable_packed_scan = false), and every repeat of a request must match
  // its first answer.
  const double t_check = Now();
  if (!args.trace) {
    MistiqueOptions ro = StoreOptions(args.work_dir + "/reference");
    ro.enable_packed_scan = false;
    Mistique reference;
    CheckOk(reference.Open(ro), "open reference");
    for (int m = 0; m < kModels; ++m) {
      CheckOk(reference.ImportModel(kProject, ModelName(m), {data[m]})
                  .status(),
              "reference import");
    }
    CheckOk(reference.Flush(), "reference flush");
    for (int k = 0; k < kClients; ++k) {
      out->timed.wrong += logs[k].mismatches;
      for (const auto& [key, entry] : logs[k].first) {
        const Op& op = ops[k][key.first];
        uint64_t want = 0;
        if (op.kind == kScan) {
          Result<ScanResult> r = reference.Scan(ScanFor(op));
          if (r.ok()) want = HashScan(*r);
        } else {
          Result<FetchResult> r = reference.Fetch(FetchFor(op, key.second));
          if (r.ok()) want = HashFetch(*r);
        }
        if (want != entry.first) {
          out->timed.wrong += entry.second;
          std::fprintf(stderr, "serve_routed: client %d op %zu (%s) differs "
                       "from the unsplit decode-path store\n", k, key.first,
                       kKindNames[op.kind]);
        }
      }
    }
  }

  out->info["check_s"] = Now() - t_check;
  double footprint = 0;
  for (auto& shard : c->shards) {
    CheckOk(shard->Flush(), "final flush");
    footprint += static_cast<double>(shard->StorageFootprintBytes());
  }
  out->footprint_bytes = footprint;
  out->live.trad = model_values * kModels;
}

}  // namespace perfbench
