// ingest_serve: writes beside reads. One writer thread logs CIFAR-CNN
// checkpoints back to back (LogNetwork, KBIT k=8, DEDUP, sync_writes on)
// and, once more than kKeepLive are live, deletes the oldest with
// DeleteModel + Vacuum, so the store stays bounded. Two reader threads
// issue Table 5's query shapes through an in-process QueryService against
// the newest published checkpoints, never one queued for deletion. The
// write side of storage, compress and quantize runs here (quantize, LZSS
// encode, durable seal, WAL, publish, vacuum), and reader latency shows
// the writer's interference.
//
// The writer logs a fixed number of checkpoints (kCkptsPerSecond per
// requested second) and the timed phase lasts until it is done, so the
// final store — and storage_ratio — repeat exactly for a seed. The writer
// sustains about 2.1 per second beside the readers on a 4-core x86 VM, so
// there the phase lasts about 1.6 times the requested time. (At 2 per
// second the phase was shorter, but query_p99_ms spread 0.27-0.29 over ten
// seeds, against 0.06-0.12 at 3.5.)

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/mistique.h"
#include "nn/cifar.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "quantize/quantizer.h"
#include "replay.h"
#include "serve_kinds.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

using namespace mistique;  // NOLINT: driver brevity.

constexpr int kExamples = 64;
constexpr int kSetupCkpts = 2;
constexpr int kKeepLive = 4;
constexpr double kCkptsPerSecond = 3.5;
constexpr int kSetupReps = 3;
constexpr int kReaders = 2;
constexpr uint64_t kRowBlock = 64;
/// Each op sends one of kShifts variants of its request per cycle; see
/// FetchFor.
constexpr uint64_t kShifts = 4;
constexpr const char* kProject = "train";
const int kLayers[] = {6, 7, 8};  // pool2 (1024 cols), fc1 (128), fc2 (10)

using namespace serve;  // NOLINT: the shared query shapes.
/// Copies of each kind in one reader's cycle. A steadiness device, not
/// measured traffic: POINTQ outnumbers TOPK 3 to 1, so fcfr_p50_ms
/// measures POINTQ rather than falling between the two shapes.
const int kCopies[] = {9, 3, 8, 8, 4};

struct Op {
  Kind kind = kPoint;
  int copy = 0;  // index among its kind's copies in the cycle
  int layer = 7;
  int col = 0;
  int rank = 0;  // 0 = newest live checkpoint, 1 = the one before
  uint64_t row = 0;
  double lo = 0;
  double hi = 0;
};

/// CIFAR10_CNN (BuildCifarCnn's layers, at a quarter of its widths)
/// fine-tuned with the convolutional trunk frozen, as the paper fine-tunes
/// VGG16. Checkpoints differ in the dense head, so the trunk dedups
/// exactly and the stored bytes do not drift with the seeded weight walk.
std::unique_ptr<Network> BuildFineTunedCnn() {
  auto net = std::make_unique<Network>("CIFAR10_CNN");
  constexpr int kNarrow = 8, kWide = 16, kDense = 128;
  constexpr bool kFrozen = true;
  uint64_t seed = 1099;
  net->AddLayer(std::make_unique<Conv2dLayer>("conv1", 3, kNarrow, 3, seed++),
                kFrozen);
  net->AddLayer(
      std::make_unique<Conv2dLayer>("conv2", kNarrow, kNarrow, 3, seed++),
      kFrozen);
  net->AddLayer(std::make_unique<MaxPoolLayer>("pool1"), kFrozen);
  net->AddLayer(
      std::make_unique<Conv2dLayer>("conv3", kNarrow, kWide, 3, seed++),
      kFrozen);
  net->AddLayer(std::make_unique<Conv2dLayer>("conv4", kWide, kWide, 3, seed++),
                kFrozen);
  net->AddLayer(std::make_unique<MaxPoolLayer>("pool2"), kFrozen);
  net->AddLayer(std::make_unique<DenseLayer>("fc1", kWide * 8 * 8, kDense,
                                             seed++, /*relu=*/true));
  net->AddLayer(std::make_unique<DenseLayer>("fc2", kDense, 10, seed++,
                                             /*relu=*/false));
  net->AddLayer(std::make_unique<SoftmaxLayer>("softmax"));
  return net;
}

std::string CkptName(int c) { return "cnn_ckpt" + std::to_string(c); }
std::string ColName(int c) { return "n" + std::to_string(c); }

/// Live, published checkpoints, oldest first. The writer appends after
/// LogNetwork returns and removes an entry before deleting it, so a
/// reader never picks a checkpoint queued for deletion.
class LiveSet {
 public:
  void Publish(int ckpt) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.push_back(ckpt);
    publish_time_[ckpt] = Now();
  }
  int RetireOldest() {
    std::lock_guard<std::mutex> lock(mu_);
    const int oldest = live_.front();
    live_.erase(live_.begin());
    return oldest;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_.size();
  }
  /// The rank-th newest live checkpoint (clamped).
  int Pick(int rank) const {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t r = std::min<size_t>(rank, live_.size() - 1);
    return live_[live_.size() - 1 - r];
  }
  std::vector<int> Live() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }
  /// First successful read of `ckpt`: publish-to-visible delay.
  void NoteRead(int ckpt) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = publish_time_.find(ckpt);
    if (it != publish_time_.end() && !visible_.count(ckpt)) {
      visible_[ckpt] = Now() - it->second;
    }
  }
  std::vector<double> VisibleDelays() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const auto& [ckpt, d] : visible_) out.push_back(d);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int> live_;
  std::map<int, double> publish_time_;
  std::map<int, double> visible_;
};

struct Store {
  std::unique_ptr<Network> net;
  std::shared_ptr<const Tensor> input;
  std::unique_ptr<Mistique> mq;
  std::unique_ptr<QueryService> service;
  LiveSet live;
  int next_ckpt = 0;
  uint64_t seed = 0;
  uint64_t offered = 0;       // chunk references logged (dedup offers)
  uint64_t duplicates = 0;
  uint64_t layer_cols[10] = {};
  double catalog_save_s = 0;
};

MistiqueOptions StoreOptions(const std::string& dir) {
  MistiqueOptions o;
  o.store.directory = dir;
  o.strategy = StorageStrategy::kDedup;
  o.dnn_scheme = QuantScheme::kKBit;
  o.kbits = 8;
  o.row_block_size = kRowBlock;
  o.calibrate_on_open = true;
  return o;
}

uint64_t ModelChunkRefs(Mistique* mq, const std::string& model) {
  const ModelId id = CheckOk(mq->metadata().FindModel(kProject, model), "find");
  const ModelInfo* m = CheckOk(std::as_const(mq->metadata()).GetModel(id),
                               "model");
  uint64_t refs = 0;
  for (const IntermediateInfo& in : m->intermediates) {
    for (const ColumnInfo& c : in.columns) refs += c.chunks.size();
  }
  return refs;
}

/// Logs the next checkpoint (seeded perturbation) and publishes it to
/// readers; returns the LogNetwork wall time.
double LogNext(Store* s, Spans* spans) {
  const int c = s->next_ckpt++;
  if (c > 0) {
    s->net->PerturbTrainable(SubSeed(s->seed, 300 + c), 0.05);
  }
  const uint64_t dup0 = s->mq->dedup().duplicate_chunks();
  const double t0 = Now();
  {
    Spans::Scope span(spans, "ingest.log_network", 0);
    CheckOk(s->mq->LogNetwork(s->net.get(), s->input, kProject, CkptName(c))
                .status(),
            "log network");
  }
  const double dt = Now() - t0;
  s->live.Publish(c);
  s->duplicates += s->mq->dedup().duplicate_chunks() - dup0;
  s->offered += ModelChunkRefs(s->mq.get(), CkptName(c));
  return dt;
}

void DeleteOldest(Store* s, Spans* spans) {
  const int oldest = s->live.RetireOldest();
  Spans::Scope span(spans, "ingest.delete_vacuum", 0);
  CheckOk(s->mq->DeleteModel(kProject, CkptName(oldest)), "delete");
  CheckOk(s->mq->Vacuum().status(), "vacuum");
}

std::unique_ptr<Store> Build(uint64_t seed, const std::string& dir) {
  auto s = std::make_unique<Store>();
  s->seed = seed;
  CifarConfig cc;
  cc.num_examples = kExamples;
  s->input = std::make_shared<Tensor>(GenerateCifar(cc).images);
  s->net = BuildFineTunedCnn();
  s->mq = std::make_unique<Mistique>();
  CheckOk(s->mq->Open(StoreOptions(dir)), "open");
  for (int i = 0; i < kSetupCkpts; ++i) LogNext(s.get(), nullptr);
  const double t_save = Now();
  CheckOk(s->mq->SaveCatalog(), "save catalog");
  s->catalog_save_s = Now() - t_save;
  const ModelId id =
      CheckOk(s->mq->metadata().FindModel(kProject, CkptName(0)), "find");
  for (int layer : kLayers) {
    s->layer_cols[layer] =
        CheckOk(std::as_const(s->mq->metadata())
                    .FindIntermediate(id, "layer" + std::to_string(layer)),
                "interm")
            ->columns.size();
  }
  QueryServiceOptions so;
  so.num_workers = kReaders;
  s->service = std::make_unique<QueryService>(s->mq.get(), so);
  return s;
}

std::vector<Op> MakeOps(uint64_t seed, int reader, const Store& s) {
  Rng rng(SubSeed(seed, 400 + static_cast<uint64_t>(reader)));
  std::vector<std::pair<double, Op>> placed;
  for (int k = 0; k < static_cast<int>(kNumKinds); ++k) {
    for (int copy = 0; copy < kCopies[k]; ++copy) {
      Op op;
      op.kind = static_cast<Kind>(k);
      op.copy = copy;
      // VIS and TOPK read fc1 / fc2; the rest rotate over all three.
      op.rank = copy % 2;
      op.layer = kLayers[k == kVis || k == kTopK ? 1 + (copy / 2) % 2
                                                 : copy % 3];
      op.col = static_cast<int>(rng.NextBelow(s.layer_cols[op.layer]));
      op.row = rng.NextBelow(kExamples);
      const double center = rng.Uniform(0.2, 0.8);
      op.lo = center;
      op.hi = center + 1.0;
      placed.push_back({(copy + 0.5) / kCopies[k] + k * 1e-6, op});
    }
  }
  return CycleOrder(std::move(placed));
}

/// The request an op sends on its `shift`-th variant. No two (copy,
/// shift) of one kind send the same request: a row pair {x, x + 1 + copy}
/// names the copy by its gap and the shift by its start, and a leading-rows
/// fetch drops shift * copies + copy rows. So a session repeats a request
/// only after kShifts cycles (128 requests), far beyond its 32-entry result
/// cache, whichever checkpoint each rank resolves to as the writer
/// publishes.
FetchRequest FetchFor(const Op& op, int ckpt, uint64_t shift) {
  FetchRequest r;
  r.project = kProject;
  r.model = CkptName(ckpt);
  r.intermediate = "layer" + std::to_string(op.layer);
  const uint64_t x = (op.row + shift) % kExamples;
  const uint64_t pair[] = {x, (x + 1 + static_cast<uint64_t>(op.copy)) %
                                  kExamples};
  const uint64_t drop =
      shift * static_cast<uint64_t>(kCopies[op.kind]) +
      static_cast<uint64_t>(op.copy);
  switch (op.kind) {
    case kPoint:
      r.columns = {ColName(op.col)};
      r.row_ids.assign(pair, pair + 2);
      break;
    case kTopK:
      r.columns = {ColName(op.col)};
      r.n_ex = kExamples - drop;
      break;
    case kRow:
      r.row_ids.assign(pair, pair + 2);
      break;
    case kVis:
      r.n_ex = kExamples - drop;
      break;
    default:
      break;
  }
  return r;
}

ScanRequest ScanFor(const Op& op, int ckpt) {
  ScanRequest r;
  r.project = kProject;
  r.model = CkptName(ckpt);
  r.intermediate = "layer" + std::to_string(op.layer);
  r.predicate_column = ColName(op.col);
  r.lo = op.lo;
  r.hi = op.hi;
  return r;
}

struct AnswerLog {
  // (ckpt, op, shift) -> (first hash, reads)
  std::map<std::tuple<int, size_t, uint64_t>, std::pair<uint64_t, uint64_t>>
      first;
  uint64_t mismatches = 0;
  void Record(int ckpt, size_t op, uint64_t shift, uint64_t hash) {
    auto [it, inserted] = first.try_emplace({ckpt, op, shift}, hash, 0);
    it->second.second++;
    if (!inserted && it->second.first != hash) ++mismatches;
  }
};

/// One reader's closed loop while `running` holds.
void ReaderLoop(Store* s, const std::vector<Op>& ops,
                const std::atomic<bool>* running, Tally* tally,
                AnswerLog* log, Spans* spans, uint64_t* retired_max) {
  const SessionId session = s->service->OpenSession();
  for (uint64_t i = 0; running->load(); ++i) {
    const size_t j = i % ops.size();
    const Op& op = ops[j];
    const uint64_t shift = (i / ops.size()) % kShifts;
    const int ckpt = s->live.Pick(op.rank);
    const uint64_t id = (static_cast<uint64_t>(session) << 32) | (i + 1);
    uint64_t hash = 0;
    Status st;
    const double t0 = Now();
    double dt = 0;
    if (op.kind == kScan) {
      const ScanRequest req = ScanFor(op, ckpt);
      Result<ScanResult> r(Status::Internal("unset"));
      {
        Spans::Scope span(spans, "op", id);
        Spans::Scope svc(spans, "service.call", id);
        r = s->service->Scan(session, req);
      }
      dt = Now() - t0;
      st = r.status();
      if (r.ok()) hash = HashScan(*r);
      if (spans != nullptr && r.ok()) {
        Spans::Scope stack(spans, "stack", id);
        Spans::Scope core(spans, "core.fetch", id);
        (void)s->mq->Scan(req);
      }
    } else {
      const FetchRequest req = FetchFor(op, ckpt, shift);
      Result<FetchResult> r(Status::Internal("unset"));
      {
        Spans::Scope span(spans, "op", id);
        {
          Spans::Scope svc(spans, "service.call", id);
          r = s->service->Fetch(session, req);
        }
        if (r.ok() && op.kind != kPoint) {
          Spans::Scope diag(spans, kDiagSpan[op.kind], id);
          Diagnose(op.kind, *r);
        }
      }
      dt = Now() - t0;
      st = r.status();
      if (r.ok()) hash = HashFetch(*r);
      if (spans != nullptr && r.ok()) {
        Spans::Scope stack(spans, "stack", id);
        Spans::Scope core(spans, "core.fetch", id);
        (void)s->mq->Fetch(req);
      }
    }
    tally->attempted++;
    if (!st.ok()) {
      tally->errors++;
      std::fprintf(stderr, "ingest_serve: %s on %s failed: %s\n",
                   kKindNames[op.kind], CkptName(ckpt).c_str(),
                   st.ToString().c_str());
      continue;
    }
    tally->samples.push_back({op.kind, kCategory[op.kind], dt});
    s->live.NoteRead(ckpt);
    if (log != nullptr) log->Record(ckpt, j, shift, hash);
    *retired_max = std::max<uint64_t>(
        *retired_max, s->mq->snapshots().retired_snapshots());
  }
  (void)s->service->CloseSession(session);
}

/// Engine and service counters read around the traced phase.
struct PhaseCounters {
  uint64_t read = 0, rerun = 0, mispredictions = 0, hits = 0, loads = 0;
  uint64_t disk_bytes = 0, packed = 0, decoded = 0;
  ServiceStats service;

  static PhaseCounters Read(Store* s) {
    PhaseCounters c;
    c.read = CounterValue("mistique_fetch_read_total");
    c.rerun = CounterValue("mistique_fetch_rerun_total");
    c.mispredictions =
        CounterValue("mistique_cost_model_mispredictions_total");
    c.hits = CounterValue("mistique_buffer_pool_hits_total");
    c.loads = CounterValue("mistique_buffer_pool_loads_total");
    c.packed = CounterValue("mistique_scan_packed_blocks_total");
    c.decoded = CounterValue("mistique_scan_decode_blocks_total");
    c.disk_bytes = s->mq->store().disk_read_bytes();
    c.service = s->service->Stats();
    return c;
  }

  /// Writes this-minus-`before` into the per-layer values.
  void Put(const PhaseCounters& before,
           std::map<std::string, double>* layer) const {
    std::map<std::string, double>& L = *layer;
    const double ops = static_cast<double>(
        std::max<uint64_t>(service.submitted - before.service.submitted, 1));
    L["core.read_picks"] = static_cast<double>(read - before.read);
    L["core.rerun_picks"] = static_cast<double>(rerun - before.rerun);
    L["core.mispredictions"] =
        static_cast<double>(mispredictions - before.mispredictions);
    L["storage.pool_hits"] = static_cast<double>(hits - before.hits);
    L["storage.pool_loads"] = static_cast<double>(loads - before.loads);
    L["storage.disk_read_kb_per_op"] =
        static_cast<double>(disk_bytes - before.disk_bytes) / 1024.0 / ops;
    L["scan.packed_blocks"] = static_cast<double>(packed - before.packed);
    L["scan.decode_blocks"] = static_cast<double>(decoded - before.decoded);
    L["service.cache_hits"] =
        static_cast<double>(service.cache_hits - before.service.cache_hits);
    L["service.cache_lookups"] = static_cast<double>(
        service.cache_lookups - before.service.cache_lookups);
    L["service.rejected"] =
        static_cast<double>(service.rejected - before.service.rejected);
  }
};

/// Replays the write-side layer calls for the newest checkpoint: the
/// forward pass, KBIT quantization of its activations, and a read-back
/// and re-encode of its partitions with the store's codec.
void ReplayCheckpoint(Store* s, Spans* spans) {
  std::vector<std::vector<double>> acts;
  {
    Spans::Scope span(spans, "nn.forward", 0);
    auto capture = [&](int, const std::string&, const Tensor& t) -> Status {
      acts.emplace_back(t.data.begin(), t.data.end());
      return Status::OK();
    };
    CheckOk(s->net->Forward(*s->input, 0, capture).status(), "forward");
  }
  for (const auto& values : acts) {
    Spans::Scope span(spans, "quantize.encode", 0,
                      static_cast<double>(values.size()));
    KBitQuantizer q(8);
    CheckOk(q.Fit(values), "fit");
    (void)q.Quantize(values);
  }
  const std::string model = CkptName(s->next_ckpt - 1);
  std::vector<ChunkLoc> locs;
  for (int layer = 1; layer <= 9; ++layer) {
    FetchRequest r;
    r.project = kProject;
    r.model = model;
    r.intermediate = "layer" + std::to_string(layer);
    const std::vector<ChunkLoc> l = ChunksOf(s->mq.get(), r);
    locs.insert(locs.end(), l.begin(), l.end());
  }
  ReplayReads(s->mq.get(), locs, 1u << 20, spans, 0);
}

}  // namespace

std::vector<std::string> IngestServeKinds() {
  return std::vector<std::string>(kKindNames, kKindNames + kNumKinds);
}

void RunIngestServe(const Args& args, RunResult* out) {
  std::unique_ptr<Store> s;
  std::vector<std::vector<Op>> ops(kReaders);
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    s.reset();
    std::filesystem::remove_all(args.work_dir + "/rep" +
                                std::to_string(rep - 1));
    const double t0 = Now();
    s = Build(args.seed, args.work_dir + "/rep" + std::to_string(rep));
    for (int k = 0; k < kReaders; ++k) ops[k] = MakeOps(args.seed, k, *s);
    out->setup_s.push_back(Now() - t0);
  }
  out->ingest_unit =
      LoggedValues(s->mq.get(), kProject, CkptName(s->next_ckpt - 1), *s->net);
  uint64_t per_cat[kNumCategories] = {0, 0, 0, 0};
  for (const auto& reader_ops : ops) {
    for (const Op& op : reader_ops) per_cat[kCategory[op.kind]]++;
  }
  for (int k = 0; k < kNumCategories; ++k) {
    out->counts[std::string("ops.") + CategoryName(k)] =
        static_cast<double>(per_cat[k]);
  }

  const int ckpts = static_cast<int>(std::ceil(kCkptsPerSecond * args.seconds));
  // A traced run measures an untraced phase and a traced phase, half the
  // checkpoints each.
  const int phases = args.trace ? 2 : 1;
  std::vector<AnswerLog> logs(kReaders);
  uint64_t retired_max = 0;
  const uint64_t wal0 =
      FileBytes(s->mq->options().store.directory + "/catalog.wal");
  Tally all_reads;
  PhaseCounters traced0, traced1;
  const ServiceStats service0 = s->service->Stats();
  for (int phase = 0; phase < phases; ++phase) {
    Spans* spans = args.trace && phase == 1 ? &out->spans : nullptr;
    Tally* dest = !args.trace ? &out->timed
                  : phase == 0 ? &out->plain_pass
                               : &out->traced_pass;
    if (spans != nullptr) traced0 = PhaseCounters::Read(s.get());
    std::atomic<bool> running{true};
    std::vector<Tally> tallies(kReaders);
    std::vector<uint64_t> retired(kReaders, 0);
    const double start = Now();
    std::vector<std::thread> readers;
    for (int k = 0; k < kReaders; ++k) {
      readers.emplace_back(ReaderLoop, s.get(), std::cref(ops[k]),
                           &running, &tallies[k],
                           args.trace ? nullptr : &logs[k], spans,
                           &retired[k]);
    }
    for (int c = 0; c < ckpts / phases; ++c) {
      const double dt = LogNext(s.get(), spans);
      if (!args.trace) out->ingest_s.push_back(dt);
      if (s->live.size() > kKeepLive) DeleteOldest(s.get(), spans);
    }
    running = false;
    for (auto& t : readers) t.join();
    const double elapsed = Now() - start;
    if (!args.trace) out->measured_s = elapsed;
    for (const Tally& t : tallies) dest->Merge(t);
    for (uint64_t r : retired) retired_max = std::max(retired_max, r);
    if (spans != nullptr) traced1 = PhaseCounters::Read(s.get());
    all_reads.attempted += dest->attempted;
  }
  out->peak_rss_kb = PeakRssKb();
  // Session-cache use while readers ran: printed so a gain that came from
  // caching shows.
  const ServiceStats service1 = s->service->Stats();
  out->info["service.cache_hits"] =
      static_cast<double>(service1.cache_hits - service0.cache_hits);
  out->info["service.cache_lookups"] =
      static_cast<double>(service1.cache_lookups - service0.cache_lookups);
  const uint64_t wal1 =
      FileBytes(s->mq->options().store.directory + "/catalog.wal");
  s->service.reset();

  // Checks, after the writer stopped: every read of one (checkpoint, op)
  // must have returned the same answer, and for checkpoints still live
  // that answer must equal a re-fetch on the quiet store.
  const double t_check = Now();
  const std::vector<int> live = s->live.Live();
  for (int k = 0; k < kReaders && !args.trace; ++k) {
    out->timed.wrong += logs[k].mismatches;
    for (const auto& [key, entry] : logs[k].first) {
      const auto& [ckpt, j, shift] = key;
      if (std::find(live.begin(), live.end(), ckpt) == live.end()) continue;
      const Op& op = ops[k][j];
      uint64_t want = 0;
      if (op.kind == kScan) {
        Result<ScanResult> r = s->mq->Scan(ScanFor(op, ckpt));
        if (r.ok()) want = HashScan(*r);
      } else {
        Result<FetchResult> r = s->mq->Fetch(FetchFor(op, ckpt, shift));
        if (r.ok()) want = HashFetch(*r);
      }
      if (want != entry.first) {
        out->timed.wrong += entry.second;
        std::fprintf(stderr, "ingest_serve: %s on %s differs from the quiet "
                     "re-fetch\n", kKindNames[op.kind],
                     CkptName(ckpt).c_str());
      }
    }
  }

  out->info["check_s"] = Now() - t_check;
  CheckOk(s->mq->Flush(), "final flush");
  out->footprint_bytes = static_cast<double>(s->mq->StorageFootprintBytes());
  out->live = CatalogValues(s->mq.get(), *s->net);
  out->counts["dedup.duplicate_share"] =
      static_cast<double>(s->duplicates) /
      static_cast<double>(std::max<uint64_t>(s->offered, 1));
  out->info["checkpoints"] = static_cast<double>(s->next_ckpt);
  out->info["live_checkpoints"] = static_cast<double>(live.size());

  if (args.trace) {
    std::map<std::string, double>& L = out->layer;
    const std::vector<double> delays = s->live.VisibleDelays();
    std::vector<double> sorted = delays;
    std::sort(sorted.begin(), sorted.end());
    L["mvcc.publish_visible_ms"] =
        sorted.empty() ? 0 : sorted[sorted.size() / 2] * 1e3;
    L["mvcc.retired_max"] = static_cast<double>(retired_max);
    L["mvcc.reclaimed"] =
        static_cast<double>(s->mq->snapshots().snapshots_reclaimed());
    L["durability.wal_bytes_per_op"] =
        static_cast<double>(wal1 - wal0) /
        static_cast<double>(std::max<uint64_t>(all_reads.attempted, 1));
    L["core.rho_d_mb_s"] =
        s->mq->cost_model().params().read_bytes_per_sec / 1e6;
    L["core.rho_p_mb_s"] =
        s->mq->cost_model().params().packed_read_bytes_per_sec / 1e6;
    // Write-side replays run after the readers stopped, so they do not
    // load the traced phase.
    for (int i = 0; i < 3; ++i) ReplayCheckpoint(s.get(), &out->spans);
    ReplaySyncWrite(s->mq.get(), &out->spans);
    L["metadata.catalog_save_ms"] = s->catalog_save_s * 1e3;
    traced1.Put(traced0, &L);
    for (const auto& [k, v] : out->counts) L[k] = v;
  }
}

}  // namespace perfbench
