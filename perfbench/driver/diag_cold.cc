// diag_cold: the paper's own setting (Fig. 5). One in-process Mistique,
// one client in a closed loop, issuing Table 5's diagnostic queries — each
// a fetch plus its diagnostics compute (paper Eq. 1) — against two Zillow
// pipeline variants and VGG16-CIFAR logged at a few checkpoints, stored
// under DEDUP + LP_QT + POOL_QT(2) with calibration on. The buffer pool
// holds at most a quarter of the stored bytes, so reads go to disk and
// LZSS decode; layer-1 fetches pick re-runs.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/mistique.h"
#include "diagnostics/queries.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "quantize/quantizer.h"
#include "replay.h"

namespace perfbench {
namespace {

using namespace mistique;  // NOLINT: driver brevity.
namespace dq = diagnostics;

// Source 0 is Zillow; 1..3 are VGG layers 1, 11, 21.
constexpr int kNumSources = 4;

// ---------------------------------------------------------------- sizes

constexpr size_t kZillowProperties = 1000;
constexpr int kDnnExamples = 128;
constexpr int kCheckpoints = 3;
constexpr int kSetupReps = 3;
constexpr uint64_t kRowBlock = 64;
constexpr size_t kPartitionBytes = 256u << 10;
/// The buffer pool keeps little beyond the partition loaded last (it never
/// evicts that one), so an op's first touch of a partition always goes to
/// disk and pool hits do not depend on which targets a seed drew.
constexpr size_t kPoolBytes = 4u << 10;
constexpr double kTolerance = 1e-6;  // LP_QT(32), as tests/mistique_dnn_test
const int kLayers[] = {1, 11, 21};

enum Kind : uint32_t {
  kPointQ, kTopK, kColDiff, kColDist, kKnn, kRowDiff, kVis, kSvcca, kNumKinds
};
const char* const kKindNames[] = {"POINTQ", "TOPK", "COL_DIFF", "COL_DIST",
                                  "KNN",    "ROW_DIFF", "VIS", "SVCCA"};
const char* const kSourceNames[] = {"zillow", "layer1", "layer11",
                                    "layer21"};

uint32_t CategoryOf(Kind kind) {
  switch (kind) {
    case kPointQ: case kTopK: return kFcfr;
    case kColDiff: case kColDist: return kFcmr;
    case kKnn: case kRowDiff: return kMcfr;
    default: return kMcmr;
  }
}


/// How many of each (kind, source) one cycle of the op list holds, by
/// source {zillow, layer1, layer11, layer21}. The weights are a steadiness
/// device, not measured or cited traffic (the paper's Fig. 5 runs each
/// query once per intermediate). Costs differ 1000x across shapes, so a
/// median that fell between two shapes would jump with any small change
/// in the mix. Each category therefore has one anchor shape holding about
/// half its ops, with the rest split below and above it, and its p50
/// measures that anchor: POINTQ/layer1, COL_DIFF/zillow, ROW_DIFF/zillow
/// and VIS/layer11. The overall median and p99 land inside shapes too
/// (p99 at the top of SVCCA/zillow, with SVCCA/layer11 under 1% of ops).
/// The other shapes move queries_per_s and p99 only; run.py prints every
/// shape's median. SVCCA on layer 1 is left out (tens of seconds of linear
/// algebra per query).
constexpr int kCopies[8][4] = {
    {4, 24, 2, 4},   // POINTQ
    {2, 8, 4, 2},    // TOPK
    {24, 4, 2, 4},   // COL_DIFF
    {2, 4, 4, 4},    // COL_DIST
    {2, 2, 2, 4},    // KNN
    {36, 2, 4, 4},   // ROW_DIFF
    {8, 6, 16, 8},   // VIS
    {4, 0, 1, 4},    // SVCCA
};

int CopiesPerCycle(Kind kind, int source) { return kCopies[kind][source]; }

struct Op {
  Kind kind = kPointQ;
  int source = 0;
  int ckpt = 0;
  int ckpt_b = 0;
  size_t col = 0;     // column index, or channel for DNN POINTQ
  size_t group = 0;   // Zillow categorical column for COL_DIFF
  uint64_t row_a = 0;
  uint64_t row_b = 0;
};

// -------------------------------------------------------------- the store

// Members the engine points into come first, so the engine is destroyed
// before them.
struct Store {
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  std::unique_ptr<Network> net;
  std::shared_ptr<const Tensor> input;
  std::unique_ptr<Mistique> mq;
  std::vector<int> labels;
  std::string dir;
  // Column counts per source (for seeded targets).
  size_t x_all_cols = 0;
  size_t train_merged_rows = 0;
  size_t layer_cols[kNumSources] = {0, 0, 0, 0};
  uint64_t dedup_offered = 0;
  uint64_t dedup_duplicates = 0;
  RawValues live;
  double ckpt_values = 0;
  std::vector<double> log_network_s;
  double log_pipeline_s = 0;
  double catalog_save_s = 0;
};

std::string CkptName(int c) { return "vgg_ckpt" + std::to_string(c); }

const IntermediateInfo& Interm(Mistique* mq, const std::string& project,
                               const std::string& model,
                               const std::string& name) {
  const ModelId id = CheckOk(mq->metadata().FindModel(project, model), "find");
  return *CheckOk(std::as_const(mq->metadata()).FindIntermediate(id, name),
                  "interm");
}

uint64_t ChunkRefs(Mistique* mq) {
  uint64_t refs = 0;
  for (ModelId id : mq->metadata().ListModels()) {
    const ModelInfo* m = CheckOk(std::as_const(mq->metadata()).GetModel(id),
                                 "model");
    for (const IntermediateInfo& in : m->intermediates) {
      for (const ColumnInfo& c : in.columns) refs += c.chunks.size();
    }
  }
  return refs;
}

/// Builds the store. The datasets and the initial weights are fixed; the
/// seed moves the checkpoint perturbations (and, in MakeOps, the targets).
Store Build(uint64_t seed, const std::string& dir) {
  Store s;
  s.dir = dir;
  std::filesystem::create_directories(dir);

  ZillowConfig zc;
  zc.num_properties = kZillowProperties;
  zc.num_train = kZillowProperties * 3 / 4;
  zc.num_test = kZillowProperties / 4;
  const std::string csv_dir = dir + "/zillow_csv";
  CheckOk(WriteZillowCsvs(GenerateZillow(zc), csv_dir), "zillow csvs");

  CifarConfig cc;
  cc.num_examples = kDnnExamples;
  CifarData data = GenerateCifar(cc);
  s.labels = data.labels;
  s.input = std::make_shared<Tensor>(std::move(data.images));

  MistiqueOptions opts;
  opts.store.directory = dir + "/store";
  opts.store.partition_target_bytes = kPartitionBytes;
  opts.store.memory_budget_bytes = kPoolBytes;
  opts.strategy = StorageStrategy::kDedup;
  opts.dnn_scheme = QuantScheme::kLp32;
  opts.pool_sigma = 2;
  opts.row_block_size = kRowBlock;
  opts.calibrate_on_open = true;
  // One encode thread keeps set-up single-threaded, so it can rotate over
  // the cores like the timed phase (CoreRotation).
  opts.encode_threads = 1;
  s.mq = std::make_unique<Mistique>();
  CheckOk(s.mq->Open(opts), "open");

  // Open started the engine's encode threads; logging starts none.
  std::optional<CoreRotation> rotate(std::in_place);
  const double t_pipe = Now();
  for (int variant = 0; variant < 2; ++variant) {
    s.pipelines.push_back(
        CheckOk(BuildZillowPipeline(1, variant, csv_dir), "pipeline"));
    CheckOk(s.mq->LogPipeline(s.pipelines.back().get(), "zillow").status(),
            "log pipeline");
  }
  s.log_pipeline_s = Now() - t_pipe;

  DnnScaleConfig dc;
  s.net = BuildVgg16Cifar(dc);
  for (int c = 0; c < kCheckpoints; ++c) {
    if (c > 0) s.net->PerturbTrainable(SubSeed(seed, 10 + c), 0.05);
    const double t0 = Now();
    CheckOk(s.mq->LogNetwork(s.net.get(), s.input, "cifar", CkptName(c))
                .status(),
            "log network");
    s.log_network_s.push_back(Now() - t0);
  }
  CheckOk(s.mq->Flush(), "flush");
  const double t_save = Now();
  CheckOk(s.mq->SaveCatalog(), "save catalog");
  s.catalog_save_s = Now() - t_save;
  rotate.reset();

  s.x_all_cols = Interm(s.mq.get(), "zillow", "P1_v0", "x_all").columns.size();
  s.train_merged_rows =
      Interm(s.mq.get(), "zillow", "P1_v0", "x_all").num_rows;
  for (int src = 1; src < kNumSources; ++src) {
    const IntermediateInfo& in =
        Interm(s.mq.get(), "cifar", CkptName(0),
               "layer" + std::to_string(kLayers[src - 1]));
    s.layer_cols[src] = in.columns.size();
  }
  s.live = CatalogValues(s.mq.get(), *s.net);
  s.ckpt_values = LoggedValues(s.mq.get(), "cifar", CkptName(0), *s.net).dnn;
  s.dedup_duplicates = s.mq->dedup().duplicate_chunks();
  s.dedup_offered = ChunkRefs(s.mq.get());
  return s;
}

// ---------------------------------------------------------------- op list

/// Sample label: kind x source, named by DiagColdKinds().
uint32_t KindId(const Op& op) {
  return static_cast<uint32_t>(op.kind) * kNumSources +
         static_cast<uint32_t>(op.source);
}

/// Draws a value from stratum `k` of `strata` equal slices of [0, n), so
/// every cycle covers the range the same way whatever the seed.
uint64_t Stratified(Rng& rng, uint64_t n, int k, int strata) {
  const uint64_t lo = n * static_cast<uint64_t>(k) / strata;
  const uint64_t hi = n * static_cast<uint64_t>(k + 1) / strata;
  return lo + rng.NextBelow(std::max<uint64_t>(hi - lo, 1));
}

/// One cycle of ops: CopiesPerCycle of every (kind, source), each copy's
/// targets drawn from its own stratum of rows and columns. The order is
/// fixed — every group's copies spread evenly over the cycle — so the seed
/// moves targets only, never the mix or its interleaving.
std::vector<Op> MakeOps(uint64_t seed, const Store& s) {
  Rng rng(SubSeed(seed, 100));
  std::vector<std::pair<double, Op>> placed;
  int group = 0;
  for (int k = 0; k < static_cast<int>(kNumKinds); ++k) {
    for (int src = 0; src < kNumSources; ++src, ++group) {
      const int copies = CopiesPerCycle(static_cast<Kind>(k), src);
      for (int copy = 0; copy < copies; ++copy) {
        Op op;
        op.kind = static_cast<Kind>(k);
        op.source = src;
        op.ckpt = copy % kCheckpoints;
        op.ckpt_b = (op.ckpt + 1 + copy / kCheckpoints % (kCheckpoints - 1)) %
                    kCheckpoints;
        const uint64_t rows = src == 0 ? s.train_merged_rows : kDnnExamples;
        const uint64_t cols = src == 0 ? s.x_all_cols : s.layer_cols[src];
        op.col = Stratified(rng, cols, copy, copies);
        op.group = rng.NextBelow(ZillowCategoricalColumns().size());
        // A re-run forwards rows up to the largest id, so both rows come
        // from the copy's stratum: nearby examples, as in "home 50 vs 55".
        op.row_a = Stratified(rng, rows, copy, copies);
        op.row_b = (op.row_a + 1 + rng.NextBelow(8)) % rows;
        placed.push_back({(copy + 0.5) / copies + group * 1e-6, op});
      }
    }
  }
  // Consecutive ops come from different sources wherever the mix allows,
  // so no op finds the previous op's partition still in the pool.
  std::vector<Op> pending = CycleOrder(std::move(placed));
  std::vector<Op> ops;
  while (!pending.empty()) {
    auto next = pending.begin();
    while (!ops.empty() && next != pending.end() &&
           next->source == ops.back().source) {
      ++next;
    }
    if (next == pending.end()) next = pending.begin();
    ops.push_back(*next);
    pending.erase(next);
  }
  return ops;
}

// ---------------------------------------------------------------- fetchers

/// Where an op's fetches go: the live engine (cost-model pick), or a
/// reference table per intermediate fetched once with a forced strategy.
class Fetcher {
 public:
  Fetcher(Store* s, Spans* spans, std::optional<bool> force)
      : s_(s), spans_(spans), force_(force) {}

  Result<FetchResult> Fetch(FetchRequest req, uint64_t op) {
    if (!force_.has_value()) {
      Spans::Scope span(spans_, "core.fetch", op);
      Result<FetchResult> r = s_->mq->Fetch(req);
      if (r.ok()) issued_.push_back({req, r->used_read});
      return r;
    }
    return Reference(req);
  }

  /// True when a fetch of the current op re-ran the model.
  bool AnyRerun() const {
    for (const auto& [req, used_read] : issued_) {
      if (!used_read) return true;
    }
    return false;
  }
  /// Live fetches of the current op and whether each read the store.
  const std::vector<std::pair<FetchRequest, bool>>& issued() const {
    return issued_;
  }
  void ResetOp() { issued_.clear(); }

 private:
  Result<FetchResult> Reference(const FetchRequest& req) {
    const std::string key = req.project + "." + req.model + "." +
                            req.intermediate;
    auto it = tables_.find(key);
    if (it == tables_.end()) {
      FetchRequest all;
      all.project = req.project;
      all.model = req.model;
      all.intermediate = req.intermediate;
      all.force_read = *force_;
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult full, s_->mq->Fetch(all));
      it = tables_.emplace(key, std::move(full)).first;
    }
    const FetchResult& full = it->second;
    FetchResult out;
    std::vector<size_t> cols;
    if (req.columns.empty()) {
      for (size_t c = 0; c < full.column_names.size(); ++c) cols.push_back(c);
    } else {
      for (const std::string& name : req.columns) {
        auto pos = std::find(full.column_names.begin(),
                             full.column_names.end(), name);
        if (pos == full.column_names.end()) {
          return Status::NotFound("reference column " + name);
        }
        cols.push_back(static_cast<size_t>(pos - full.column_names.begin()));
      }
    }
    // The engine answers row ids in ascending order.
    std::vector<uint64_t> rows = req.row_ids;
    std::sort(rows.begin(), rows.end());
    if (rows.empty()) {
      const uint64_t n = full.columns.empty() ? 0 : full.columns[0].size();
      const uint64_t take = req.n_ex == 0 ? n : std::min(n, req.n_ex);
      for (uint64_t r = 0; r < take; ++r) rows.push_back(r);
    }
    for (size_t c : cols) {
      out.column_names.push_back(full.column_names[c]);
      std::vector<double> col;
      col.reserve(rows.size());
      for (uint64_t r : rows) col.push_back(full.columns[c][r]);
      out.columns.push_back(std::move(col));
    }
    out.row_ids = rows;
    out.used_read = *force_;
    return out;
  }

  Store* s_;
  Spans* spans_;
  std::optional<bool> force_;
  std::map<std::string, FetchResult> tables_;
  std::vector<std::pair<FetchRequest, bool>> issued_;
};

// --------------------------------------------------------------- execution

FetchRequest Req(const std::string& project, const std::string& model,
                 const std::string& interm) {
  FetchRequest r;
  r.project = project;
  r.model = model;
  r.intermediate = interm;
  return r;
}

void AppendPairs(const std::vector<std::pair<uint64_t, double>>& top,
                 std::vector<double>* out) {
  for (const auto& [row, v] : top) {
    out->push_back(static_cast<double>(row));
    out->push_back(v);
  }
}

void AppendGroups(const std::vector<dq::GroupMean>& groups,
                  std::vector<double>* out) {
  for (const auto& g : groups) {
    out->push_back(static_cast<double>(g.group));
    out->push_back(g.mean);
    out->push_back(static_cast<double>(g.count));
  }
}

void AppendHistogram(const dq::Histogram& h, std::vector<double>* out) {
  out->push_back(h.lo);
  out->push_back(h.hi);
  for (uint64_t c : h.counts) out->push_back(static_cast<double>(c));
}

/// Runs one op: its fetches plus the diagnostics compute. The answer is
/// the diagnostic's output, flattened, for the post-run checks.
Status RunZillow(Store& s, Fetcher& f, const Op& op, Spans* spans,
                 uint64_t id, std::vector<double>* answer) {
  const auto& names = Interm(s.mq.get(), "zillow", "P1_v0", "x_all").columns;
  const std::string col = names[op.col].name;
  switch (op.kind) {
    case kPointQ: {
      FetchRequest r = Req("zillow", "P1_v0", "x_all");
      r.columns = {col};
      r.row_ids = {op.row_a};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult v, f.Fetch(r, id));
      *answer = v.columns[0];
      return Status::OK();
    }
    case kTopK: {
      FetchRequest r = Req("zillow", "P1_v0", "x_all");
      r.columns = {col};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult v, f.Fetch(r, id));
      std::vector<std::pair<uint64_t, double>> top;
      {
        Spans::Scope span(spans, "diagnostics.topk", id);
        top = dq::TopK(v.columns[0], 10);
      }
      FetchRequest e = Req("zillow", "P1_v0", "train_merged");
      e.columns = {"logerror"};
      for (const auto& [row, val] : top) e.row_ids.push_back(row);
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult err, f.Fetch(e, id));
      AppendPairs(top, answer);
      answer->insert(answer->end(), err.columns[0].begin(),
                     err.columns[0].end());
      return Status::OK();
    }
    case kColDiff: {
      FetchRequest r = Req("zillow", "P1_v0", "pred_test");
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult a, f.Fetch(r, id));
      r.model = "P1_v1";
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult b, f.Fetch(r, id));
      FetchRequest g = Req("zillow", "P1_v0", "test_merged");
      g.columns = {ZillowCategoricalColumns()[op.group]};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult grp, f.Fetch(g, id));
      Spans::Scope span(spans, "diagnostics.col_diff", id);
      std::vector<double> diff(a.columns[0].size());
      for (size_t i = 0; i < diff.size(); ++i) {
        diff[i] = a.columns[0][i] - b.columns[0][i];
      }
      AppendGroups(dq::GroupedMeans(diff, grp.columns[0]), answer);
      return Status::OK();
    }
    case kColDist: {
      FetchRequest r = Req("zillow", "P1_v0", "x_all");
      r.columns = {col};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult v, f.Fetch(r, id));
      Spans::Scope span(spans, "diagnostics.col_dist", id);
      AppendHistogram(dq::ComputeHistogram(v.columns[0], 40), answer);
      return Status::OK();
    }
    case kKnn: {
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult all,
                                f.Fetch(Req("zillow", "P1_v0", "x_all"), id));
      Spans::Scope span(spans, "diagnostics.knn", id);
      for (size_t n : dq::Knn(all.columns, op.row_a, 10)) {
        answer->push_back(static_cast<double>(n));
      }
      return Status::OK();
    }
    case kRowDiff: {
      FetchRequest r = Req("zillow", "P1_v0", "x_all");
      r.row_ids = {op.row_a, op.row_b};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult rows, f.Fetch(r, id));
      Spans::Scope span(spans, "diagnostics.row_diff", id);
      *answer = dq::RowDiff(rows.columns, 0, 1);
      return Status::OK();
    }
    case kVis: {
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult all,
                                f.Fetch(Req("zillow", "P1_v0", "x_all"), id));
      Spans::Scope span(spans, "diagnostics.vis", id);
      const std::vector<double>& split = all.columns[op.col];
      double mean = 0;
      for (double v : split) mean += std::isnan(v) ? 0 : v;
      mean /= static_cast<double>(std::max<size_t>(split.size(), 1));
      std::vector<int> cls(split.size());
      for (size_t i = 0; i < cls.size(); ++i) cls[i] = split[i] < mean;
      for (const auto& row : dq::MeanPerColumnByClass(all.columns, cls, 2)) {
        answer->insert(answer->end(), row.begin(), row.end());
      }
      return Status::OK();
    }
    case kSvcca: {
      MISTIQUE_ASSIGN_OR_RETURN(
          FetchResult feats, f.Fetch(Req("zillow", "P1_v0", "x_train"), id));
      MISTIQUE_ASSIGN_OR_RETURN(
          FetchResult pred,
          f.Fetch(Req("zillow", "P1_v0", "train_pred_lgbm"), id));
      Spans::Scope span(spans, "diagnostics.svcca", id);
      MISTIQUE_ASSIGN_OR_RETURN(double sim,
                                dq::SvccaSimilarity(feats.columns,
                                                    pred.columns));
      answer->push_back(sim);
      return Status::OK();
    }
    default:
      return Status::Internal("bad kind");
  }
}

Status RunVgg(Store& s, Fetcher& f, const Op& op, Spans* spans, uint64_t id,
              std::vector<double>* answer) {
  const std::string layer = "layer" + std::to_string(kLayers[op.source - 1]);
  const IntermediateInfo& in = Interm(s.mq.get(), "cifar", CkptName(0), layer);
  FetchRequest base = Req("cifar", CkptName(op.ckpt), layer);
  const std::string col = in.columns[op.col % in.columns.size()].name;
  switch (op.kind) {
    case kPointQ: {
      // One neuron of one example. (A whole channel map of one example
      // sits at a re-run/read estimate near 1 on layer 1, where the pick
      // would flip with calibration.)
      FetchRequest r = base;
      r.columns = {col};
      r.row_ids = {op.row_a};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult v, f.Fetch(r, id));
      *answer = v.columns[0];
      return Status::OK();
    }
    case kTopK: {
      FetchRequest r = base;
      r.columns = {col};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult v, f.Fetch(r, id));
      Spans::Scope span(spans, "diagnostics.topk", id);
      AppendPairs(dq::TopK(v.columns[0], 10), answer);
      return Status::OK();
    }
    case kColDiff: {
      FetchRequest r = base;
      r.columns = {col};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult a, f.Fetch(r, id));
      r.model = CkptName(op.ckpt_b);
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult b, f.Fetch(r, id));
      Spans::Scope span(spans, "diagnostics.col_diff", id);
      std::vector<double> diff(a.columns[0].size());
      std::vector<double> groups(diff.size());
      for (size_t i = 0; i < diff.size(); ++i) {
        diff[i] = a.columns[0][i] - b.columns[0][i];
        groups[i] = s.labels[i];
      }
      AppendGroups(dq::GroupedMeans(diff, groups), answer);
      return Status::OK();
    }
    case kColDist: {
      FetchRequest r = base;
      r.columns = {col};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult v, f.Fetch(r, id));
      Spans::Scope span(spans, "diagnostics.col_dist", id);
      AppendHistogram(dq::ComputeHistogram(v.columns[0], 40), answer);
      return Status::OK();
    }
    case kKnn: {
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult all, f.Fetch(base, id));
      Spans::Scope span(spans, "diagnostics.knn", id);
      for (size_t n : dq::Knn(all.columns, op.row_a, 10)) {
        answer->push_back(static_cast<double>(n));
      }
      return Status::OK();
    }
    case kRowDiff: {
      FetchRequest r = base;
      r.row_ids = {op.row_a, op.row_b};
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult rows, f.Fetch(r, id));
      Spans::Scope span(spans, "diagnostics.row_diff", id);
      *answer = dq::RowDiff(rows.columns, 0, 1);
      return Status::OK();
    }
    case kVis: {
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult all, f.Fetch(base, id));
      Spans::Scope span(spans, "diagnostics.vis", id);
      for (const auto& row :
           dq::MeanPerColumnByClass(all.columns, s.labels, 10)) {
        answer->insert(answer->end(), row.begin(), row.end());
      }
      return Status::OK();
    }
    case kSvcca: {
      MISTIQUE_ASSIGN_OR_RETURN(FetchResult reps, f.Fetch(base, id));
      MISTIQUE_ASSIGN_OR_RETURN(
          FetchResult logits,
          f.Fetch(Req("cifar", CkptName(op.ckpt), "layer20"), id));
      Spans::Scope span(spans, "diagnostics.svcca", id);
      MISTIQUE_ASSIGN_OR_RETURN(double sim,
                                dq::SvccaSimilarity(reps.columns,
                                                    logits.columns));
      answer->push_back(sim);
      return Status::OK();
    }
    default:
      return Status::Internal("bad kind");
  }
}

Status RunOp(Store& s, Fetcher& f, const Op& op, Spans* spans, uint64_t id,
             std::vector<double>* answer) {
  answer->clear();
  Spans::Scope span(spans, "op", id);
  return op.source == 0 ? RunZillow(s, f, op, spans, id, answer)
                        : RunVgg(s, f, op, spans, id, answer);
}

/// What the post-run checks need from the timed ops: the first answer of
/// each distinct op (and whether it re-ran), and a hash of every later one.
struct AnswerLog {
  struct Entry {
    bool seen = false;
    bool any_rerun = false;
    std::vector<double> first;
    uint64_t hash = 0;
    uint64_t count = 0;
    uint64_t mismatches = 0;
  };
  std::vector<Entry> entries;

  void Record(size_t op, const std::vector<double>& answer, bool rerun) {
    Entry& e = entries[op];
    ++e.count;
    if (!e.seen) {
      e.seen = true;
      e.any_rerun = rerun;
      e.first = answer;
      e.hash = HashValues(answer);
    } else if (HashValues(answer) != e.hash) {
      ++e.mismatches;
    }
  }
};

/// Engine counters the per-layer metrics and repeat-counts are read from.
struct Counters {
  uint64_t read = 0;
  uint64_t rerun = 0;
  uint64_t hits = 0;
  uint64_t loads = 0;
  uint64_t mispredictions = 0;
  uint64_t packed_blocks = 0;
  uint64_t decode_blocks = 0;
  uint64_t disk_bytes = 0;
  uint64_t wal_bytes = 0;

  static Counters Read(Mistique* mq) {
    Counters c;
    c.read = CounterValue("mistique_fetch_read_total");
    c.rerun = CounterValue("mistique_fetch_rerun_total");
    c.hits = CounterValue("mistique_buffer_pool_hits_total");
    c.loads = CounterValue("mistique_buffer_pool_loads_total");
    c.mispredictions =
        CounterValue("mistique_cost_model_mispredictions_total");
    c.packed_blocks = CounterValue("mistique_scan_packed_blocks_total");
    c.decode_blocks = CounterValue("mistique_scan_decode_blocks_total");
    c.disk_bytes = mq->store().disk_read_bytes();
    c.wal_bytes = FileBytes(mq->options().store.directory + "/catalog.wal");
    return c;
  }
};

void PutCounts(const Store& s, const std::vector<Op>& ops,
               const Counters& before, const Counters& after,
               std::map<std::string, double>* counts) {
  (*counts)["core.read_picks"] = static_cast<double>(after.read - before.read);
  (*counts)["core.rerun_picks"] =
      static_cast<double>(after.rerun - before.rerun);
  (*counts)["storage.pool_hits"] =
      static_cast<double>(after.hits - before.hits);
  (*counts)["storage.pool_loads"] =
      static_cast<double>(after.loads - before.loads);
  (*counts)["dedup.duplicate_share"] =
      static_cast<double>(s.dedup_duplicates) /
      static_cast<double>(std::max<uint64_t>(s.dedup_offered, 1));
  uint64_t per_cat[kNumCategories] = {0, 0, 0, 0};
  for (const Op& op : ops) per_cat[CategoryOf(op.kind)]++;
  for (int c = 0; c < kNumCategories; ++c) {
    (*counts)[std::string("ops.") + CategoryName(c)] =
        static_cast<double>(per_cat[c]);
  }
}

/// Replays the layer calls behind one traced op: partition reads, decode
/// and decompression for the partitions the op loaded into the pool, and
/// the forward pass of every fetch that re-ran the model.
void ReplayOp(Store& s, const Fetcher& f, uint64_t loads, Spans* spans,
              uint64_t id) {
  Spans::Scope replay(spans, "replay", id);
  std::vector<ChunkLoc> locs;
  for (const auto& [req, used_read] : f.issued()) {
    if (used_read) {
      const std::vector<ChunkLoc> l = ChunksOf(s.mq.get(), req);
      locs.insert(locs.end(), l.begin(), l.end());
      continue;
    }
    const IntermediateInfo& in =
        Interm(s.mq.get(), req.project, req.model, req.intermediate);
    if (req.project != "cifar") continue;
    uint64_t needed = 0;
    for (uint64_t r : req.row_ids) needed = std::max(needed, r + 1);
    if (req.row_ids.empty()) needed = static_cast<uint64_t>(s.input->n);
    Tensor slice(static_cast<int>(needed), s.input->c, s.input->h,
                 s.input->w);
    std::copy(s.input->data.begin(),
              s.input->data.begin() +
                  static_cast<ptrdiff_t>(slice.data.size()),
              slice.data.begin());
    Spans::Scope span(spans, "nn.forward", id);
    (void)s.net->Forward(slice, in.stage_index);
  }
  if (loads > 0) ReplayReads(s.mq.get(), locs, loads, spans, id);
}

/// LP_QT encode of one checkpoint's activations ("quantize.encode").
void ReplayEncode(Store& s, Spans* spans) {
  std::vector<std::vector<double>> layers;
  auto capture = [&](int, const std::string&, const Tensor& t) -> Status {
    layers.emplace_back(t.data.begin(), t.data.end());
    return Status::OK();
  };
  CheckOk(s.net->Forward(*s.input, 0, capture).status(), "capture");
  for (const auto& values : layers) {
    Spans::Scope span(spans, "quantize.encode", 0,
                      static_cast<double>(values.size()));
    (void)LpQuantize(values, QuantScheme::kLp32);
  }
}

}  // namespace

std::vector<std::string> DiagColdKinds() {
  std::vector<std::string> names;
  for (const char* kind : kKindNames) {
    for (const char* source : kSourceNames) {
      names.push_back(std::string(kind) + "/" + source);
    }
  }
  return names;
}

void RunDiagCold(const Args& args, RunResult* out) {
  Store s;
  std::vector<Op> ops;
  Fetcher live(&s, nullptr, std::nullopt);
  std::vector<double> answer;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) {
      const std::string old = s.dir;
      s = Store();
      std::filesystem::remove_all(old);
    }
    const double t0 = Now();
    s = Build(args.seed, args.work_dir + "/rep" + std::to_string(rep));
    ops = MakeOps(args.seed, s);
    // Warm-up: one op of each kind, so lazy allocations are paid here.
    for (size_t j = 0; j < ops.size() && j < 8; ++j) {
      CheckOk(RunOp(s, live, ops[j], nullptr, 0, &answer), "warm-up");
    }
    out->setup_s.push_back(Now() - t0);
    out->ingest_s.insert(out->ingest_s.end(), s.log_network_s.begin(),
                         s.log_network_s.end());
  }
  out->ingest_unit.dnn = s.ckpt_values;
  out->info["stored_bytes"] = static_cast<double>(s.mq->StorageFootprintBytes());
  out->info["pool_bytes"] = static_cast<double>(kPoolBytes);
  out->info["ops_per_cycle"] = static_cast<double>(ops.size());
  if (kPoolBytes * 4 > s.mq->StorageFootprintBytes()) {
    Fatal("buffer pool is more than a quarter of the stored bytes");
  }

  AnswerLog log;
  log.entries.resize(ops.size());
  Tally& timed = args.trace ? out->plain_pass : out->timed;
  const Counters start_counters = Counters::Read(s.mq.get());
  Counters cycle_counters = start_counters;
  std::optional<CoreRotation> rotate(std::in_place);
  const double start = Now();
  const double end = start + args.seconds;
  for (uint64_t i = 0; args.trace ? i < ops.size() : Now() < end; ++i) {
    const size_t j = i % ops.size();
    live.ResetOp();
    const double t0 = Now();
    const Status st = RunOp(s, live, ops[j], nullptr, i, &answer);
    const double dt = Now() - t0;
    timed.attempted++;
    if (st.ok()) {
      timed.samples.push_back({KindId(ops[j]), CategoryOf(ops[j].kind), dt});
      log.Record(j, answer, live.AnyRerun());
    } else {
      timed.errors++;
    }
    if (i + 1 == ops.size()) cycle_counters = Counters::Read(s.mq.get());
  }
  out->measured_s = Now() - start;
  rotate.reset();
  out->peak_rss_kb = PeakRssKb();
  if (cycle_counters.read == start_counters.read &&
      cycle_counters.rerun == start_counters.rerun) {
    Fatal("the timed phase did not complete one cycle of the op list");
  }
  PutCounts(s, ops, start_counters, cycle_counters, &out->counts);

  if (args.trace) {
    Spans* spans = &out->spans;
    Fetcher traced(&s, spans, std::nullopt);
    const Counters before = Counters::Read(s.mq.get());
    rotate.emplace();  // as in the plain pass, for obs.trace_overhead_pct
    for (uint64_t i = 0; i < ops.size(); ++i) {
      traced.ResetOp();
      const uint64_t loads0 = CounterValue("mistique_buffer_pool_loads_total");
      const double t0 = Now();
      const Status st = RunOp(s, traced, ops[i], spans, i + 1, &answer);
      const double dt = Now() - t0;
      const uint64_t loads =
          CounterValue("mistique_buffer_pool_loads_total") - loads0;
      out->traced_pass.attempted++;
      if (!st.ok()) {
        out->traced_pass.errors++;
        continue;
      }
      out->traced_pass.samples.push_back(
          {KindId(ops[i]), CategoryOf(ops[i].kind), dt});
      ReplayOp(s, traced, loads, spans, i + 1);
    }
    rotate.reset();
    const Counters after = Counters::Read(s.mq.get());
    ReplayEncode(s, spans);
    ReplaySyncWrite(s.mq.get(), spans);
    std::map<std::string, double>& L = out->layer;
    const double n_ops = static_cast<double>(ops.size());
    L["core.read_picks"] = static_cast<double>(after.read - before.read);
    L["core.rerun_picks"] = static_cast<double>(after.rerun - before.rerun);
    L["core.mispredictions"] =
        static_cast<double>(after.mispredictions - before.mispredictions);
    L["core.rho_d_mb_s"] =
        s.mq->cost_model().params().read_bytes_per_sec / 1e6;
    L["core.rho_p_mb_s"] =
        s.mq->cost_model().params().packed_read_bytes_per_sec / 1e6;
    L["storage.pool_hits"] = static_cast<double>(after.hits - before.hits);
    L["storage.pool_loads"] = static_cast<double>(after.loads - before.loads);
    L["storage.disk_read_kb_per_op"] =
        static_cast<double>(after.disk_bytes - before.disk_bytes) / 1024.0 /
        n_ops;
    L["scan.packed_blocks"] =
        static_cast<double>(after.packed_blocks - before.packed_blocks);
    L["scan.decode_blocks"] =
        static_cast<double>(after.decode_blocks - before.decode_blocks);
    L["durability.wal_bytes_per_op"] =
        static_cast<double>(after.wal_bytes - before.wal_bytes) / n_ops;
    L["pipeline.log_s"] = s.log_pipeline_s;
    L["metadata.catalog_save_ms"] = s.catalog_save_s * 1e3;
    L["mvcc.retired_max"] =
        static_cast<double>(s.mq->snapshots().retired_snapshots());
    L["mvcc.reclaimed"] =
        static_cast<double>(s.mq->snapshots().snapshots_reclaimed());
    for (const auto& [k, v] : out->counts) {
      if (k.rfind("ops.", 0) == 0 || k == "dedup.duplicate_share") L[k] = v;
    }
  }

  // Checks, after the timed phase: each answer must match the answer the
  // other strategy gives (forced read vs forced re-run), and every repeat
  // of an op must give the same answer as its first run.
  const double t_check = Now();
  Fetcher read_ref(&s, nullptr, true);
  Fetcher rerun_ref(&s, nullptr, false);
  std::vector<double> want;
  for (size_t j = 0; j < ops.size(); ++j) {
    const AnswerLog::Entry& e = log.entries[j];
    if (!e.seen) continue;
    Fetcher& ref = e.any_rerun ? read_ref : rerun_ref;
    const Status st = RunOp(s, ref, ops[j], nullptr, 0, &want);
    if (!st.ok() || !NearlyEqual(e.first, want, kTolerance)) {
      timed.wrong += e.count;
      std::fprintf(stderr, "diag_cold: op %zu (%s, source %d) answer "
                   "differs from the %s reference\n", j,
                   kKindNames[ops[j].kind], ops[j].source,
                   e.any_rerun ? "read" : "re-run");
    } else {
      timed.wrong += e.mismatches;
    }
  }

  out->info["check_s"] = Now() - t_check;
  CheckOk(s.mq->Flush(), "final flush");
  out->footprint_bytes = static_cast<double>(s.mq->StorageFootprintBytes());
  out->live = s.live;
}

}  // namespace perfbench
