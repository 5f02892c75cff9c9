#include "core/mistique.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "durability/fault_injection.h"
#include "metadata/catalog_wal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scan/packed_view.h"
#include "scan/scan_kernels.h"

namespace mistique {

namespace {

/// Engine-level metric handles, registered once and cached (the registry
/// lookup takes a mutex; the cached pointer costs nothing).
struct EngineMetrics {
  obs::Counter* fetch_total;
  obs::Counter* scan_total;
  obs::Counter* fetch_read_total;
  obs::Counter* fetch_rerun_total;
  obs::Counter* materializations_total;
  obs::Counter* mispredictions_total;
  obs::Counter* scan_packed_blocks_total;
  obs::Counter* scan_packed_rows_total;
  obs::Counter* scan_decode_blocks_total;
  obs::Counter* scan_packed_gather_total;
  EngineMetrics() {
    obs::MetricsRegistry& reg = obs::GlobalMetrics();
    fetch_total = reg.GetCounter(
        "mistique_fetch_total", "Engine fetches executed (excluding "
        "session-cache hits served by the service layer).");
    scan_total = reg.GetCounter("mistique_scan_total",
                                "Engine predicate scans executed.");
    fetch_read_total = reg.GetCounter(
        "mistique_fetch_read_total",
        "Fetches served by reading stored intermediates (t_read path).");
    fetch_rerun_total = reg.GetCounter(
        "mistique_fetch_rerun_total",
        "Fetches served by re-running the model (t_rerun path).");
    materializations_total = reg.GetCounter(
        "mistique_materializations_total",
        "Adaptive/heal materializations performed (store changed shape).");
    mispredictions_total = reg.GetCounter(
        "mistique_cost_model_mispredictions_total",
        "Fetches where the chosen strategy's actual time exceeded the "
        "alternative's estimate (only counted when both strategies were "
        "viable and force_read was unset).");
    scan_packed_blocks_total = reg.GetCounter(
        "mistique_scan_packed_blocks_total",
        "RowBlocks evaluated by the compressed-domain kernels (predicate "
        "run on packed words, no dequantization).");
    scan_packed_rows_total = reg.GetCounter(
        "mistique_scan_packed_rows_total",
        "Rows matched by the compressed-domain scan kernels.");
    scan_decode_blocks_total = reg.GetCounter(
        "mistique_scan_decode_blocks_total",
        "RowBlocks a scan evaluated via full decode (encoding not "
        "packed-scannable).");
    scan_packed_gather_total = reg.GetCounter(
        "mistique_scan_packed_gather_total",
        "Fetch chunks whose requested rows were gathered directly from "
        "the packed encoding instead of decoding the whole chunk.");
  }
};

EngineMetrics& Metrics() {
  static EngineMetrics* metrics = new EngineMetrics;  // never destroyed
  return *metrics;
}

/// Rate-limited estimated-vs-actual log line for mispredictions: the
/// counter always moves; stderr gets the first few per process and then
/// a 1-in-256 sample, so benchmark loops cannot flood the log.
void LogMisprediction(const FetchRequest& request, const FetchResult& out) {
  static std::atomic<uint64_t> logged{0};
  const uint64_t n = logged.fetch_add(1, std::memory_order_relaxed);
  if (n >= 16 && n % 256 != 0) return;
  std::fprintf(
      stderr,
      "[mistique] cost-model mispredict on %s.%s.%s: chose %s "
      "(actual %.3fms) but estimated t_read=%.3fms t_rerun=%.3fms\n",
      request.project.c_str(), request.model.c_str(),
      request.intermediate.c_str(), out.used_read ? "read" : "rerun",
      out.fetch_seconds * 1e3, out.predicted_read_sec * 1e3,
      out.predicted_rerun_sec * 1e3);
}

/// Encode-side quantizer state for one intermediate during logging or
/// materialization.
struct ActiveQuantizer {
  QuantScheme scheme = QuantScheme::kNone;
  KBitQuantizer kbit{8};
  ThresholdQuantizer threshold;

  Result<ColumnChunk> Encode(const std::vector<double>& values) const {
    switch (scheme) {
      case QuantScheme::kNone:
      case QuantScheme::kLp32:
      case QuantScheme::kLp16:
        return LpQuantize(values, scheme);
      case QuantScheme::kKBit:
        return kbit.Quantize(values);
      case QuantScheme::kThreshold:
        return threshold.Quantize(values);
    }
    return Status::Internal("unknown quant scheme");
  }
};

/// Builds an encode-side quantizer from an intermediate's stored tables.
Result<ActiveQuantizer> QuantizerFor(const IntermediateInfo& interm) {
  ActiveQuantizer q;
  q.scheme = interm.scheme;
  if (interm.scheme == QuantScheme::kKBit) {
    MISTIQUE_ASSIGN_OR_RETURN(
        q.kbit, KBitQuantizer::FromTables(interm.kbits, interm.edges,
                                          interm.recon.centers));
  } else if (interm.scheme == QuantScheme::kThreshold) {
    q.threshold = ThresholdQuantizer::FromThreshold(0.005, interm.threshold);
  }
  return q;
}

/// Fits the value quantizer (if the scheme needs fitting) from a sample
/// and writes the tables into `interm`.
Status FitQuantizer(QuantScheme scheme, int kbits, double alpha,
                    const std::vector<double>& sample,
                    IntermediateInfo* interm) {
  interm->scheme = scheme;
  interm->kbits = kbits;
  if (scheme == QuantScheme::kKBit) {
    KBitQuantizer q(kbits);
    MISTIQUE_RETURN_NOT_OK(q.Fit(sample));
    interm->recon = q.reconstruction();
    interm->edges = q.edges();
  } else if (scheme == QuantScheme::kThreshold) {
    ThresholdQuantizer q(alpha);
    MISTIQUE_RETURN_NOT_OK(q.Fit(sample));
    interm->threshold = q.threshold();
  }
  return Status::OK();
}

size_t BitsPerValue(const IntermediateInfo& interm) {
  switch (interm.scheme) {
    case QuantScheme::kNone:
      return 64;
    case QuantScheme::kLp32:
      return 32;
    case QuantScheme::kLp16:
      return 16;
    case QuantScheme::kKBit:
      return static_cast<size_t>(interm.kbits);
    case QuantScheme::kThreshold:
      return 1;
  }
  return 64;
}

obs::Gauge* StagedBytesGauge() {
  static obs::Gauge* g = obs::GlobalMetrics().GetGauge(
      "mistique_mvcc_staged_bytes",
      "Uncompressed bytes in the writer's open (staged, not yet "
      "published) partitions.");
  return g;
}

/// Fetch-target resolution shared by the snapshot (reader) and writer
/// fetch paths; pure functions over an immutable catalog view.
Result<size_t> FindIntermediateIndex(const ModelInfo& model,
                                     const std::string& name) {
  for (size_t i = 0; i < model.intermediates.size(); ++i) {
    if (model.intermediates[i].name == name) return i;
  }
  return Status::NotFound("model " + model.name + " has no intermediate " +
                          name);
}

Status ResolveColumns(const IntermediateInfo& interm,
                      const FetchRequest& request,
                      std::vector<size_t>* col_idx) {
  if (request.columns.empty()) {
    col_idx->resize(interm.columns.size());
    for (size_t i = 0; i < col_idx->size(); ++i) (*col_idx)[i] = i;
    return Status::OK();
  }
  for (const std::string& name : request.columns) {
    bool found = false;
    for (size_t i = 0; i < interm.columns.size(); ++i) {
      if (interm.columns[i].name == name) {
        col_idx->push_back(i);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotFound("intermediate " + interm.name +
                              " has no column " + name);
    }
  }
  return Status::OK();
}

/// RowBlock stride of an approximate fetch: every k-th block, k =
/// round(1 / sample_fraction); 1 for an exact fetch.
uint64_t SampleStride(const FetchRequest& request) {
  if (request.sample_fraction > 0 && request.sample_fraction < 1.0) {
    return static_cast<uint64_t>(std::lround(1.0 / request.sample_fraction));
  }
  return 1;
}

Status ResolveRows(const IntermediateInfo& interm, const FetchRequest& request,
                   std::vector<uint64_t>* rows) {
  if (!request.row_ids.empty()) {
    *rows = request.row_ids;
    std::sort(rows->begin(), rows->end());
    for (uint64_t r : *rows) {
      if (r >= interm.num_rows) {
        return Status::OutOfRange("row_id " + std::to_string(r) +
                                  " >= " + std::to_string(interm.num_rows));
      }
    }
    return Status::OK();
  }
  const uint64_t n = request.n_ex == 0
                         ? interm.num_rows
                         : std::min<uint64_t>(request.n_ex, interm.num_rows);
  if (const uint64_t stride = SampleStride(request); stride > 1) {
    // Approximate fetch: keep every k-th RowBlock's rows.
    const uint64_t block = std::max<uint64_t>(interm.row_block_size, 1);
    for (uint64_t i = 0; i < n; ++i) {
      if ((i / block) % stride == 0) rows->push_back(i);
    }
    if (rows->empty()) rows->push_back(0);
  } else {
    rows->resize(n);
    for (uint64_t i = 0; i < n; ++i) (*rows)[i] = i;
  }
  return Status::OK();
}

}  // namespace

const char* StorageStrategyName(StorageStrategy s) {
  switch (s) {
    case StorageStrategy::kStoreAll:
      return "STORE_ALL";
    case StorageStrategy::kDedup:
      return "DEDUP";
    case StorageStrategy::kAdaptive:
      return "ADAPTIVE";
  }
  return "UNKNOWN";
}

Status Mistique::Open(const MistiqueOptions& options) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  Metrics();  // register engine counters so expositions list them at zero
  StagedBytesGauge();
  options_ = options;
  if (options_.checkpoint_dir.empty()) {
    options_.checkpoint_dir = options_.store.directory + "/ckpt";
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.checkpoint_dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir: " + ec.message());
  }

  MISTIQUE_RETURN_NOT_OK(store_.Open(options_.store));

  DedupOptions dedup = options_.dedup;
  if (options_.strategy == StorageStrategy::kStoreAll) {
    // STORE_ALL deliberately bypasses all de-duplication.
    dedup.exact = false;
    dedup.similarity = false;
  }
  dedup_ = std::make_unique<Deduplicator>(&store_, dedup);
  encode_pool_ = std::make_unique<ThreadPool>(options_.encode_threads);

  cost_model_.set_params(options_.cost);
  if (options_.calibrate_on_open) {
    MISTIQUE_RETURN_NOT_OK(cost_model_.Calibrate(&store_));
  }

  // Crash recovery (docs/DURABILITY.md). The store's Open already swept
  // orphan temp files and skipped torn partition files; now recover the
  // catalog: last-good snapshot + WAL replay, then repair invariants.
  recovery_warnings_ = store_.open_warnings();
  const std::string catalog_path = options_.store.directory + "/catalog.mq";
  const std::string wal_path = options_.store.directory + "/catalog.wal";
  uint64_t snapshot_epoch = 0;
  const bool have_catalog = std::filesystem::exists(catalog_path);
  if (have_catalog) {
    MISTIQUE_RETURN_NOT_OK(metadata_.LoadFromFile(catalog_path,
                                                  &snapshot_epoch));
  }

  uint64_t truncate_to = 0;
  if (std::filesystem::exists(wal_path)) {
    Result<WriteAheadLog::ReplayResult> replay =
        WriteAheadLog::Read(wal_path);
    if (!replay.ok()) {
      // Unparseable header: nothing salvageable; start a fresh log.
      recovery_warnings_.push_back("discarded unreadable catalog WAL: " +
                                   replay.status().ToString());
      std::error_code ec;
      std::filesystem::remove(wal_path, ec);
    } else if (replay->epoch != snapshot_epoch) {
      // Crash between snapshot rename and log rotation: the snapshot
      // already contains these records' effects. Ignore wholesale.
      recovery_warnings_.push_back(
          "ignored stale catalog WAL (epoch " +
          std::to_string(replay->epoch) + ", snapshot epoch " +
          std::to_string(snapshot_epoch) + ")");
    } else {
      MISTIQUE_ASSIGN_OR_RETURN(CatalogWalReplayStats replay_stats,
                                ApplyCatalogWal(replay->records, &metadata_));
      truncate_to = replay->valid_bytes;
      if (replay->truncated_tail) {
        recovery_warnings_.push_back(
            "discarded torn catalog WAL tail after " +
            std::to_string(replay->records.size()) + " valid records");
      }
      if (replay_stats.skipped > 0) {
        recovery_warnings_.push_back(
            "skipped " + std::to_string(replay_stats.skipped) +
            " catalog WAL records referencing post-snapshot models");
      }
    }
  }
  MISTIQUE_RETURN_NOT_OK(wal_.Open(wal_path, snapshot_epoch, truncate_to,
                                   options_.store.sync_writes));
  if (wal_.epoch() != snapshot_epoch) {
    MISTIQUE_RETURN_NOT_OK(wal_.Rotate(snapshot_epoch));
  }

  // Always recover the chunk index: even without a catalog snapshot the
  // WAL may have replayed kModelAdd records (crash after an MVCC publish
  // but before the first SaveCatalog), and orphan chunks from a crash
  // mid-ingest must be derived as dead either way.
  MISTIQUE_RETURN_NOT_OK(store_.RecoverIndex());
  RebuildChunkRefs();
  // Quarantines from RecoverIndex (and any column referencing a chunk
  // the store lost) demote to the rerun path here.
  MISTIQUE_RETURN_NOT_OK(HandleCorruptionsLocked(/*scan_all=*/true));
  DeriveDeadChunksLocked();

  // Publish the initial snapshot so readers can pin epoch >= 1 before any
  // write lands.
  published_cache_.clear();
  PublishLocked({});
  return Status::OK();
}

void Mistique::RebuildChunkRefs() {
  chunk_refs_.clear();
  dead_chunks_.clear();
  for (ModelId id : metadata_.ListModels()) {
    const ModelInfo* model = metadata_.GetModel(id).ValueOrDie();
    for (const IntermediateInfo& interm : model->intermediates) {
      for (const ColumnInfo& col : interm.columns) {
        for (ChunkId chunk : col.chunks) RefChunk(chunk);
      }
    }
  }
}

void Mistique::PublishLocked(const std::unordered_set<ModelId>& dirty) {
  // Accumulated into the active query trace when the publish happens on a
  // fetch's writer path (materialization/heal); a no-op otherwise.
  obs::AccumSpan span("publish_wait");
  auto snap = std::make_shared<EngineSnapshot>();
  std::unordered_set<ModelId> live;
  for (ModelId id : metadata_.ListModels()) {
    const ModelInfo* m = metadata_.GetModel(id).ValueOrDie();
    live.insert(id);
    EngineSnapshot::Model entry;
    auto cached = published_cache_.find(id);
    if (cached != published_cache_.end() && dirty.count(id) == 0) {
      entry.info = cached->second;  // COW: untouched model, share the copy.
    } else {
      entry.info = std::make_shared<const ModelInfo>(*m);
      published_cache_[id] = entry.info;
    }
    entry.has_executor =
        pipelines_.count(id) != 0 || networks_.count(id) != 0;
    snap->by_name[entry.info->project + "." + entry.info->name] = id;
    snap->models.emplace(id, std::move(entry));
  }
  for (auto it = published_cache_.begin(); it != published_cache_.end();) {
    it = live.count(it->first) ? std::next(it) : published_cache_.erase(it);
  }
  snapshots_.Publish(std::shared_ptr<const void>(std::move(snap)));
  StagedBytesGauge()->Set(static_cast<int64_t>(store_.open_bytes()));
}

Status Mistique::CommitStagedModelLocked(ModelId id) {
  // Seal every staged partition first so the snapshot (and the WAL record
  // below) only reference immutable, persisted chunks. A crash here — or
  // anywhere before the durable append — leaves no catalog trace of the
  // model; its sealed chunks become dead chunks at the next Open.
  MISTIQUE_RETURN_NOT_OK(store_.Flush());
  MISTIQUE_FAULT("mvcc.publish");
  if (wal_.is_open()) {
    MISTIQUE_ASSIGN_OR_RETURN(const ModelInfo* model, metadata_.GetModel(id));
    MISTIQUE_RETURN_NOT_OK(
        wal_.Append(static_cast<uint8_t>(CatalogWalRecordType::kModelAdd),
                    EncodeModelAdd(*model), /*durable=*/true));
  }
  PublishLocked({id});
  return Status::OK();
}

void Mistique::AbortStagedModelLocked(ModelId id) {
  Result<ModelInfo*> model = metadata_.GetModel(id);
  if (model.ok()) {
    std::unordered_set<ChunkId> newly_dead;
    for (const IntermediateInfo& interm : (*model)->intermediates) {
      for (const ColumnInfo& col : interm.columns) {
        for (ChunkId chunk : col.chunks) {
          auto it = chunk_refs_.find(chunk);
          if (it == chunk_refs_.end()) continue;
          if (--it->second == 0) {
            chunk_refs_.erase(it);
            newly_dead.insert(chunk);
          }
        }
      }
    }
    dead_chunks_.insert(newly_dead.begin(), newly_dead.end());
    dedup_->ForgetChunks(newly_dead);
    (void)metadata_.RemoveModel(id);
  }
  pipelines_.erase(id);
  networks_.erase(id);
  StagedBytesGauge()->Set(static_cast<int64_t>(store_.open_bytes()));
}

void Mistique::NotePendingQuery(ModelId model_id, size_t interm_index) {
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    pending_queries_[(static_cast<uint64_t>(model_id) << 32) |
                     static_cast<uint64_t>(interm_index)]++;
  }
  LogNoteQuery(model_id, interm_index);
}

void Mistique::FoldQueryStatsLocked() {
  std::unordered_map<uint64_t, uint64_t> pending;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    pending.swap(pending_queries_);
  }
  for (const auto& [key, n] : pending) {
    const ModelId model_id = static_cast<ModelId>(key >> 32);
    const auto interm_index = static_cast<size_t>(key & 0xffffffffu);
    Result<ModelInfo*> model = metadata_.GetModel(model_id);
    // Entries for models deleted since the bump are dropped.
    if (!model.ok() || interm_index >= (*model)->intermediates.size()) {
      continue;
    }
    (*model)->intermediates[interm_index].n_query += n;
  }
}

Status Mistique::HandleCorruptionsLocked(bool scan_all) {
  std::vector<CorruptionEvent> events = store_.TakeCorruptionEvents();
  if (events.empty() && !scan_all) return Status::OK();

  std::unordered_set<ChunkId> known;
  for (ChunkId id : store_.ListChunks()) known.insert(id);

  // Demote every materialized column referencing a chunk the store lost
  // (its partition was quarantined, or its file never survived a crash).
  // The intermediate falls back to the re-run path until a query heals it.
  struct Demoted {
    ModelId model = kInvalidModelId;
    size_t interm_index = 0;
    std::unordered_set<ChunkId> lost;
  };
  std::vector<Demoted> demoted;
  std::unordered_set<ChunkId> vanished;
  std::unordered_set<ChunkId> newly_dead;
  for (ModelId model_id : metadata_.ListModels()) {
    ModelInfo* model = metadata_.GetModel(model_id).ValueOrDie();
    for (size_t ii = 0; ii < model->intermediates.size(); ++ii) {
      Demoted d{model_id, ii, {}};
      for (ColumnInfo& col : model->intermediates[ii].columns) {
        if (!col.materialized) continue;
        bool missing = false;
        for (ChunkId chunk : col.chunks) {
          if (known.count(chunk)) continue;
          missing = true;
          d.lost.insert(chunk);
          vanished.insert(chunk);
        }
        if (!missing) continue;
        // Release the column's surviving chunk references and clear its
        // stored state so a heal re-stores from scratch.
        for (ChunkId chunk : col.chunks) {
          auto it = chunk_refs_.find(chunk);
          if (it == chunk_refs_.end()) continue;
          if (--it->second == 0) {
            chunk_refs_.erase(it);
            if (known.count(chunk)) {
              dead_chunks_.insert(chunk);
              newly_dead.insert(chunk);
            }
          }
        }
        col.chunks.clear();
        col.chunk_min.clear();
        col.chunk_max.clear();
        col.encoded_bytes = 0;
        col.stored_bytes = 0;
        col.materialized = false;
      }
      if (!d.lost.empty()) demoted.push_back(std::move(d));
    }
  }

  if (!demoted.empty()) {
    // Dedup must never hand out a vanished chunk as a duplicate again.
    std::unordered_set<ChunkId> forget = vanished;
    forget.insert(newly_dead.begin(), newly_dead.end());
    dedup_->ForgetChunks(forget);
    for (const Demoted& d : demoted) {
      const ModelInfo* model = metadata_.GetModel(d.model).ValueOrDie();
      if (wal_.is_open()) {
        MISTIQUE_RETURN_NOT_OK(wal_.Append(
            static_cast<uint8_t>(CatalogWalRecordType::kIntermediateUpdate),
            EncodeIntermediateUpdate(d.model,
                                     static_cast<uint32_t>(d.interm_index),
                                     model->intermediates[d.interm_index]),
            /*durable=*/true));
      }
    }
    // Snapshot readers must stop resolving the vanished chunks: republish
    // with every demoted model copied fresh.
    std::unordered_set<ModelId> dirty;
    for (const Demoted& d : demoted) dirty.insert(d.model);
    PublishLocked(dirty);
  }

  // Attribute demotions to quarantined partitions so a partition counts as
  // healed once everything demoted on its behalf is re-materialized.
  // Open-time events carry no chunk list; they are attributed to every
  // intermediate demoted in this round.
  for (const CorruptionEvent& ev : events) {
    std::set<std::pair<ModelId, size_t>> affected;
    for (const Demoted& d : demoted) {
      bool hit = ev.chunks.empty();
      for (ChunkId chunk : ev.chunks) {
        if (d.lost.count(chunk)) {
          hit = true;
          break;
        }
      }
      if (hit) affected.insert({d.model, d.interm_index});
    }
    if (!affected.empty()) {
      heal_pending_[ev.partition].insert(affected.begin(), affected.end());
    }
  }
  return Status::OK();
}

Status Mistique::PersistIntermediateUpdate(ModelId model_id,
                                           size_t interm_index) {
  // Seal open partitions first so every chunk the record references is on
  // disk before the record claims it exists. A crash in between leaves
  // sealed-but-unreferenced chunks, reclaimed as dead chunks at next Open.
  MISTIQUE_RETURN_NOT_OK(store_.Flush());
  if (!wal_.is_open()) return Status::OK();
  MISTIQUE_ASSIGN_OR_RETURN(const ModelInfo* model,
                            metadata_.GetModel(model_id));
  return wal_.Append(
      static_cast<uint8_t>(CatalogWalRecordType::kIntermediateUpdate),
      EncodeIntermediateUpdate(model_id, static_cast<uint32_t>(interm_index),
                               model->intermediates[interm_index]),
      /*durable=*/true);
}

bool Mistique::IsHealPending(ModelId model_id, size_t interm_index) const {
  for (const auto& [pid, pending] : heal_pending_) {
    (void)pid;
    if (pending.count({model_id, interm_index})) return true;
  }
  return false;
}

void Mistique::NoteIntermediateHealed(ModelId model_id, size_t interm_index) {
  for (auto it = heal_pending_.begin(); it != heal_pending_.end();) {
    it->second.erase({model_id, interm_index});
    if (it->second.empty()) {
      partitions_healed_.fetch_add(1, std::memory_order_relaxed);
      it = heal_pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void Mistique::DeriveDeadChunksLocked() {
  for (ChunkId id : store_.ListChunks()) {
    if (!chunk_refs_.count(id)) dead_chunks_.insert(id);
  }
  if (!dead_chunks_.empty()) dedup_->ForgetChunks(dead_chunks_);
}

void Mistique::LogNoteQuery(ModelId model_id, size_t interm_index) {
  if (!wal_.is_open()) return;
  // Non-durable: reaches the kernel (survives a process kill) without an
  // fsync per query; a machine crash may lose recent n_query increments.
  (void)wal_.Append(static_cast<uint8_t>(CatalogWalRecordType::kNoteQuery),
                    EncodeNoteQuery(model_id,
                                    static_cast<uint32_t>(interm_index)),
                    /*durable=*/false);
}

Status Mistique::DeleteModel(const std::string& project,
                             const std::string& name) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MISTIQUE_ASSIGN_OR_RETURN(ModelId id, metadata_.FindModel(project, name));
  MISTIQUE_ASSIGN_OR_RETURN(const ModelInfo* model, metadata_.GetModel(id));

  std::unordered_set<ChunkId> newly_dead;
  for (const IntermediateInfo& interm : model->intermediates) {
    for (const ColumnInfo& col : interm.columns) {
      for (ChunkId chunk : col.chunks) {
        auto it = chunk_refs_.find(chunk);
        if (it == chunk_refs_.end()) continue;
        if (--it->second == 0) {
          chunk_refs_.erase(it);
          newly_dead.insert(chunk);
        }
      }
    }
  }
  dead_chunks_.insert(newly_dead.begin(), newly_dead.end());
  dedup_->ForgetChunks(newly_dead);

  MISTIQUE_RETURN_NOT_OK(metadata_.RemoveModel(id));
  if (wal_.is_open()) {
    MISTIQUE_RETURN_NOT_OK(wal_.Append(
        static_cast<uint8_t>(CatalogWalRecordType::kModelDelete),
        EncodeModelDelete(project, name), /*durable=*/true));
  }
  // A deleted model has nothing left to heal (not counted as a heal).
  for (auto it = heal_pending_.begin(); it != heal_pending_.end();) {
    auto& pending = it->second;
    for (auto pit = pending.begin(); pit != pending.end();) {
      pit = pit->first == id ? pending.erase(pit) : std::next(pit);
    }
    it = pending.empty() ? heal_pending_.erase(it) : std::next(it);
  }
  pipelines_.erase(id);
  networks_.erase(id);
  // The rebuilt snapshot no longer lists the model; readers pinned to an
  // older epoch keep their view until the pin drops.
  PublishLocked({});
  return Status::OK();
}

Result<uint64_t> Mistique::Vacuum() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Readers pinned to pre-delete snapshots may still resolve chunks that
  // are dead in the current catalog; wait for those pins to drain before
  // rewriting the partitions out from under them. Current-epoch pins are
  // unaffected (their catalog references no dead chunk) and readers never
  // block on writer_mutex_ while pinned, so this terminates.
  snapshots_.WaitForReadersBefore(snapshots_.epoch());
  MISTIQUE_RETURN_NOT_OK(store_.Flush());
  const uint64_t before = store_.stored_bytes();

  // Group dead chunks by their partition.
  std::unordered_map<PartitionId, std::unordered_set<ChunkId>> dead_by_part;
  for (ChunkId chunk : dead_chunks_) {
    auto pid = store_.PartitionOf(chunk);
    if (pid.ok()) dead_by_part[*pid].insert(chunk);
  }

  for (const auto& [pid, dead] : dead_by_part) {
    // keep = partition's chunks minus the dead set.
    MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                              store_.disk().ReadPartition(pid));
    MISTIQUE_ASSIGN_OR_RETURN(std::vector<ChunkId> ids,
                              Partition::ReadChunkIds(bytes));
    std::unordered_set<ChunkId> keep;
    for (ChunkId chunk : ids) {
      if (!dead.count(chunk)) keep.insert(chunk);
    }
    // A crash here leaves earlier partitions rewritten and this one (and
    // later ones) still carrying dead chunks; Open re-derives them dead.
    MISTIQUE_FAULT("vacuum.rewrite");
    MISTIQUE_RETURN_NOT_OK(store_.RewritePartition(pid, keep));
  }
  // A crash here loses only the kVacuumDone marker; the rewrites above
  // are already durable and the dead set is empty either way.
  MISTIQUE_FAULT("vacuum.done");
  dead_chunks_.clear();
  if (wal_.is_open()) {
    MISTIQUE_RETURN_NOT_OK(wal_.Append(
        static_cast<uint8_t>(CatalogWalRecordType::kVacuumDone),
        std::vector<uint8_t>{}, /*durable=*/true));
  }
  const uint64_t after = store_.stored_bytes();
  return before > after ? before - after : 0;
}

Status Mistique::SaveCatalog() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Fold reader-side n_query bumps so the snapshot carries them (their
  // WAL records are discarded by the rotation below).
  FoldQueryStatsLocked();
  MISTIQUE_RETURN_NOT_OK(store_.Flush());
  const uint64_t epoch = wal_.epoch() + 1;
  MISTIQUE_RETURN_NOT_OK(
      metadata_.SaveToFile(options_.store.directory + "/catalog.mq", epoch,
                           options_.store.sync_writes));
  // A crash here leaves the WAL one epoch behind the fresh snapshot; Open
  // detects the stale log and ignores it (its effects are in the snapshot).
  MISTIQUE_FAULT("wal.rotate");
  if (wal_.is_open()) {
    MISTIQUE_RETURN_NOT_OK(wal_.Rotate(epoch));
  }
  return Status::OK();
}

Status Mistique::AttachPipeline(const std::string& project,
                                const std::string& name, Pipeline* pipeline) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MISTIQUE_ASSIGN_OR_RETURN(ModelId id, metadata_.FindModel(project, name));
  MISTIQUE_ASSIGN_OR_RETURN(const ModelInfo* model, metadata_.GetModel(id));
  if (model->kind != ModelKind::kTrad) {
    return Status::InvalidArgument("model " + name + " is not a pipeline");
  }
  pipelines_[id] = pipeline;
  // has_executor is frozen into the snapshot; republish so readers see
  // the re-run path open up.
  PublishLocked({});
  return Status::OK();
}

Status Mistique::AttachNetwork(const std::string& project,
                               const std::string& name, Network* network,
                               std::shared_ptr<const Tensor> input) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MISTIQUE_ASSIGN_OR_RETURN(ModelId id, metadata_.FindModel(project, name));
  MISTIQUE_ASSIGN_OR_RETURN(const ModelInfo* model, metadata_.GetModel(id));
  if (model->kind != ModelKind::kDnn) {
    return Status::InvalidArgument("model " + name + " is not a network");
  }
  DnnSource source;
  source.network = network;
  source.input = std::move(input);
  source.checkpoint_path =
      options_.checkpoint_dir + "/" + project + "_" + name + ".ckpt";
  if (!std::filesystem::exists(source.checkpoint_path)) {
    return Status::NotFound("no checkpoint at " + source.checkpoint_path);
  }
  networks_[id] = std::move(source);
  PublishLocked({});
  return Status::OK();
}

Status Mistique::StoreColumn(const IntermediateInfo& interm,
                             ColumnInfo* column,
                             const std::vector<double>& values,
                             uint64_t first_row, uint64_t group) {
  (void)first_row;
  MISTIQUE_ASSIGN_OR_RETURN(ActiveQuantizer quantizer, QuantizerFor(interm));
  const uint64_t block = interm.row_block_size;
  for (uint64_t start = 0; start < values.size(); start += block) {
    const uint64_t end = std::min<uint64_t>(start + block, values.size());
    std::vector<double> slice(values.begin() + static_cast<ptrdiff_t>(start),
                              values.begin() + static_cast<ptrdiff_t>(end));
    MISTIQUE_ASSIGN_OR_RETURN(ColumnChunk chunk, quantizer.Encode(slice));
    const size_t chunk_bytes = chunk.byte_size();
    column->chunk_min.push_back(chunk.min_value());
    column->chunk_max.push_back(chunk.max_value());
    MISTIQUE_ASSIGN_OR_RETURN(Deduplicator::AddResult added,
                              dedup_->AddChunk(std::move(chunk), group));
    column->chunks.push_back(added.chunk_id);
    RefChunk(added.chunk_id);
    column->encoded_bytes += chunk_bytes;
    if (!added.was_duplicate) column->stored_bytes += chunk_bytes;
  }
  column->materialized = true;
  return Status::OK();
}

Result<ModelId> Mistique::LogPipeline(Pipeline* pipeline,
                                      const std::string& project) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  ModelId staged = kInvalidModelId;
  Status status = StagePipeline(pipeline, project, &staged);
  if (status.ok()) status = CommitStagedModelLocked(staged);
  if (!status.ok()) {
    if (staged != kInvalidModelId) AbortStagedModelLocked(staged);
    return status;
  }
  return staged;
}

Status Mistique::StagePipeline(Pipeline* pipeline, const std::string& project,
                               ModelId* staged) {
  MISTIQUE_ASSIGN_OR_RETURN(
      ModelId id, metadata_.RegisterModel(project, pipeline->name(),
                                          ModelKind::kTrad));
  *staged = id;
  pipelines_[id] = pipeline;
  MISTIQUE_ASSIGN_OR_RETURN(ModelInfo * model, metadata_.GetModel(id));
  const bool materialize = options_.strategy != StorageStrategy::kAdaptive;

  // Pass 1: run + log. Training happens here (stages fit lazily).
  PipelineContext ctx;
  auto log_observer = [&](size_t stage_idx, const DataFrame& frame,
                          double secs) -> Status {
    (void)secs;
    IntermediateInfo interm;
    interm.name = pipeline->stage(stage_idx).output_key();
    interm.stage_index = static_cast<int>(stage_idx);
    interm.num_rows = frame.num_rows();
    interm.row_block_size = options_.row_block_size;
    interm.scheme = QuantScheme::kNone;  // TRAD: full precision.

    // DEDUP places TRAD chunks by similarity (group 0); STORE_ALL mirrors
    // the paper's baseline — each intermediate compressed as its own unit,
    // no cross-intermediate window.
    const uint64_t group =
        options_.strategy == StorageStrategy::kStoreAll
            ? HashCombine(static_cast<uint64_t>(id) + 1,
                          static_cast<uint64_t>(stage_idx) + 1)
            : 0;
    uint64_t encoded = 0;
    for (size_t c = 0; c < frame.num_cols(); ++c) {
      ColumnInfo col;
      col.name = frame.NameAt(c);
      if (materialize) {
        MISTIQUE_RETURN_NOT_OK(
            StoreColumn(interm, &col, frame.ColumnAt(c), 0, group));
      }
      encoded += col.encoded_bytes;
      interm.columns.push_back(std::move(col));
    }
    interm.stored_bytes_per_ex =
        interm.num_rows == 0
            ? 0
            : static_cast<double>(materialize
                                      ? encoded
                                      : EstimateEncodedBytes(interm)) /
                  static_cast<double>(interm.num_rows);
    model->intermediates.push_back(std::move(interm));
    return Status::OK();
  };
  MISTIQUE_RETURN_NOT_OK(pipeline->Run(&ctx, -1, log_observer));

  // Pass 2: calibrate re-run cost. Fitted transformers are reused, so this
  // measures the cost the ChunkReader would actually pay.
  PipelineContext ctx2;
  double cum_sec = 0;
  auto calib_observer = [&](size_t stage_idx, const DataFrame& frame,
                            double secs) -> Status {
    cum_sec += secs;
    IntermediateInfo& interm = model->intermediates[stage_idx];
    interm.cum_exec_sec_per_ex =
        frame.num_rows() == 0 ? 0
                              : cum_sec / static_cast<double>(frame.num_rows());
    return Status::OK();
  };
  MISTIQUE_RETURN_NOT_OK(pipeline->Run(&ctx2, -1, calib_observer));
  return Status::OK();
}

CatalogSummary Mistique::ExportCatalog() const {
  CatalogSummary catalog;
  mvcc::ReadPin pin = snapshots_.Pin();
  if (!pin) return catalog;
  const auto* snap = static_cast<const EngineSnapshot*>(pin.state().get());
  std::vector<ModelId> ids;
  ids.reserve(snap->models.size());
  for (const auto& [id, entry] : snap->models) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (ModelId id : ids) {
    const std::shared_ptr<const ModelInfo>& model = snap->models.at(id).info;
    CatalogSummary::Model out;
    out.project = model->project;
    out.name = model->name;
    out.kind = model->kind;
    for (const IntermediateInfo& interm : model->intermediates) {
      CatalogSummary::Intermediate i;
      i.name = interm.name;
      i.stage_index = interm.stage_index;
      i.num_rows = interm.num_rows;
      for (const ColumnInfo& col : interm.columns) i.columns.push_back(col.name);
      out.intermediates.push_back(std::move(i));
    }
    catalog.models.push_back(std::move(out));
  }
  return catalog;
}

Result<ModelId> Mistique::ImportModel(
    const std::string& project, const std::string& name,
    const std::vector<ImportIntermediate>& intermediates) {
  for (const ImportIntermediate& in : intermediates) {
    if (in.column_names.size() != in.columns.size()) {
      return Status::InvalidArgument("ImportModel: intermediate '" + in.name +
                                     "' has " +
                                     std::to_string(in.column_names.size()) +
                                     " names for " +
                                     std::to_string(in.columns.size()) +
                                     " columns");
    }
    for (const std::vector<double>& col : in.columns) {
      if (col.size() != in.num_rows) {
        return Status::InvalidArgument(
            "ImportModel: intermediate '" + in.name + "' declares " +
            std::to_string(in.num_rows) + " rows but a column holds " +
            std::to_string(col.size()));
      }
    }
  }
  std::lock_guard<std::mutex> lock(writer_mutex_);
  ModelId staged = kInvalidModelId;
  Status status = StageImport(project, name, intermediates, &staged);
  if (status.ok()) status = CommitStagedModelLocked(staged);
  if (!status.ok()) {
    if (staged != kInvalidModelId) AbortStagedModelLocked(staged);
    return status;
  }
  return staged;
}

Status Mistique::StageImport(
    const std::string& project, const std::string& name,
    const std::vector<ImportIntermediate>& intermediates, ModelId* staged) {
  MISTIQUE_ASSIGN_OR_RETURN(
      ModelId id, metadata_.RegisterModel(project, name, ModelKind::kTrad));
  *staged = id;
  MISTIQUE_ASSIGN_OR_RETURN(ModelInfo * model, metadata_.GetModel(id));
  for (size_t k = 0; k < intermediates.size(); ++k) {
    const ImportIntermediate& in = intermediates[k];
    IntermediateInfo interm;
    interm.name = in.name;
    interm.stage_index = in.stage_index;
    interm.num_rows = in.num_rows;
    interm.row_block_size = options_.row_block_size;
    // Imports default to full precision: the source shard already
    // quantized at log time, so its fetch results ARE the stored domain —
    // re-quantizing would compound the error. Callers with raw data may
    // opt into a quantized encoding; the quantizer is fitted over every
    // column of this intermediate so one table covers them all.
    if (in.scheme == QuantScheme::kNone) {
      interm.scheme = QuantScheme::kNone;
    } else {
      std::vector<double> sample;
      for (const std::vector<double>& column : in.columns) {
        sample.insert(sample.end(), column.begin(), column.end());
      }
      MISTIQUE_RETURN_NOT_OK(FitQuantizer(in.scheme, in.kbits,
                                          options_.threshold_alpha, sample,
                                          &interm));
    }
    // One colocation group per intermediate, as StageNetwork keeps one
    // per layer: the columns fill one open partition, sealed every
    // partition_target_bytes, instead of each chunk missing the similarity
    // search and opening a partition of its own. Exact dedup still applies.
    const uint64_t group = HashCombine(static_cast<uint64_t>(id) + 1,
                                       static_cast<uint64_t>(k) + 1);
    uint64_t encoded = 0;
    for (size_t c = 0; c < in.columns.size(); ++c) {
      ColumnInfo col;
      col.name = in.column_names[c];
      MISTIQUE_RETURN_NOT_OK(
          StoreColumn(interm, &col, in.columns[c], 0, group));
      encoded += col.encoded_bytes;
      interm.columns.push_back(std::move(col));
    }
    interm.stored_bytes_per_ex =
        interm.num_rows == 0 ? 0
                             : static_cast<double>(encoded) /
                                   static_cast<double>(interm.num_rows);
    // No executor, so re-run cost stays 0; the fetch path's has_executor
    // fallback pins every query for this model to the read path.
    model->intermediates.push_back(std::move(interm));
  }
  return Status::OK();
}

Result<ModelId> Mistique::LogNetwork(Network* network,
                                     std::shared_ptr<const Tensor> input,
                                     const std::string& project,
                                     const std::string& model_name) {
  if (network == nullptr || input == nullptr || input->n == 0) {
    return Status::InvalidArgument("LogNetwork: null network or empty input");
  }
  std::lock_guard<std::mutex> lock(writer_mutex_);
  ModelId staged = kInvalidModelId;
  Status status =
      StageNetwork(network, std::move(input), project, model_name, &staged);
  if (status.ok()) status = CommitStagedModelLocked(staged);
  if (!status.ok()) {
    if (staged != kInvalidModelId) AbortStagedModelLocked(staged);
    return status;
  }
  return staged;
}

Status Mistique::StageNetwork(Network* network,
                              std::shared_ptr<const Tensor> input,
                              const std::string& project,
                              const std::string& model_name, ModelId* staged) {
  MISTIQUE_ASSIGN_OR_RETURN(
      ModelId id,
      metadata_.RegisterModel(project, model_name, ModelKind::kDnn));
  *staged = id;
  MISTIQUE_ASSIGN_OR_RETURN(ModelInfo * model, metadata_.GetModel(id));

  DnnSource source;
  source.network = network;
  source.input = input;
  source.checkpoint_path =
      options_.checkpoint_dir + "/" + project + "_" + model_name + ".ckpt";
  MISTIQUE_RETURN_NOT_OK(network->SaveCheckpoint(source.checkpoint_path));
  {
    Stopwatch watch;
    MISTIQUE_RETURN_NOT_OK(network->LoadCheckpoint(source.checkpoint_path));
    model->model_load_sec = watch.ElapsedSeconds();
  }
  networks_[id] = source;

  // Calibrate per-layer forward cost on a small batch.
  const int cal_n = std::min(input->n, 128);
  Tensor cal_batch(cal_n, input->c, input->h, input->w);
  std::copy(input->data.begin(),
            input->data.begin() +
                static_cast<ptrdiff_t>(cal_batch.data.size()),
            cal_batch.data.begin());
  std::vector<double> cum_secs(network->num_layers() + 1, 0.0);
  {
    Stopwatch watch;
    auto timing = [&](int layer, const std::string& lname,
                      const Tensor& t) -> Status {
      (void)lname;
      (void)t;
      cum_secs[static_cast<size_t>(layer)] = watch.ElapsedSeconds();
      return Status::OK();
    };
    MISTIQUE_ASSIGN_OR_RETURN(Tensor unused,
                              network->Forward(cal_batch, 0, timing));
    (void)unused;
  }

  // Register one intermediate per layer with its (post-pooling) shape.
  const std::vector<Network::Shape> shapes =
      network->LayerShapes(input->c, input->h, input->w);
  const PoolQuantizer pooler(options_.pool_sigma, options_.pool_mode);
  const bool materialize = options_.strategy != StorageStrategy::kAdaptive;

  for (size_t layer = 1; layer <= network->num_layers(); ++layer) {
    const Network::Shape& shape = shapes[layer];
    IntermediateInfo interm;
    interm.name = "layer" + std::to_string(layer);
    interm.stage_index = static_cast<int>(layer);
    interm.num_rows = static_cast<uint64_t>(input->n);
    interm.row_block_size = options_.row_block_size;
    interm.cum_exec_sec_per_ex =
        cum_secs[layer] / static_cast<double>(cal_n);
    const bool spatial = shape.h > 1 || shape.w > 1;
    if (spatial && options_.pool_sigma > 1) {
      interm.channels = shape.c;
      interm.height = pooler.OutSide(shape.h);
      interm.width = pooler.OutSide(shape.w);
      interm.pool_sigma = options_.pool_sigma;
    } else {
      interm.channels = shape.c;
      interm.height = shape.h;
      interm.width = shape.w;
      interm.pool_sigma = 1;
    }
    const size_t cols = static_cast<size_t>(interm.channels) *
                        interm.height * interm.width;
    interm.columns.resize(cols);
    for (size_t c = 0; c < cols; ++c) {
      interm.columns[c].name = "n" + std::to_string(c);
    }
    model->intermediates.push_back(std::move(interm));
  }

  if (!materialize) {
    // ADAPTIVE: metadata only; fill in size estimates for the cost model.
    for (IntermediateInfo& interm : model->intermediates) {
      interm.scheme = options_.dnn_scheme;
      interm.kbits = options_.kbits;
      interm.stored_bytes_per_ex =
          interm.num_rows == 0
              ? 0
              : static_cast<double>(EstimateEncodedBytes(interm)) /
                    static_cast<double>(interm.num_rows);
    }
    return Status::OK();
  }

  // Logging pass: stream batches (one RowBlock per batch) through the
  // network and store every layer's columns.
  std::vector<bool> fitted(network->num_layers() + 1, false);
  std::vector<ActiveQuantizer> quantizers(network->num_layers() + 1);
  auto log_observer = [&](int layer, const std::string& lname,
                          const Tensor& t) -> Status {
    (void)lname;
    IntermediateInfo& interm =
        model->intermediates[static_cast<size_t>(layer - 1)];
    // Pool if configured and spatial.
    const bool pool = interm.pool_sigma > 1;
    const size_t cols = interm.columns.size();

    // Column-major staging for this batch.
    std::vector<std::vector<double>> staged(cols);
    for (auto& s : staged) s.reserve(static_cast<size_t>(t.n));
    std::vector<double> example(t.PerExample());
    for (int ex = 0; ex < t.n; ++ex) {
      const float* src = t.Example(ex);
      for (size_t i = 0; i < example.size(); ++i) example[i] = src[i];
      if (pool) {
        std::vector<double> pooled =
            pooler.PoolChw(example, t.c, t.h, t.w);
        for (size_t j = 0; j < cols; ++j) staged[j].push_back(pooled[j]);
      } else {
        for (size_t j = 0; j < cols; ++j) staged[j].push_back(example[j]);
      }
    }

    // Fit the value quantizer on the first batch of this layer.
    if (!fitted[static_cast<size_t>(layer)]) {
      std::vector<double> sample;
      const size_t want = 4096;
      for (size_t j = 0; j < cols && sample.size() < want; ++j) {
        for (double v : staged[j]) {
          sample.push_back(v);
          if (sample.size() >= want) break;
        }
      }
      MISTIQUE_RETURN_NOT_OK(FitQuantizer(options_.dnn_scheme, options_.kbits,
                                          options_.threshold_alpha, sample,
                                          &interm));
      MISTIQUE_ASSIGN_OR_RETURN(quantizers[static_cast<size_t>(layer)],
                                QuantizerFor(interm));
      fitted[static_cast<size_t>(layer)] = true;
    }
    const ActiveQuantizer& quantizer = quantizers[static_cast<size_t>(layer)];

    // One chunk per column for this batch (batch size == RowBlock size).
    // Encoding (quantize + pack + fingerprint + stats) is independent per
    // column and runs on the pool; the stateful dedup/placement stage
    // stays serial on this thread.
    const uint64_t group =
        HashCombine(static_cast<uint64_t>(id) + 1,
                    static_cast<uint64_t>(layer) + 1);
    std::vector<ColumnChunk> chunks(cols);
    std::vector<Status> encode_status(cols);
    encode_pool_->ParallelFor(cols, [&](size_t j) {
      Result<ColumnChunk> encoded = quantizer.Encode(staged[j]);
      if (!encoded.ok()) {
        encode_status[j] = encoded.status();
        return;
      }
      chunks[j] = std::move(encoded).ValueOrDie();
      chunks[j].fingerprint();  // Warm the lazy caches off-thread.
      chunks[j].min_value();
    });
    for (size_t j = 0; j < cols; ++j) {
      MISTIQUE_RETURN_NOT_OK(encode_status[j]);
      ColumnInfo& col = interm.columns[j];
      const size_t chunk_bytes = chunks[j].byte_size();
      col.chunk_min.push_back(chunks[j].min_value());
      col.chunk_max.push_back(chunks[j].max_value());
      MISTIQUE_ASSIGN_OR_RETURN(
          Deduplicator::AddResult added,
          dedup_->AddChunk(std::move(chunks[j]), group));
      col.chunks.push_back(added.chunk_id);
      RefChunk(added.chunk_id);
      col.encoded_bytes += chunk_bytes;
      if (!added.was_duplicate) col.stored_bytes += chunk_bytes;
      col.materialized = true;
    }
    StagedBytesGauge()->Set(static_cast<int64_t>(store_.open_bytes()));
    return Status::OK();
  };

  MISTIQUE_ASSIGN_OR_RETURN(
      Tensor final_out,
      network->ForwardBatched(*input,
                              static_cast<int>(options_.row_block_size), 0,
                              log_observer));
  (void)final_out;

  for (IntermediateInfo& interm : model->intermediates) {
    uint64_t encoded = 0;
    for (const ColumnInfo& col : interm.columns) encoded += col.encoded_bytes;
    interm.stored_bytes_per_ex =
        interm.num_rows == 0
            ? 0
            : static_cast<double>(encoded) /
                  static_cast<double>(interm.num_rows);
  }
  return Status::OK();
}

Status Mistique::Flush() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Flush is the lightest writer-mutex entry point, so it doubles as the
  // way to fold reader-counted query stats into the live catalog without
  // saving it (tests and stats readers rely on this).
  FoldQueryStatsLocked();
  return store_.Flush();
}

uint64_t Mistique::EstimateEncodedBytes(const IntermediateInfo& interm,
                                        size_t num_columns) {
  const size_t cols =
      num_columns == 0 ? interm.columns.size() : num_columns;
  const size_t bits = BitsPerValue(interm);
  return (interm.num_rows * cols * bits + 7) / 8;
}

Result<std::pair<size_t, size_t>> Mistique::ChannelColumns(
    const IntermediateInfo& intermediate, int channel) {
  if (intermediate.channels <= 0 || channel < 0 ||
      channel >= intermediate.channels) {
    return Status::InvalidArgument("channel out of range");
  }
  const size_t per_map = static_cast<size_t>(intermediate.height) *
                         intermediate.width;
  const size_t first = static_cast<size_t>(channel) * per_map;
  return std::make_pair(first, first + per_map);
}

Status Mistique::ReadColumns(const ModelInfo& model,
                             const IntermediateInfo& interm,
                             const std::vector<size_t>& column_indices,
                             const std::vector<uint64_t>& rows,
                             FetchResult* out) {
  (void)model;
  const uint64_t block = interm.row_block_size;
  const ReconstructionTable* recon =
      interm.scheme == QuantScheme::kKBit ? &interm.recon : nullptr;

  // Block-outer scan order: all requested columns of one RowBlock are
  // read before moving to the next block. Chunks of the same (layer,
  // block) are co-located in the same partition, so this order
  // decompresses each partition once instead of thrashing the buffer pool
  // when columns span several partitions.
  // Partitions touched by this read stay pinned until it completes:
  // de-duplicated chunks may live in other intermediates' partitions, and
  // without the pin two partitions larger than the buffer pool would
  // thrash each other on alternating columns.
  std::unordered_map<PartitionId, std::shared_ptr<const Partition>> pinned;
  const auto get_chunk = [&](ChunkId id) -> Result<const ColumnChunk*> {
    // dedup_resolve: chunk id -> owning partition -> pinned/pool/disk.
    // Inclusive of any nested disk_read/decompress the load performs.
    obs::AccumSpan span("dedup_resolve");
    MISTIQUE_ASSIGN_OR_RETURN(PartitionId pid, store_.PartitionOf(id));
    auto it = pinned.find(pid);
    if (it != pinned.end()) {
      return it->second->Get(id);
    }
    MISTIQUE_ASSIGN_OR_RETURN(ChunkRef ref, store_.GetChunk(id));
    if (ref.holder != nullptr) pinned.emplace(pid, ref.holder);
    return ref.chunk;
  };

  out->columns.assign(column_indices.size(),
                      std::vector<double>(rows.size()));
  size_t r = 0;
  while (r < rows.size()) {
    const uint64_t block_idx = rows[r] / block;
    size_t r_end = r;
    while (r_end < rows.size() && rows[r_end] / block == block_idx) r_end++;

    for (size_t oi = 0; oi < column_indices.size(); ++oi) {
      const ColumnInfo& col = interm.columns[column_indices[oi]];
      if (block_idx >= col.chunks.size()) {
        return Status::OutOfRange("row " + std::to_string(rows[r]) +
                                  " beyond stored blocks");
      }
      MISTIQUE_ASSIGN_OR_RETURN(const ColumnChunk* chunk,
                                get_chunk(col.chunks[block_idx]));
      // Packed-scannable chunks decode in place: only the requested
      // offsets are pulled out of the packed words (one shifted word
      // load + center lookup each), skipping the whole-chunk scratch
      // decode. Reconstructed values are identical to DecodeAsDouble's.
      const bool is_bit = chunk->dtype() == DType::kBit;
      std::optional<scan::PackedView> view =
          is_bit || (recon != nullptr && !recon->centers.empty())
              ? scan::PackedView::Of(*chunk)
              : std::nullopt;
      if (view) {
        obs::AccumSpan span("decode");
        Metrics().scan_packed_gather_total->Increment();
        std::vector<double>& out_col = out->columns[oi];
        for (size_t k = r; k < r_end; ++k) {
          const uint64_t offset = rows[k] % block;
          if (offset >= view->n) {
            return Status::OutOfRange("row offset beyond chunk");
          }
          const uint64_t bin = view->Get(offset);
          if (is_bit) {
            out_col[k] = bin ? 1.0 : 0.0;
          } else if (bin < recon->centers.size()) {
            out_col[k] = recon->centers[bin];
          } else {
            return Status::InvalidArgument("bin index out of range: " +
                                           std::to_string(bin));
          }
        }
        continue;
      }
      Result<std::vector<double>> decoded_or = [&] {
        obs::AccumSpan span("decode");
        return chunk->DecodeAsDouble(recon);
      }();
      MISTIQUE_ASSIGN_OR_RETURN(std::vector<double> decoded,
                                std::move(decoded_or));
      std::vector<double>& out_col = out->columns[oi];
      for (size_t k = r; k < r_end; ++k) {
        const uint64_t offset = rows[k] % block;
        if (offset >= decoded.size()) {
          return Status::OutOfRange("row offset beyond chunk");
        }
        out_col[k] = decoded[offset];
      }
    }
    r = r_end;
  }
  return Status::OK();
}

Status Mistique::RerunColumns(ModelId model_id, size_t interm_index,
                              const std::vector<size_t>& column_indices,
                              const std::vector<uint64_t>& rows,
                              FetchResult* out) {
  MISTIQUE_ASSIGN_OR_RETURN(ModelInfo * model, metadata_.GetModel(model_id));
  IntermediateInfo& interm = model->intermediates[interm_index];

  if (model->kind == ModelKind::kTrad) {
    auto it = pipelines_.find(model_id);
    if (it == pipelines_.end()) {
      return Status::Internal("no pipeline executor registered for model");
    }
    Pipeline* pipeline = it->second;
    PipelineContext ctx;
    MISTIQUE_RETURN_NOT_OK(pipeline->Run(&ctx, interm.stage_index));
    MISTIQUE_ASSIGN_OR_RETURN(
        const DataFrame* frame,
        ctx.Frame(pipeline->stage(static_cast<size_t>(interm.stage_index))
                      .output_key()));
    out->columns.assign(column_indices.size(), {});
    for (size_t oi = 0; oi < column_indices.size(); ++oi) {
      const std::string& cname = interm.columns[column_indices[oi]].name;
      MISTIQUE_ASSIGN_OR_RETURN(const std::vector<double>* col,
                                frame->Column(cname));
      std::vector<double>& out_col = out->columns[oi];
      out_col.reserve(rows.size());
      for (uint64_t r : rows) {
        if (r >= col->size()) return Status::OutOfRange("row beyond frame");
        out_col.push_back((*col)[r]);
      }
    }
    return Status::OK();
  }

  // DNN: reload the checkpoint (real model-load cost), forward enough rows
  // to cover the request, capture the target layer.
  auto it = networks_.find(model_id);
  if (it == networks_.end()) {
    return Status::Internal("no network registered for model");
  }
  DnnSource& src = it->second;
  MISTIQUE_RETURN_NOT_OK(src.network->LoadCheckpoint(src.checkpoint_path));

  uint64_t needed = 0;
  for (uint64_t r : rows) needed = std::max(needed, r + 1);
  if (needed > static_cast<uint64_t>(src.input->n)) {
    return Status::OutOfRange("row beyond logged input");
  }
  Tensor input_slice(static_cast<int>(needed), src.input->c, src.input->h,
                     src.input->w);
  std::copy(src.input->data.begin(),
            src.input->data.begin() +
                static_cast<ptrdiff_t>(input_slice.data.size()),
            input_slice.data.begin());

  const PoolQuantizer pooler(interm.pool_sigma, options_.pool_mode);
  const int target_layer = interm.stage_index;
  std::vector<std::vector<double>> staged(interm.columns.size());
  for (auto& s : staged) s.reserve(needed);

  auto observer = [&](int layer, const std::string& lname,
                      const Tensor& t) -> Status {
    (void)lname;
    if (layer != target_layer) return Status::OK();
    std::vector<double> example(t.PerExample());
    for (int ex = 0; ex < t.n; ++ex) {
      const float* sp = t.Example(ex);
      for (size_t i = 0; i < example.size(); ++i) example[i] = sp[i];
      if (interm.pool_sigma > 1) {
        std::vector<double> pooled = pooler.PoolChw(example, t.c, t.h, t.w);
        for (size_t j = 0; j < staged.size(); ++j) {
          staged[j].push_back(pooled[j]);
        }
      } else {
        for (size_t j = 0; j < staged.size(); ++j) {
          staged[j].push_back(example[j]);
        }
      }
    }
    return Status::OK();
  };
  MISTIQUE_ASSIGN_OR_RETURN(
      Tensor unused,
      src.network->ForwardBatched(input_slice,
                                  static_cast<int>(options_.row_block_size),
                                  target_layer, observer));
  (void)unused;

  out->columns.assign(column_indices.size(), {});
  for (size_t oi = 0; oi < column_indices.size(); ++oi) {
    const std::vector<double>& full = staged[column_indices[oi]];
    std::vector<double>& out_col = out->columns[oi];
    out_col.reserve(rows.size());
    for (uint64_t r : rows) out_col.push_back(full[r]);
  }
  return Status::OK();
}

Status Mistique::MaterializeColumns(
    ModelId model_id, size_t interm_index,
    const std::vector<size_t>& column_indices) {
  MISTIQUE_ASSIGN_OR_RETURN(ModelInfo * model, metadata_.GetModel(model_id));
  IntermediateInfo& interm = model->intermediates[interm_index];

  std::vector<size_t> targets;
  if (column_indices.empty()) {
    for (size_t i = 0; i < interm.columns.size(); ++i) targets.push_back(i);
  } else {
    targets = column_indices;
  }
  // Skip columns that already made it to storage.
  targets.erase(std::remove_if(targets.begin(), targets.end(),
                               [&](size_t i) {
                                 return interm.columns[i].materialized;
                               }),
                targets.end());
  if (targets.empty()) return Status::OK();

  // Recreate the needed columns for every row with one re-run.
  std::vector<uint64_t> all_rows(interm.num_rows);
  for (uint64_t i = 0; i < interm.num_rows; ++i) all_rows[i] = i;
  FetchResult full;
  MISTIQUE_RETURN_NOT_OK(
      RerunColumns(model_id, interm_index, targets, all_rows, &full));

  // Fit the value quantizer now if the scheme needs tables.
  if ((interm.scheme == QuantScheme::kKBit && interm.recon.centers.empty()) ||
      (interm.scheme == QuantScheme::kThreshold && interm.threshold == 0)) {
    std::vector<double> sample;
    const size_t want = 4096;
    for (const auto& col : full.columns) {
      for (double v : col) {
        sample.push_back(v);
        if (sample.size() >= want) break;
      }
      if (sample.size() >= want) break;
    }
    MISTIQUE_RETURN_NOT_OK(FitQuantizer(interm.scheme, interm.kbits,
                                        options_.threshold_alpha, sample,
                                        &interm));
  }

  const uint64_t group =
      model->kind == ModelKind::kDnn
          ? HashCombine(static_cast<uint64_t>(model_id) + 1,
                        static_cast<uint64_t>(interm.stage_index) + 1)
          : 0;
  for (size_t ti = 0; ti < targets.size(); ++ti) {
    MISTIQUE_RETURN_NOT_OK(StoreColumn(interm,
                                       &interm.columns[targets[ti]],
                                       full.columns[ti], 0, group));
  }

  // Per-example byte rate, extrapolated from the materialized columns so
  // ReadSeconds' column-fraction scaling stays consistent while the
  // intermediate is only partially materialized.
  uint64_t encoded = 0;
  size_t materialized_cols = 0;
  for (const ColumnInfo& col : interm.columns) {
    if (col.materialized) {
      encoded += col.encoded_bytes;
      materialized_cols++;
    }
  }
  if (interm.num_rows > 0 && materialized_cols > 0) {
    interm.stored_bytes_per_ex =
        static_cast<double>(encoded) / static_cast<double>(interm.num_rows) *
        static_cast<double>(interm.columns.size()) /
        static_cast<double>(materialized_cols);
  }
  return Status::OK();
}

uint64_t Mistique::RequestKey(const FetchRequest& request) {
  uint64_t h = HashString(request.project);
  h = HashCombine(h, HashString(request.model));
  h = HashCombine(h, HashString(request.intermediate));
  for (const std::string& col : request.columns) {
    h = HashCombine(h, HashString(col));
  }
  h = HashCombine(h, request.n_ex);
  for (uint64_t r : request.row_ids) h = HashCombine(h, Mix64(r + 1));
  h = HashCombine(h, request.force_read.has_value()
                         ? (*request.force_read ? 2u : 1u)
                         : 0u);
  h = HashCombine(h, SampleStride(request));
  return Mix64(h);
}

bool Mistique::SameRequest(const FetchRequest& a, const FetchRequest& b) {
  return a.project == b.project && a.model == b.model &&
         a.intermediate == b.intermediate && a.columns == b.columns &&
         a.n_ex == b.n_ex && a.row_ids == b.row_ids &&
         a.force_read == b.force_read && SampleStride(a) == SampleStride(b);
}

namespace {

/// One fetch's read-or-re-run decision (Alg. 3 with Eq. 2-4), made from
/// catalog state alone. The snapshot and writer paths plan identically
/// and differ only in what they may execute.
struct FetchPlan {
  std::vector<size_t> columns;  ///< resolved column indices
  std::vector<uint64_t> rows;   ///< resolved row ids, ascending
  bool materialized = false;    ///< every requested column is stored
  bool use_read = false;
  /// The cost model chose freely between two viable strategies, so the
  /// outcome can be judged as a misprediction.
  bool free_choice = false;
  double predicted_read_sec = 0;
  double predicted_rerun_sec = 0;
};

Result<FetchPlan> PlanFetch(const CostModel& cost, const ModelInfo& model,
                            const IntermediateInfo& interm, bool has_executor,
                            const FetchRequest& request) {
  FetchPlan plan;
  MISTIQUE_RETURN_NOT_OK(ResolveColumns(interm, request, &plan.columns));
  MISTIQUE_RETURN_NOT_OK(ResolveRows(interm, request, &plan.rows));
  plan.materialized =
      !interm.columns.empty() &&
      std::all_of(plan.columns.begin(), plan.columns.end(),
                  [&](size_t i) { return interm.columns[i].materialized; });
  const double col_fraction =
      interm.columns.empty()
          ? 1.0
          : static_cast<double>(plan.columns.size()) /
                static_cast<double>(interm.columns.size());
  const auto n_rows = static_cast<uint64_t>(plan.rows.size());
  plan.predicted_rerun_sec = cost.RerunSeconds(model, interm, n_rows);
  plan.predicted_read_sec = cost.ReadSeconds(interm, n_rows, col_fraction);

  if (request.force_read.has_value()) {
    plan.use_read = *request.force_read;
    if (plan.use_read && !plan.materialized) {
      return Status::InvalidArgument(
          "force_read requested but intermediate is not materialized");
    }
  } else {
    plan.use_read = plan.materialized &&
                    (!has_executor ||
                     plan.predicted_read_sec <= plan.predicted_rerun_sec);
  }
  // Models recovered from a persisted catalog have no executor until one
  // is re-attached; they can only serve reads.
  if (!plan.use_read && !has_executor) {
    return Status::NotFound(
        "model " + request.model +
        " has no executor attached for re-run (reopened store?) and the "
        "intermediate is not materialized");
  }
  plan.free_choice =
      !request.force_read.has_value() && plan.materialized && has_executor;
  return plan;
}

/// The result shell a plan produces before any data moves; stamps the
/// decision into the current trace.
FetchResult BeginFetch(const IntermediateInfo& interm, const FetchPlan& plan,
                       const FetchRequest& request) {
  FetchResult out;
  out.predicted_read_sec = plan.predicted_read_sec;
  out.predicted_rerun_sec = plan.predicted_rerun_sec;
  out.column_names.reserve(plan.columns.size());
  for (size_t i : plan.columns) {
    out.column_names.push_back(interm.columns[i].name);
  }
  out.row_ids = plan.rows;
  out.used_read = plan.use_read;
  if (obs::QueryTrace* t = obs::CurrentTrace()) {
    t->est_rerun_sec = plan.predicted_rerun_sec;
    t->est_read_sec = plan.predicted_read_sec;
    t->strategy = request.force_read.has_value()
                      ? (plan.use_read ? "forced-read" : "forced-rerun")
                      : (plan.use_read ? "read" : "rerun");
  }
  return out;
}

/// Estimated-vs-actual drift, judged only when the plan was a free choice
/// and ran as planned.
void JudgeFetch(const FetchRequest& request, const FetchPlan& plan,
                const FetchResult& out) {
  if (!plan.free_choice ||
      !CostModel::Mispredicted(out.used_read, out.fetch_seconds,
                               out.predicted_read_sec,
                               out.predicted_rerun_sec)) {
    return;
  }
  Metrics().mispredictions_total->Increment();
  LogMisprediction(request, out);
  if (obs::QueryTrace* t = obs::CurrentTrace()) t->mispredicted = true;
}

/// A read failure the writer can heal by re-running the model: a checksum
/// failure (the store already quarantined the partition) or a chunk lost
/// to an earlier quarantine.
bool HealableReadFailure(const Status& status, bool has_executor) {
  return has_executor && (status.code() == StatusCode::kDataLoss ||
                          status.code() == StatusCode::kNotFound);
}

}  // namespace

Result<FetchResult> Mistique::Fetch(const FetchRequest& request) {
  return RunFetch(request, /*count_query=*/true);
}

Result<FetchResult> Mistique::RunFetch(const FetchRequest& request,
                                       bool count_query) {
  Metrics().fetch_total->Increment();
  // Lock-free pass against the pinned snapshot: materialized read paths
  // (the common case for a diagnosis service) run fully parallel with
  // each other AND with the writer logging new checkpoints. Requests
  // that need the re-run executor or adaptive materialization drop the
  // pin and re-enter through the writer mutex.
  {
    obs::TraceSpan pin_span("snapshot_pin");
    mvcc::ReadPin pin = snapshots_.Pin();
    pin_span.End();
    if (pin) {
      const auto* snap =
          static_cast<const EngineSnapshot*>(pin.state().get());
      bool needs_writer = false;
      Result<FetchResult> result =
          FetchSnapshot(*snap, request, count_query, &needs_writer);
      if (!needs_writer) return result;
    }
  }  // Pin dropped before blocking: the Vacuum reader barrier needs it gone.
  obs::TraceSpan lock_span("lock_wait_exclusive");
  std::lock_guard<std::mutex> lock(writer_mutex_);
  lock_span.End();
  // The adaptive γ decision below reads n_query off the live catalog;
  // fold so it includes the bump this query just made.
  FoldQueryStatsLocked();
  // Escalations triggered by a checksum failure arrive here with the bad
  // partition already quarantined; demote the affected columns first so
  // the retry below naturally picks the re-run path (and then heals).
  MISTIQUE_RETURN_NOT_OK(HandleCorruptionsLocked(/*scan_all=*/false));
  return FetchWriterLocked(request);
}

Result<FetchResult> Mistique::FetchSnapshot(const EngineSnapshot& snap,
                                            const FetchRequest& request,
                                            bool count_query,
                                            bool* needs_writer) {
  auto name_it = snap.by_name.find(request.project + "." + request.model);
  if (name_it == snap.by_name.end()) {
    return Status::NotFound("unknown model " + request.project + "." +
                            request.model);
  }
  const ModelId model_id = name_it->second;
  const EngineSnapshot::Model& entry = snap.models.at(model_id);
  const ModelInfo& model = *entry.info;
  MISTIQUE_ASSIGN_OR_RETURN(
      size_t interm_index, FindIntermediateIndex(model, request.intermediate));
  const IntermediateInfo& interm = model.intermediates[interm_index];
  if (count_query) NotePendingQuery(model_id, interm_index);

  // has_executor is frozen at publish time (readers must not probe the
  // live executor maps); Attach* republishes to flip it.
  MISTIQUE_ASSIGN_OR_RETURN(
      FetchPlan plan,
      PlanFetch(cost_model_, model, interm, entry.has_executor, request));
  // Re-run execution mutates shared state (pipeline transformers, network
  // weights via checkpoint reload) and may trigger materialization, so it
  // needs the writer mutex.
  if (!plan.use_read) {
    *needs_writer = true;
    return FetchResult{};
  }

  FetchResult out = BeginFetch(interm, plan, request);
  Stopwatch watch;
  const Status read_status = [&] {
    obs::TraceSpan span("read");
    return ReadColumns(model, interm, plan.columns, plan.rows, &out);
  }();
  if (!read_status.ok()) {
    if (!HealableReadFailure(read_status, entry.has_executor)) {
      return read_status;
    }
    *needs_writer = true;  // the writer re-runs and heals
    return FetchResult{};
  }
  out.fetch_seconds = watch.ElapsedSeconds();
  Metrics().fetch_read_total->Increment();
  JudgeFetch(request, plan, out);
  return out;
}

Result<FetchResult> Mistique::FetchWriterLocked(const FetchRequest& request) {
  MISTIQUE_ASSIGN_OR_RETURN(ModelId model_id,
                            metadata_.FindModel(request.project,
                                                request.model));
  MISTIQUE_ASSIGN_OR_RETURN(ModelInfo * model, metadata_.GetModel(model_id));
  MISTIQUE_ASSIGN_OR_RETURN(
      size_t interm_index,
      FindIntermediateIndex(*model, request.intermediate));
  IntermediateInfo& interm = model->intermediates[interm_index];
  // The query itself was already counted by the snapshot pass
  // (NotePendingQuery), and Fetch folded the side table before calling.
  const bool has_executor =
      pipelines_.count(model_id) != 0 || networks_.count(model_id) != 0;
  MISTIQUE_ASSIGN_OR_RETURN(
      FetchPlan plan,
      PlanFetch(cost_model_, *model, interm, has_executor, request));

  FetchResult out = BeginFetch(interm, plan, request);
  Stopwatch watch;
  bool read_failed_over = false;  // corruption heal, not a model error
  if (plan.use_read) {
    const Status read_status = [&] {
      obs::TraceSpan span("read");
      return ReadColumns(*model, interm, plan.columns, plan.rows, &out);
    }();
    if (!read_status.ok()) {
      if (!HealableReadFailure(read_status, has_executor)) return read_status;
      MISTIQUE_RETURN_NOT_OK(HandleCorruptionsLocked(/*scan_all=*/false));
      out.columns.clear();
      out.used_read = false;
      read_failed_over = true;
    }
  }
  if (!out.used_read) {
    obs::TraceSpan span("rerun");
    MISTIQUE_RETURN_NOT_OK(RerunColumns(model_id, interm_index, plan.columns,
                                        plan.rows, &out));
  }
  out.fetch_seconds = watch.ElapsedSeconds();
  (out.used_read ? Metrics().fetch_read_total : Metrics().fetch_rerun_total)
      ->Increment();
  if (!read_failed_over) JudgeFetch(request, plan, out);

  // Rerun-based self-healing: a corruption demoted this intermediate, and
  // the re-run that just served the query can re-materialize it so future
  // reads come off storage again.
  if (!out.used_read && IsHealPending(model_id, interm_index)) {
    obs::TraceSpan span("materialize");
    MISTIQUE_RETURN_NOT_OK(MaterializeColumns(model_id, interm_index, {}));
    MISTIQUE_RETURN_NOT_OK(PersistIntermediateUpdate(model_id, interm_index));
    NoteIntermediateHealed(model_id, interm_index);
    out.materialized_now = true;
    Metrics().materializations_total->Increment();
  }

  // Adaptive materialization (Alg. 4, column granularity): a re-run query
  // may tip γ over the threshold, materializing the *queried columns* for
  // future queries. γ uses the byte cost of just those columns, so hot
  // narrow columns materialize sooner than whole wide intermediates.
  if (!out.used_read && !plan.materialized && !out.materialized_now &&
      options_.strategy == StorageStrategy::kAdaptive) {
    const double gamma = cost_model_.Gamma(
        *model, interm, EstimateEncodedBytes(interm, plan.columns.size()));
    if (gamma >= options_.gamma_min) {
      obs::TraceSpan span("materialize");
      MISTIQUE_RETURN_NOT_OK(
          MaterializeColumns(model_id, interm_index, plan.columns));
      MISTIQUE_RETURN_NOT_OK(
          PersistIntermediateUpdate(model_id, interm_index));
      out.materialized_now = true;
      Metrics().materializations_total->Increment();
    }
  }

  if (out.materialized_now) {
    // Future snapshot readers should see the freshly materialized columns.
    PublishLocked({model_id});
  }

  if (obs::QueryTrace* t = obs::CurrentTrace()) {
    t->materialized_now = out.materialized_now;
  }
  return out;
}

Result<ScanResult> Mistique::Scan(const ScanRequest& request) {
  Metrics().scan_total->Increment();
  ScanResult out;
  bool rerun_fallback = false;
  bool packed_scan = false;
  uint64_t num_row_blocks = 0;

  // Phase 1 (pinned snapshot): resolve the predicate column and, when it
  // is materialized, run the zone-map scan in parallel with other readers
  // and the writer. The unmaterialized fallback and the output-column
  // fetch go through the fetch planner, which pins its own snapshot (the
  // scan as a whole is not atomic against a concurrent publish; each phase
  // individually is). Only this phase counts the query in n_query.
  {
    obs::TraceSpan pin_span("snapshot_pin");
    mvcc::ReadPin pin = snapshots_.Pin();
    pin_span.End();
    if (!pin) return Status::Internal("no published catalog snapshot");
    const auto* snap = static_cast<const EngineSnapshot*>(pin.state().get());
    auto name_it = snap->by_name.find(request.project + "." + request.model);
    if (name_it == snap->by_name.end()) {
      return Status::NotFound("unknown model " + request.project + "." +
                              request.model);
    }
    const ModelId model_id = name_it->second;
    const ModelInfo& scan_model = *snap->models.at(model_id).info;
    MISTIQUE_ASSIGN_OR_RETURN(
        size_t scan_interm_idx,
        FindIntermediateIndex(scan_model, request.intermediate));
    const IntermediateInfo* interm =
        &scan_model.intermediates[scan_interm_idx];
    NotePendingQuery(model_id, scan_interm_idx);

    size_t pidx = interm->columns.size();
    for (size_t i = 0; i < interm->columns.size(); ++i) {
      if (interm->columns[i].name == request.predicate_column) {
        pidx = i;
        break;
      }
    }
    if (pidx == interm->columns.size()) {
      return Status::NotFound("intermediate " + interm->name +
                              " has no column " + request.predicate_column);
    }
    if (request.lo > request.hi) {
      return Status::InvalidArgument("scan range is empty (lo > hi)");
    }

    // Maps a stored-domain zone-map bound to the user's value domain
    // (KBIT_QT zone maps hold bin indices).
    const auto to_user_domain = [&](double stored) {
      if (interm->scheme != QuantScheme::kKBit ||
          interm->recon.centers.empty()) {
        return stored;
      }
      auto bin = static_cast<size_t>(std::max(stored, 0.0));
      bin = std::min(bin, interm->recon.centers.size() - 1);
      return interm->recon.centers[bin];
    };

    const ColumnInfo& pcol = interm->columns[pidx];
    const ReconstructionTable* recon =
        interm->scheme == QuantScheme::kKBit ? &interm->recon : nullptr;
    num_row_blocks = interm->NumRowBlocks();

    // Compressed-domain predicate translation (docs/SCAN.md): bin centers
    // are non-decreasing, so "reconstructed value in [lo, hi]" is exactly
    // "stored bin in [lo_bin, hi_bin]" — translated once per query, then
    // qualified chunks are scanned on their packed words without
    // dequantizing a single cell. THRESHOLD_QT bitmaps reconstruct to
    // {0, 1}, i.e. a two-entry center table.
    static const std::vector<double> kThresholdCenters = {0.0, 1.0};
    const std::vector<double>* centers = nullptr;
    if (interm->scheme == QuantScheme::kKBit &&
        !interm->recon.centers.empty()) {
      centers = &interm->recon.centers;
    } else if (interm->scheme == QuantScheme::kThreshold) {
      centers = &kThresholdCenters;
    }
    const bool packed_pred = centers != nullptr;
    int64_t lo_bin = 0;
    int64_t hi_bin = -1;
    if (packed_pred) {
      lo_bin = std::lower_bound(centers->begin(), centers->end(),
                                request.lo) -
               centers->begin();
      hi_bin = (std::upper_bound(centers->begin(), centers->end(),
                                 request.hi) -
                centers->begin()) -
               1;
    }

    if (pcol.materialized && !pcol.chunks.empty()) {
      packed_scan = packed_pred && options_.enable_packed_scan;
      const uint64_t block = interm->row_block_size;
      for (size_t b = 0; b < pcol.chunks.size(); ++b) {
        // Zone-map pruning: skip blocks whose value range cannot intersect
        // the predicate interval.
        if (b < pcol.chunk_min.size() && b < pcol.chunk_max.size()) {
          const double user_min = to_user_domain(pcol.chunk_min[b]);
          const double user_max = to_user_domain(pcol.chunk_max[b]);
          if (user_max < request.lo || user_min > request.hi) {
            out.blocks_pruned++;
            continue;
          }
        }
        out.blocks_scanned++;
        Result<ChunkRef> ref = store_.GetChunk(pcol.chunks[b]);
        if (!ref.ok()) {
          const StatusCode code = ref.status().code();
          if (code != StatusCode::kDataLoss &&
              code != StatusCode::kNotFound) {
            return ref.status();
          }
          // Checksum failure mid-scan (partition now quarantined): restart
          // via the re-run fallback below, which also heals the column.
          out.row_ids.clear();
          out.blocks_scanned = 0;
          out.blocks_pruned = 0;
          rerun_fallback = true;
          break;
        }
        std::optional<scan::PackedView> view =
            packed_scan ? scan::PackedView::Of(*ref->chunk) : std::nullopt;
        if (view) {
          // Packed path: predicate evaluated on the stored words.
          obs::AccumSpan span("scan_packed");
          const size_t before = out.row_ids.size();
          if (lo_bin <= hi_bin) {
            scan::CmpPacked(*view, static_cast<uint64_t>(lo_bin),
                            static_cast<uint64_t>(hi_bin), b * block,
                            &out.row_ids);
          }
          Metrics().scan_packed_blocks_total->Increment();
          Metrics().scan_packed_rows_total->Add(out.row_ids.size() - before);
          continue;
        }
        obs::AccumSpan span("scan_decode");
        Metrics().scan_decode_blocks_total->Increment();
        MISTIQUE_ASSIGN_OR_RETURN(std::vector<double> decoded,
                                  ref->chunk->DecodeAsDouble(recon));
        for (size_t offset = 0; offset < decoded.size(); ++offset) {
          const double v = decoded[offset];
          if (v >= request.lo && v <= request.hi) {
            out.row_ids.push_back(b * block + offset);
          }
        }
      }
    } else {
      rerun_fallback = true;
    }
  }

  if (rerun_fallback) {
    // Unmaterialized: recreate the predicate column, filter in memory.
    FetchRequest fetch;
    fetch.project = request.project;
    fetch.model = request.model;
    fetch.intermediate = request.intermediate;
    fetch.columns = {request.predicate_column};
    MISTIQUE_ASSIGN_OR_RETURN(FetchResult full,
                              RunFetch(fetch, /*count_query=*/false));
    out.blocks_scanned = num_row_blocks;
    for (size_t i = 0; i < full.columns[0].size(); ++i) {
      const double v = full.columns[0][i];
      if (v >= request.lo && v <= request.hi) {
        out.row_ids.push_back(i);
      }
    }
  }

  // Output columns for the matching rows.
  out.column_names = request.columns;
  if (!request.columns.empty() && !out.row_ids.empty()) {
    FetchRequest fetch;
    fetch.project = request.project;
    fetch.model = request.model;
    fetch.intermediate = request.intermediate;
    fetch.columns = request.columns;
    fetch.row_ids = out.row_ids;
    MISTIQUE_ASSIGN_OR_RETURN(FetchResult values,
                              RunFetch(fetch, /*count_query=*/false));
    out.columns = std::move(values.columns);
  } else {
    out.columns.assign(request.columns.size(), {});
  }
  // Stamped last: the nested fetches above stamp their own read/rerun.
  if (obs::QueryTrace* t = obs::CurrentTrace()) {
    t->strategy = rerun_fallback ? "scan-rerun"
                  : packed_scan  ? "scan-packed"
                                 : "scan-decode";
  }
  return out;
}

Result<FetchRequest> Mistique::ParseIntermediateKeys(
    const std::vector<std::string>& keys, uint64_t n_ex) {
  if (keys.empty()) {
    return Status::InvalidArgument("GetIntermediates: no keys");
  }
  FetchRequest request;
  request.n_ex = n_ex;
  bool all_columns = false;
  for (size_t i = 0; i < keys.size(); ++i) {
    MISTIQUE_ASSIGN_OR_RETURN(ColumnKey key, ParseColumnKey(keys[i]));
    if (i == 0) {
      request.project = key.project;
      request.model = key.model;
      request.intermediate = key.intermediate;
    } else if (key.project != request.project || key.model != request.model ||
               key.intermediate != request.intermediate) {
      return Status::InvalidArgument(
          "GetIntermediates keys must target one intermediate");
    }
    if (key.column == "*") {
      all_columns = true;
    } else {
      request.columns.push_back(key.column);
    }
  }
  if (all_columns) request.columns.clear();
  return request;
}

Result<FetchResult> Mistique::GetIntermediates(
    const std::vector<std::string>& keys, uint64_t n_ex) {
  MISTIQUE_ASSIGN_OR_RETURN(FetchRequest request,
                            ParseIntermediateKeys(keys, n_ex));
  return Fetch(request);
}

}  // namespace mistique
