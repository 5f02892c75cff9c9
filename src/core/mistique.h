#ifndef MISTIQUE_CORE_MISTIQUE_H_
#define MISTIQUE_CORE_MISTIQUE_H_

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "core/engine_snapshot.h"
#include "dedup/deduplicator.h"
#include "durability/wal.h"
#include "metadata/metadata_db.h"
#include "mvcc/snapshot_manager.h"
#include "nn/network.h"
#include "pipeline/stage.h"
#include "quantize/quantizer.h"
#include "storage/data_store.h"

namespace mistique {

/// How intermediates are materialized at logging time (Sec. 4/8):
/// STORE_ALL stores everything with no de-duplication, DEDUP stores
/// everything through the dedup layer, ADAPTIVE stores nothing up front and
/// materializes intermediates whose γ exceeds the threshold as queries
/// arrive (Sec. 4.3).
enum class StorageStrategy : uint8_t { kStoreAll = 0, kDedup = 1, kAdaptive = 2 };

const char* StorageStrategyName(StorageStrategy s);

/// Configuration for one Mistique instance.
struct MistiqueOptions {
  DataStoreOptions store;
  DedupOptions dedup;
  StorageStrategy strategy = StorageStrategy::kDedup;

  /// Value quantization for DNN activations (TRAD intermediates are always
  /// stored at full precision, as in the paper).
  QuantScheme dnn_scheme = QuantScheme::kLp32;
  int kbits = 8;                 ///< for kKBit
  double threshold_alpha = 0.005;  ///< for kThreshold
  /// POOL_QT window σ (1 = no pooling) and aggregation.
  int pool_sigma = 1;
  PoolMode pool_mode = PoolMode::kAvg;

  uint64_t row_block_size = 1024;

  /// ADAPTIVE: materialize an intermediate once γ (sec/GB) crosses this.
  double gamma_min = 500.0;

  /// Worker threads for the column-encode stage of DNN logging
  /// (quantization + packing + fingerprinting are embarrassingly parallel
  /// per column). 0 = hardware concurrency, 1 = serial.
  size_t encode_threads = 0;

  CostModelParams cost;
  /// Measure real store read bandwidth at Open (recommended for benches;
  /// off by default so unit tests stay fast).
  bool calibrate_on_open = false;

  /// Evaluate POINTQ/TOPK/COL_DIFF predicates directly on bit-packed
  /// quantized words (src/scan/) when the column qualifies. Off forces the
  /// decode fallback for every block — the results are byte-identical
  /// either way, so this exists only as the baseline for
  /// bench/scan_throughput and as a debugging escape hatch.
  bool enable_packed_scan = true;

  /// Where DNN checkpoints are written (defaults to <store.directory>/ckpt).
  std::string checkpoint_dir;
};

/// One intermediate-fetch request — the engine behind the paper's
/// get_intermediates() API.
struct FetchRequest {
  std::string project;
  std::string model;
  std::string intermediate;
  /// Columns to fetch; empty = all columns.
  std::vector<std::string> columns;
  /// First n examples (0 = all). Ignored when row_ids is non-empty.
  uint64_t n_ex = 0;
  /// Explicit example ids (row_id = position in the logged input).
  std::vector<uint64_t> row_ids;
  /// Overrides the cost model for experiments: true = force read,
  /// false = force re-run.
  std::optional<bool> force_read;
  /// Approximate fetch (paper §10 future work): read only every k-th
  /// RowBlock where k = round(1/sample_fraction). 1.0 = exact. Aggregate
  /// queries (VIS, COL_DIST) trade exactness for proportionally less I/O.
  double sample_fraction = 1.0;
};

/// A predicate scan over one intermediate: select rows whose
/// `predicate_column` value lies in [lo, hi], returning `columns` for the
/// matching rows — the paper's "find predictions for examples with
/// neuron-50 activation > 0.5" query shape.
struct ScanRequest {
  std::string project;
  std::string model;
  std::string intermediate;
  std::string predicate_column;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  /// Output columns; empty = only row ids.
  std::vector<std::string> columns;
};

struct ScanResult {
  std::vector<uint64_t> row_ids;  ///< Matching rows, ascending.
  std::vector<std::string> column_names;
  std::vector<std::vector<double>> columns;  ///< Column-major, matching rows.
  uint64_t blocks_scanned = 0;
  uint64_t blocks_pruned = 0;  ///< Skipped via zone maps without any I/O.
};

/// Fetched columns plus the execution decision and timing breakdown.
struct FetchResult {
  std::vector<std::string> column_names;
  /// Column-major values, decoded to double.
  std::vector<std::vector<double>> columns;
  std::vector<uint64_t> row_ids;

  bool used_read = false;          ///< true = read store, false = re-ran model
  bool from_cache = false;         ///< served from the session result cache
  double fetch_seconds = 0;        ///< measured wall time
  double predicted_read_sec = 0;   ///< cost-model estimates (Eq. 3/4)
  double predicted_rerun_sec = 0;
  bool materialized_now = false;   ///< adaptive: this fetch triggered
                                   ///< materialization
};

/// One intermediate's worth of data for Mistique::ImportModel: the shape
/// plus full-precision column values (column-major, like FetchResult).
struct ImportIntermediate {
  std::string name;
  int stage_index = 0;
  uint64_t num_rows = 0;
  std::vector<std::string> column_names;
  std::vector<std::vector<double>> columns;
  /// Storage encoding for the imported columns. Defaults to full
  /// precision — the right choice for rebalance ingest, where the source
  /// shard already quantized at log time and re-quantizing would compound
  /// the error. Opt into kKBit/kThreshold only for data that has never
  /// been quantized (e.g. synthetic stores); the quantizer is fitted over
  /// all of this intermediate's columns, and the resulting columns take
  /// the compressed-domain scan path (docs/SCAN.md).
  QuantScheme scheme = QuantScheme::kNone;
  int kbits = 8;  ///< for kKBit
};

/// Snapshot of the catalog's shape (no chunk ids or quantization tables):
/// what a rebalance peer needs to stream a model out with ordinary
/// fetches. Mirrors wire::CatalogInfo without making core depend on net.
struct CatalogSummary {
  struct Intermediate {
    std::string name;
    int stage_index = 0;
    uint64_t num_rows = 0;
    std::vector<std::string> columns;
  };
  struct Model {
    std::string project;
    std::string name;
    ModelKind kind = ModelKind::kTrad;
    std::vector<Intermediate> intermediates;
  };
  std::vector<Model> models;
};

/// MISTIQUE: Model Intermediate STore and QUery Engine.
///
/// Ties together the PipelineExecutor (TRAD pipelines + DNN forward
/// passes), the DataStore (quantization, dedup, partitions, buffer pool,
/// disk), the MetadataDb, and the ChunkReader with its cost model (Fig. 3).
///
/// Concurrency (docs/MVCC.md, docs/CONCURRENCY.md): the engine is MVCC —
/// readers and the writer never contend on a catalog lock. Every catalog
/// mutation (logging, import, delete, materialization, corruption
/// demotion) runs under the single `writer_mutex_`, stages privately
/// against the live MetadataDb, and publishes an immutable EngineSnapshot
/// through `snapshots_` with one atomic epoch bump. Fetch/Scan/
/// ExportCatalog pin the current snapshot at admission (mvcc::ReadPin) and
/// serve from that frozen view — a query running while training logs new
/// checkpoints sees byte-identical pre-publish data. Publish seals every
/// staged partition first, so snapshots only reference immutable sealed
/// chunks and reads never touch the writer's open partitions. A Fetch
/// that needs the re-run executor (stateful) or adaptive materialization
/// drops its pin and re-enters through the writer mutex. Registered
/// models become durable via a kModelAdd catalog-WAL record appended just
/// before the in-memory publish: a crash mid-ingest recovers to the last
/// published epoch, leaving only orphan chunks that the next Open derives
/// as dead.
class Mistique {
 public:
  Mistique() = default;
  Mistique(const Mistique&) = delete;
  Mistique& operator=(const Mistique&) = delete;

  Status Open(const MistiqueOptions& options);

  /// Runs `pipeline` end to end and logs every stage output as an
  /// intermediate of model `pipeline->name()` under `project`. The
  /// pipeline object must outlive this Mistique (it is the stored
  /// "transformer" used for re-runs). The model becomes visible to
  /// readers atomically at the end (stage → seal → publish); on error the
  /// staged state is rolled back and readers never saw it.
  Result<ModelId> LogPipeline(Pipeline* pipeline, const std::string& project);

  /// Runs `network` forward over `input` and logs every layer's
  /// activations under `project`.`model_name`. The network and input must
  /// outlive this Mistique; the input doubles as the re-run data source
  /// (the paper pre-fetches DNN inputs into memory). Publishes atomically,
  /// like LogPipeline.
  Result<ModelId> LogNetwork(Network* network,
                             std::shared_ptr<const Tensor> input,
                             const std::string& project,
                             const std::string& model_name);

  /// Seals all open partitions.
  Status Flush();

  /// Flushes and persists the metadata catalog next to the partition files
  /// (<store.directory>/catalog.mq). A later Open on the same directory
  /// recovers every logged model for read-path queries.
  Status SaveCatalog();

  /// Re-registers an executor for a model recovered from a persisted
  /// catalog, re-enabling the re-run path (and adaptive materialization)
  /// for it. The pipeline/network must match the one originally logged.
  Status AttachPipeline(const std::string& project, const std::string& name,
                        Pipeline* pipeline);
  Status AttachNetwork(const std::string& project, const std::string& name,
                       Network* network, std::shared_ptr<const Tensor> input);

  /// Snapshots the catalog's shape from the pinned MVCC snapshot (safe
  /// against concurrent logging/materialization, never blocks).
  CatalogSummary ExportCatalog() const;

  /// Registers `project`.`name` and stores every intermediate's columns at
  /// full precision (QuantScheme::kNone). The imported model has no
  /// executor, so fetches always take the read path — exactly like a model
  /// recovered from a persisted catalog without AttachPipeline. Each
  /// intermediate's columns share their own partitions, like one layer of
  /// LogNetwork; exact dedup applies, the similarity search does not.
  /// This is the ingest half of cluster rebalancing (docs/CLUSTER.md): the
  /// new owner shard fetches a model's columns from the old owner and
  /// imports them locally; the old owner then DeleteModel + Vacuum.
  Result<ModelId> ImportModel(
      const std::string& project, const std::string& name,
      const std::vector<ImportIntermediate>& intermediates);

  /// Deletes a model from the catalog. Chunks shared with other models
  /// (via de-duplication) survive; chunks only this model referenced
  /// become dead and are reclaimed by the next Vacuum(). Readers pinned
  /// to an older snapshot keep seeing the model until their pins drop.
  Status DeleteModel(const std::string& project, const std::string& name);

  /// Rewrites sealed partitions to drop dead chunks left by DeleteModel,
  /// deleting partitions that become empty. Returns reclaimed compressed
  /// bytes. Waits for readers pinned to pre-delete snapshots to drain
  /// first (they may still reference the dead chunks).
  Result<uint64_t> Vacuum();

  /// Fetches an intermediate, deciding read-vs-re-run via the cost model
  /// (Alg. 3). Updates query statistics and, under ADAPTIVE, may
  /// materialize the intermediate.
  Result<FetchResult> Fetch(const FetchRequest& request);

  /// Paper-style key API: each key is project.model.intermediate.column
  /// (column "*" = all). All keys must target the same intermediate.
  Result<FetchResult> GetIntermediates(const std::vector<std::string>& keys,
                                       uint64_t n_ex = 0);

  /// Predicate scan with zone-map pruning. Materialized columns skip
  /// RowBlocks whose [min, max] cannot satisfy the predicate; an
  /// unmaterialized predicate column falls back to re-running the model
  /// and filtering.
  Result<ScanResult> Scan(const ScanRequest& request);

  /// Column index range [first, last) covering channel `channel` of a
  /// spatial intermediate (for activation-map queries like POINTQ).
  static Result<std::pair<size_t, size_t>> ChannelColumns(
      const IntermediateInfo& intermediate, int channel);

  /// Fingerprint of a FetchRequest — the key of QueryService's
  /// per-session result caches. A sampled request enters by the RowBlock
  /// stride the engine samples with, not by its raw fraction.
  static uint64_t RequestKey(const FetchRequest& request);

  /// True when the engine answers `a` and `b` with the same rows and
  /// columns: the fields RequestKey hashes are equal. A cache checks it on
  /// a hit, so a key collision costs a miss instead of a wrong answer.
  static bool SameRequest(const FetchRequest& a, const FetchRequest& b);

  /// Translates GetIntermediates-style keys (project.model.intermediate.
  /// column, column "*" = all; all keys must target one intermediate) into
  /// the equivalent FetchRequest.
  static Result<FetchRequest> ParseIntermediateKeys(
      const std::vector<std::string>& keys, uint64_t n_ex = 0);

  /// The writer's live catalog. Mutable access is for the single-threaded
  /// setup/verification paths (tests, benches); concurrent readers go
  /// through the MVCC snapshot, never through here.
  MetadataDb& metadata() { return metadata_; }
  const MetadataDb& metadata() const { return metadata_; }
  DataStore& store() { return store_; }
  CostModel& cost_model() { return cost_model_; }
  Deduplicator& dedup() { return *dedup_; }
  const MistiqueOptions& options() const { return options_; }

  /// Current MVCC publish epoch (bumps on every catalog publish). Distinct
  /// from the durable WAL epoch: this one is in-process and monotonically
  /// counts publishes since Open (docs/MVCC.md). Service layers use it to
  /// guard session caches against concurrent catalog changes.
  uint64_t CurrentEpoch() const { return snapshots_.epoch(); }

  /// Snapshot-layer introspection (pinned readers, retired snapshots,
  /// reclaim counters) for tests and benches.
  const mvcc::SnapshotManager& snapshots() const { return snapshots_; }

  /// Adjusts the ADAPTIVE materialization threshold at runtime (the Fig. 10
  /// experiment sweeps γ_min after logging).
  void set_gamma_min(double gamma_min) { options_.gamma_min = gamma_min; }

  /// Total compressed bytes on disk + uncompressed in open partitions.
  uint64_t StorageFootprintBytes() const {
    return store_.stored_bytes() + store_.open_bytes();
  }

  /// --- Durability & recovery (docs/DURABILITY.md) ---

  /// Checksum failures detected (at Open or on a read) since Open.
  uint64_t corruptions_detected() const {
    return store_.corruptions_detected();
  }
  /// Quarantined partitions whose every affected intermediate has been
  /// re-materialized by re-running the model.
  uint64_t partitions_healed() const {
    return partitions_healed_.load(std::memory_order_relaxed);
  }
  /// Human-readable notes from the last Open: orphan temp files swept,
  /// stray/truncated partition files skipped, torn WAL tails discarded,
  /// stale WALs ignored.
  const std::vector<std::string>& recovery_warnings() const {
    return recovery_warnings_;
  }

 private:
  struct DnnSource {
    Network* network = nullptr;
    std::shared_ptr<const Tensor> input;
    std::string checkpoint_path;
  };

  /// Stores one column's RowBlock chunks through quantization + dedup and
  /// updates `column`. `group` selects DNN co-location (0 for TRAD).
  Status StoreColumn(const IntermediateInfo& interm, ColumnInfo* column,
                     const std::vector<double>& values, uint64_t first_row,
                     uint64_t group);

  /// Staging halves of the ingest paths: register the model and store its
  /// chunks privately (readers cannot see them — the snapshot is only
  /// rebuilt by the commit). `*staged` is set as soon as the model id
  /// exists so the caller can AbortStagedModelLocked on failure. All
  /// require writer_mutex_.
  Status StagePipeline(Pipeline* pipeline, const std::string& project,
                       ModelId* staged);
  Status StageNetwork(Network* network, std::shared_ptr<const Tensor> input,
                      const std::string& project,
                      const std::string& model_name, ModelId* staged);
  Status StageImport(const std::string& project, const std::string& name,
                     const std::vector<ImportIntermediate>& intermediates,
                     ModelId* staged);

  /// Reads columns [read path of Alg. 3]. Safe off a pinned snapshot: only
  /// touches immutable catalog state and the thread-safe DataStore.
  Status ReadColumns(const ModelInfo& model, const IntermediateInfo& interm,
                     const std::vector<size_t>& column_indices,
                     const std::vector<uint64_t>& rows, FetchResult* out);

  /// Re-runs the model to recreate the intermediate [re-run path].
  /// Requires writer_mutex_ (executors are stateful).
  Status RerunColumns(ModelId model_id, size_t interm_index,
                      const std::vector<size_t>& column_indices,
                      const std::vector<uint64_t>& rows, FetchResult* out);

  /// ADAPTIVE: materializes the given columns (Alg. 4 decides at column
  /// granularity) by re-running the model once; empty = all columns.
  Status MaterializeColumns(ModelId model_id, size_t interm_index,
                            const std::vector<size_t>& column_indices);

  /// Estimated encoded bytes if `num_columns` of this intermediate were
  /// materialized (0 = all).
  static uint64_t EstimateEncodedBytes(const IntermediateInfo& interm,
                                       size_t num_columns = 0);

  /// Fetch with or without counting the query in n_query: Scan counts
  /// itself once and runs its nested fetches uncounted.
  Result<FetchResult> RunFetch(const FetchRequest& request, bool count_query);

  /// Lock-free fetch against a pinned snapshot. Handles the read path end
  /// to end; when the request needs the writer (re-run execution,
  /// adaptive materialization, or a corruption demotion) it sets
  /// *needs_writer and returns an empty result so RunFetch re-enters
  /// through writer_mutex_.
  Result<FetchResult> FetchSnapshot(const EngineSnapshot& snap,
                                    const FetchRequest& request,
                                    bool count_query, bool* needs_writer);

  /// Writer-side fetch on the live catalog (re-run, heal, adaptive
  /// materialization; publishes when the catalog changed). Requires
  /// writer_mutex_. The query was already counted by the snapshot pass.
  Result<FetchResult> FetchWriterLocked(const FetchRequest& request);

  /// Rebuilds and publishes the EngineSnapshot from the live catalog.
  /// ModelInfo copies are reused from published_cache_ unless the id is in
  /// `dirty` (copy-on-write at model granularity). Requires writer_mutex_.
  void PublishLocked(const std::unordered_set<ModelId>& dirty);

  /// Durable half of publishing a freshly staged model: seal staged
  /// partitions, append the kModelAdd WAL record, publish. A crash before
  /// the WAL append leaves no catalog trace (orphan chunks only).
  /// Requires writer_mutex_.
  Status CommitStagedModelLocked(ModelId id);

  /// Best-effort rollback of a model whose staging failed before commit:
  /// drops its chunk references (now dead), forgets them in dedup, removes
  /// the catalog entry and executor registration. Requires writer_mutex_.
  void AbortStagedModelLocked(ModelId id);

  /// Reader-side query accounting: bumps the pending n_query side table
  /// (stats_mutex_) and appends the non-durable WAL record. Writers fold
  /// the side table into the live catalog via FoldQueryStatsLocked.
  void NotePendingQuery(ModelId model_id, size_t interm_index);
  void FoldQueryStatsLocked();

  /// Reference-count bookkeeping for chunk sharing across columns/models.
  void RefChunk(ChunkId id) { chunk_refs_[id]++; }
  void RebuildChunkRefs();

  /// Drains the store's quarantine queue and demotes every catalog column
  /// referencing a chunk the store no longer has (materialized=false,
  /// chunk lists cleared), appending durable WAL records and publishing
  /// the demoted models. With `scan_all` the catalog is checked even
  /// without pending events (Open-time invariant repair). Requires
  /// writer_mutex_.
  Status HandleCorruptionsLocked(bool scan_all);

  /// Seals open partitions, then WAL-logs the current catalog entry of one
  /// intermediate (adaptive materialization / heal). Requires
  /// writer_mutex_.
  Status PersistIntermediateUpdate(ModelId model_id, size_t interm_index);

  /// True while (model, interm) awaits re-materialization after a
  /// corruption demotion. Requires writer_mutex_.
  bool IsHealPending(ModelId model_id, size_t interm_index) const;
  /// Marks (model, interm) re-materialized; partitions with nothing left
  /// pending count as healed. Requires writer_mutex_.
  void NoteIntermediateHealed(ModelId model_id, size_t interm_index);

  /// dead_chunks_ = chunks in the store no catalog column references
  /// (orphans from a crash between seal and WAL append, or from deletions
  /// never vacuumed). Requires writer_mutex_, after RebuildChunkRefs.
  void DeriveDeadChunksLocked();

  /// Appends one n_query record; never fails the query (stat loss on
  /// error is acceptable). Thread-safe (the WAL locks internally).
  void LogNoteQuery(ModelId model_id, size_t interm_index);

  MistiqueOptions options_;
  MetadataDb metadata_;
  DataStore store_;
  CostModel cost_model_;
  std::unique_ptr<Deduplicator> dedup_;
  std::unique_ptr<ThreadPool> encode_pool_;

  std::unordered_map<ModelId, Pipeline*> pipelines_;
  std::unordered_map<ModelId, DnnSource> networks_;

  /// Single-writer mutex: logging, re-runs, materialization, delete/
  /// vacuum, catalog saves. Readers never take it — they pin snapshots_.
  std::mutex writer_mutex_;
  /// Epoch-pinned immutable catalog snapshots (docs/MVCC.md). mutable so
  /// const readers (ExportCatalog) can pin.
  mutable mvcc::SnapshotManager snapshots_;
  /// Last published ModelInfo copy per model, reused across publishes for
  /// models the publish did not touch. Guarded by writer_mutex_.
  std::unordered_map<ModelId, std::shared_ptr<const ModelInfo>>
      published_cache_;

  /// Guards the pending n_query side table, the one piece of mutable
  /// state concurrent snapshot readers touch. Leaf lock — never held while
  /// acquiring writer_mutex_.
  std::mutex stats_mutex_;

  // Reader-side n_query increments awaiting the next writer fold, keyed
  // (model_id << 32 | interm_index). Guarded by stats_mutex_.
  std::unordered_map<uint64_t, uint64_t> pending_queries_;

  // How many catalog references each chunk has (dedup shares chunks across
  // columns and models); chunks at zero references await Vacuum().
  std::unordered_map<ChunkId, uint32_t> chunk_refs_;
  std::unordered_set<ChunkId> dead_chunks_;

  // Catalog write-ahead log: mutations since the last snapshot, replayed
  // by Open. Internally synchronized; rotation runs under writer_mutex_
  // while reader n_query appends may race it safely.
  WriteAheadLog wal_;
  std::vector<std::string> recovery_warnings_;
  std::atomic<uint64_t> partitions_healed_{0};
  // Quarantined-but-unhealed partitions -> the (model, interm) entries
  // demoted on their behalf. Guarded by writer_mutex_.
  std::unordered_map<PartitionId, std::set<std::pair<ModelId, size_t>>>
      heal_pending_;
};

}  // namespace mistique

#endif  // MISTIQUE_CORE_MISTIQUE_H_
