#ifndef MISTIQUE_STORAGE_DATA_STORE_H_
#define MISTIQUE_STORAGE_DATA_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"
#include "storage/disk_store.h"
#include "storage/in_memory_store.h"
#include "storage/partition.h"

namespace mistique {

/// Configuration for a DataStore instance.
struct DataStoreOptions {
  /// Directory for sealed partition files.
  std::string directory = "mistique_data";
  /// Buffer-pool budget for decoded partition frames.
  size_t memory_budget_bytes = 256ull << 20;
  /// A partition is sealed (compressed + persisted) once its uncompressed
  /// payload reaches this size.
  size_t partition_target_bytes = 1ull << 22;
  /// Codec applied to sealed partitions: kLzss, or kNone to store raw.
  CodecType codec = CodecType::kLzss;
  /// fsync partition files and catalog snapshots (write-temp + fsync +
  /// atomic rename). Leave on; benches may disable it to isolate I/O cost.
  bool sync_writes = true;
};

/// One quarantined partition: its id and the chunk ids it held at the
/// moment the checksum failure was detected (empty when the corruption was
/// found at Open time, before the chunk index existed). The engine drains
/// these under its exclusive lock to demote affected catalog columns.
struct CorruptionEvent {
  PartitionId partition = 0;
  std::vector<ChunkId> chunks;
};

/// A borrowed chunk plus the shared ownership that keeps it alive.
///
/// For a *sealed* chunk the holder is the decoded frame that holds it, and
/// the ref stays valid as long as the holder is held (frames are immutable).
/// For an *open* chunk the holder is the open partition, and the ref is
/// only valid while the caller excludes writers (the Mistique reader/writer
/// lock provides this): appending to an open partition may relocate its
/// chunk storage.
struct ChunkRef {
  std::shared_ptr<const Partition> holder;
  const ColumnChunk* chunk = nullptr;
};

/// The MISTIQUE DataStore (Sec. 3/4 of the paper): column-oriented storage
/// of intermediates as ColumnChunks grouped into Partitions, fronted by an
/// in-memory buffer pool and backed by an on-disk store.
///
/// Placement is caller-directed: the dedup layer picks the target partition
/// so similar chunks are co-located. A partition auto-seals once it reaches
/// the target size; sealed partitions are immutable. A sealed partition is
/// a run of frames (Partition::Serialize); the index maps each chunk to its
/// partition and frame, and keeps every sealed partition's frame table, so
/// a buffer-pool miss reads, checks and decodes one frame.
///
/// Concurrency (see docs/CONCURRENCY.md): any number of GetChunk readers
/// may run in parallel with each other — index lookups take `mutex_`
/// shared, buffer-pool LRU updates are serialized by `pool_mutex_`, and
/// readers that miss on the same frame coordinate through a single-flight
/// table so exactly one of them pays the disk read + decode; GetChunks
/// reads consecutive frames that a batch misses with one read. Mutating
/// operations (AddChunk, Seal*, Drop*, Rewrite*, RecoverIndex) take
/// `mutex_` exclusively for their index updates, but must be serialized
/// against *each other* by the caller — the Mistique
/// layer's single-writer mutex provides this, which is what lets
/// SealPartition run compression and file I/O without holding `mutex_`.
/// Callers must additionally keep mutators exclusive with respect to
/// in-flight reads that hold ChunkRefs into open partitions; under MVCC
/// (docs/MVCC.md) published snapshots reference only sealed chunks, so
/// snapshot readers never hold such refs.
class DataStore {
 public:
  DataStore() : memory_(0) {}
  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  /// Opens the backing directory and sizes the buffer pool.
  Status Open(const DataStoreOptions& options);

  /// Rebuilds the chunk -> (partition, frame) index and the frame tables
  /// from the partition files already in the directory (reopening a
  /// persisted store). Reads and CRC-checks every file whole, but parses
  /// only frame tables and chunk directories, never decoding a blob.
  /// Resets id counters past the recovered maxima.
  Status RecoverIndex();

  /// Creates a new open partition and returns its id.
  PartitionId CreatePartition();

  /// True while a partition accepts new chunks.
  bool IsOpen(PartitionId id) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return open_.find(id) != open_.end();
  }

  /// Appends `chunk` to the open partition `partition` and returns the new
  /// chunk's id. Seals the partition afterwards if it reached the target
  /// size. InvalidArgument if the partition is sealed or unknown.
  Result<ChunkId> AddChunk(PartitionId partition, ColumnChunk chunk);

  /// Fetches a chunk wherever it lives: open partition, buffer pool, or
  /// disk (reading, checking, decoding and caching its frame). Thread-safe
  /// against concurrent GetChunk calls; see the class comment for the
  /// writer rules.
  Result<ChunkRef> GetChunk(ChunkId id);

  /// Fetches many chunks as GetChunk fetches one, answering `ids[i]` in
  /// `(*out)[i]`: the index is read under one lock, every distinct frame is
  /// looked up in the buffer pool once, under one lock for all of them,
  /// and each frame the pool misses is loaded once. NotFound if an id is
  /// unknown.
  Status GetChunks(std::span<const ChunkId> ids, std::vector<ChunkRef>* out);

  /// Partition that owns a chunk; NotFound for unknown ids.
  Result<PartitionId> PartitionOf(ChunkId id) const;

  /// Chunk ids of an open or sealed partition, in file order; NotFound
  /// for unknown partitions.
  Result<std::vector<ChunkId>> ChunksOf(PartitionId id) const;

  /// Seals one open partition: serializes, compresses, persists, and hands
  /// its frames to the buffer pool. No-op (OK) if already sealed. Compression
  /// and the file write run without `mutex_` held (docs/MVCC.md): the
  /// partition stays resolvable from `open_` until the sealed file is
  /// indexed, so concurrent readers never block on the I/O and never see
  /// the partition neither open nor persisted.
  Status SealPartition(PartitionId id);

  /// Seals every open partition (called at the end of a logging session).
  Status Flush();

  /// Removes a partition entirely — open buffer, cache, disk file, and its
  /// chunks' index entries. Used for scratch data (cost-model calibration
  /// probes); chunks referencing it become unknown.
  Status DropPartition(PartitionId id);

  /// Rewrites a *sealed* partition keeping only the chunks in `keep`
  /// (vacuum after model deletion). Chunk ids are preserved; removed
  /// chunks' index entries are erased. The new file has new frames, so the
  /// partition gets a new generation and its pooled frames are dropped.
  /// Dropping every chunk removes the partition. InvalidArgument for open
  /// partitions.
  Status RewritePartition(PartitionId id,
                          const std::unordered_set<ChunkId>& keep);

  /// --- Statistics for the experiments & cost model ---

  /// Sum of encoded (uncompressed) chunk payload bytes ever added.
  uint64_t logical_bytes() const {
    return logical_bytes_.load(std::memory_order_relaxed);
  }
  /// Compressed bytes currently on disk.
  uint64_t stored_bytes() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return disk_.total_bytes();
  }
  /// Uncompressed bytes sitting in not-yet-sealed partitions.
  uint64_t open_bytes() const;
  /// Stored bytes the buffer pool read from disk since Open: the frames
  /// its misses loaded.
  uint64_t disk_read_bytes() const {
    return disk_read_bytes_.load(std::memory_order_relaxed);
  }
  size_t num_chunks() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return chunk_index_.size();
  }
  /// Times a GetChunk miss piggybacked on another reader's in-flight load
  /// of the same frame instead of decoding it again.
  uint64_t single_flight_waits() const {
    return single_flight_waits_.load(std::memory_order_relaxed);
  }
  /// Checksum failures detected (at Open or on a read) since Open.
  uint64_t corruptions_detected() const {
    return corruptions_detected_.load(std::memory_order_relaxed);
  }

  /// Drains the queue of quarantined partitions. The engine calls this
  /// under its exclusive lock to demote the affected catalog columns.
  std::vector<CorruptionEvent> TakeCorruptionEvents();

  /// Every chunk id currently known to the index (open + sealed).
  std::vector<ChunkId> ListChunks() const;

  /// Warnings from the last Open (orphan temp files swept, stray or
  /// truncated partition files skipped).
  const std::vector<std::string>& open_warnings() const {
    return disk_.open_warnings();
  }

  const InMemoryStore& memory() const { return memory_; }
  const DiskStore& disk() const { return disk_; }

 private:
  /// One in-flight disk load, shared by every reader that missed on the
  /// same frame. The loader fills `frame`/`status` and flips `done`;
  /// waiters block on `cv`.
  struct PendingLoad {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::shared_ptr<const Partition> frame;
  };

  /// Where a chunk lives: its partition and, once sealed, its frame.
  struct ChunkLocation {
    PartitionId partition = 0;
    uint32_t frame = 0;
  };

  /// A sealed partition's current layout. `generation` is new for every
  /// seal and rewrite, and names the layout in frame keys.
  struct SealedPartition {
    uint64_t generation = 0;
    std::vector<FrameInfo> frames;
    std::vector<ChunkId> chunks;
  };

  /// Returns the decoded frame `key`, from the buffer pool or disk
  /// (single-flight). Null when the partition was rewritten or dropped
  /// since the key was resolved: the caller resolves the chunk again.
  Result<std::shared_ptr<const Partition>> LoadFrame(const FrameKey& key);

  /// LoadFrame after its buffer-pool miss: joins an in-flight load of the
  /// frame or reads it.
  Result<std::shared_ptr<const Partition>> LoadMissedFrame(
      const FrameKey& key);

  /// Loads frames of one partition layout that the buffer pool missed,
  /// `keys` in frame order: joins the in-flight loads of some, and reads
  /// the rest, each run of consecutive frames with one read. `(*out)[i]`
  /// answers `keys[i]`, null when the layout went stale.
  Status LoadMissedFrames(std::span<const FrameKey> keys,
                          std::vector<std::shared_ptr<const Partition>>* out);

  /// The loader's half: reads consecutive frames of one partition layout
  /// with one read, checks and decodes each, and pools them. Leaves `out`
  /// null for a stale layout.
  Status ReadFrames(std::span<const FrameKey> keys,
                    std::vector<std::shared_ptr<const Partition>>* out);

  /// Indexes a sealed partition's layout under a new generation and
  /// returns it. Requires `mutex_` held exclusively.
  uint64_t IndexLayoutLocked(PartitionId pid, PartitionLayout layout);

  /// Drops a sealed partition's frames from the buffer pool. Only its
  /// current layout's frames can be pooled: a rewrite drops them before it
  /// indexes the new layout, and a loader pools a frame only while its
  /// layout is current. Requires `mutex_` held exclusively.
  void ErasePooledFramesLocked(const SealedPartition& sealed, PartitionId pid);

  /// True while `key` names the current layout of its partition. Requires
  /// `mutex_` held (shared or exclusive).
  bool IsCurrentLocked(const FrameKey& key) const;

  /// Quarantines a partition whose checksum failed: moves its file aside,
  /// drops its chunks from the index and its frames from the pool, and
  /// records a CorruptionEvent. Requires `mutex_` held exclusively.
  void QuarantineLocked(PartitionId pid);

  DataStoreOptions options_;
  InMemoryStore memory_;
  DiskStore disk_;

  std::unordered_map<PartitionId, std::shared_ptr<Partition>> open_;
  std::unordered_map<PartitionId, SealedPartition> sealed_;
  std::unordered_map<ChunkId, ChunkLocation> chunk_index_;
  PartitionId next_partition_ = 1;
  ChunkId next_chunk_ = 1;
  uint64_t next_generation_ = 1;
  std::atomic<uint64_t> logical_bytes_{0};
  std::atomic<uint64_t> disk_read_bytes_{0};
  std::atomic<uint64_t> single_flight_waits_{0};
  std::atomic<uint64_t> corruptions_detected_{0};
  std::vector<CorruptionEvent> corruption_events_;  // Guarded by mutex_.

  /// Lock order: mutex_ before pool_mutex_; loads_mutex_ is a leaf and is
  /// never held while acquiring either of the others.
  mutable std::shared_mutex mutex_;  // open_, sealed_, chunk_index_, ids,
                                     // disk_.
  mutable std::mutex pool_mutex_;    // memory_ (LRU mutates on Lookup).
  std::mutex loads_mutex_;           // loads_.
  std::unordered_map<FrameKey, std::shared_ptr<PendingLoad>, FrameKeyHash>
      loads_;
};

}  // namespace mistique

#endif  // MISTIQUE_STORAGE_DATA_STORE_H_
