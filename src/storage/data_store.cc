#include "storage/data_store.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <tuple>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mistique {

namespace {
obs::Counter* PoolHits() {
  static obs::Counter* c = obs::GlobalMetrics().GetCounter(
      "mistique_buffer_pool_hits_total",
      "Sealed-chunk lookups whose frame was in the in-memory buffer pool.");
  return c;
}
obs::Counter* PoolLoads() {
  static obs::Counter* c = obs::GlobalMetrics().GetCounter(
      "mistique_buffer_pool_loads_total",
      "Buffer-pool misses that loaded one frame from disk (single-flight "
      "joins not included).");
  return c;
}
obs::Histogram* DecompressSeconds() {
  static obs::Histogram* h = obs::GlobalMetrics().GetHistogram(
      "mistique_decompress_seconds",
      "Wall time to CRC-check and decode one frame after a buffer-pool "
      "miss.");
  return h;
}
}  // namespace

Status DataStore::Open(const DataStoreOptions& options) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  options_ = options;
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    memory_ = InMemoryStore(options.memory_budget_bytes);
  }
  return disk_.Open(options.directory, options.sync_writes);
}

Status DataStore::RecoverIndex() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  chunk_index_.clear();
  sealed_.clear();
  ChunkId max_chunk = 0;
  PartitionId max_partition = 0;
  // The whole-file read verifies every byte (the envelope CRC); only the
  // frame tables and chunk directories are parsed, never a blob.
  for (PartitionId pid : disk_.ListPartitions()) {
    Result<std::vector<uint8_t>> bytes = disk_.ReadPartition(pid);
    if (!bytes.ok()) {
      if (bytes.status().code() == StatusCode::kDataLoss) {
        // Bit rot found at open: quarantine the file and keep going; the
        // engine demotes the affected columns and heals them by rerun.
        // The id stays burned so a healed partition gets a fresh file.
        QuarantineLocked(pid);
        max_partition = std::max(max_partition, pid);
        continue;
      }
      return bytes.status();
    }
    MISTIQUE_ASSIGN_OR_RETURN(PartitionLayout layout,
                              Partition::ReadLayout(*bytes));
    for (ChunkId id : layout.chunk_ids) max_chunk = std::max(max_chunk, id);
    IndexLayoutLocked(pid, std::move(layout));
    max_partition = std::max(max_partition, pid);
  }
  next_chunk_ = max_chunk + 1;
  next_partition_ = max_partition + 1;
  return Status::OK();
}

PartitionId DataStore::CreatePartition() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const PartitionId id = next_partition_++;
  open_[id] = std::make_shared<Partition>(id);
  return id;
}

Result<ChunkId> DataStore::AddChunk(PartitionId partition, ColumnChunk chunk) {
  ChunkId id = 0;
  bool needs_seal = false;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = open_.find(partition);
    if (it == open_.end()) {
      return Status::InvalidArgument("partition " + std::to_string(partition) +
                                     " is not open");
    }
    id = next_chunk_++;
    logical_bytes_.fetch_add(chunk.byte_size(), std::memory_order_relaxed);
    MISTIQUE_RETURN_NOT_OK(it->second->Add(id, std::move(chunk)));
    chunk_index_[id] = ChunkLocation{partition, 0};
    needs_seal = it->second->data_bytes() >= options_.partition_target_bytes;
  }
  // Seal outside the lock: compression + file I/O must not block readers.
  if (needs_seal) MISTIQUE_RETURN_NOT_OK(SealPartition(partition));
  return id;
}

Result<PartitionId> DataStore::PartitionOf(ChunkId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = chunk_index_.find(id);
  if (it == chunk_index_.end()) {
    return Status::NotFound("unknown chunk " + std::to_string(id));
  }
  return it->second.partition;
}

Result<std::vector<ChunkId>> DataStore::ChunksOf(PartitionId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (auto it = open_.find(id); it != open_.end()) {
    return it->second->chunk_ids();
  }
  if (auto it = sealed_.find(id); it != sealed_.end()) {
    return it->second.chunks;
  }
  return Status::NotFound("unknown partition " + std::to_string(id));
}

Result<ChunkRef> DataStore::GetChunk(ChunkId id) {
  for (;;) {
    FrameKey key;
    {
      std::shared_lock<std::shared_mutex> lock(mutex_);
      auto idx = chunk_index_.find(id);
      if (idx == chunk_index_.end()) {
        return Status::NotFound("unknown chunk " + std::to_string(id));
      }
      const ChunkLocation& loc = idx->second;

      // 1. Still open? (Only valid under writer exclusion; see ChunkRef.)
      auto open_it = open_.find(loc.partition);
      if (open_it != open_.end()) {
        MISTIQUE_ASSIGN_OR_RETURN(const ColumnChunk* c,
                                  open_it->second->Get(id));
        return ChunkRef{open_it->second, c};
      }
      auto sealed = sealed_.find(loc.partition);
      if (sealed == sealed_.end()) {
        return Status::Internal("chunk " + std::to_string(id) +
                                " in neither an open nor a sealed partition");
      }
      key = FrameKey{loc.partition, loc.frame, sealed->second.generation};
    }

    // 2. Sealed: its frame from the buffer pool or disk, de-duplicating
    // concurrent loads. A null frame means a rewrite renumbered the
    // frames since the lookup above; resolve the chunk again.
    MISTIQUE_ASSIGN_OR_RETURN(std::shared_ptr<const Partition> frame,
                              LoadFrame(key));
    if (frame == nullptr) continue;
    MISTIQUE_ASSIGN_OR_RETURN(const ColumnChunk* c, frame->Get(id));
    return ChunkRef{std::move(frame), c};
  }
}

Status DataStore::GetChunks(std::span<const ChunkId> ids,
                            std::vector<ChunkRef>* out) {
  constexpr uint32_t kOpenChunk = std::numeric_limits<uint32_t>::max();
  out->assign(ids.size(), ChunkRef{});
  // 1. The index, under one lock: open chunks resolve here, and sealed
  // ones name their frame. Neighbouring chunks mostly share one.
  std::vector<FrameKey> keys;
  std::vector<uint32_t> key_of(ids.size(), kOpenChunk);
  {
    std::unordered_map<FrameKey, uint32_t, FrameKeyHash> seen;
    uint32_t last = kOpenChunk;
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (size_t i = 0; i < ids.size(); ++i) {
      auto idx = chunk_index_.find(ids[i]);
      if (idx == chunk_index_.end()) {
        return Status::NotFound("unknown chunk " + std::to_string(ids[i]));
      }
      const ChunkLocation& loc = idx->second;
      if (auto open_it = open_.find(loc.partition); open_it != open_.end()) {
        MISTIQUE_ASSIGN_OR_RETURN(const ColumnChunk* c,
                                  open_it->second->Get(ids[i]));
        (*out)[i] = ChunkRef{open_it->second, c};
        continue;
      }
      auto sealed = sealed_.find(loc.partition);
      if (sealed == sealed_.end()) {
        return Status::Internal("chunk " + std::to_string(ids[i]) +
                                " in neither an open nor a sealed partition");
      }
      const FrameKey key{loc.partition, loc.frame, sealed->second.generation};
      if (last == kOpenChunk || !(keys[last] == key)) {
        auto [it, inserted] =
            seen.emplace(key, static_cast<uint32_t>(keys.size()));
        if (inserted) keys.push_back(key);
        last = it->second;
      }
      key_of[i] = last;
    }
  }

  // 2. The buffer pool, under one lock for every frame; 3. each miss
  // loaded once.
  std::vector<std::shared_ptr<const Partition>> frames(keys.size());
  uint64_t hits = 0;
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    for (size_t k = 0; k < keys.size(); ++k) {
      frames[k] = memory_.Lookup(keys[k]);
      if (frames[k] != nullptr) hits++;
    }
  }
  PoolHits()->Add(hits);
  // Misses in layout and frame order, so that consecutive frames of one
  // partition load with one read.
  std::vector<uint32_t> missed;
  for (uint32_t k = 0; k < keys.size(); ++k) {
    if (frames[k] == nullptr) missed.push_back(k);
  }
  const auto layout_order = [&](uint32_t a, uint32_t b) {
    return std::tie(keys[a].partition, keys[a].generation, keys[a].frame) <
           std::tie(keys[b].partition, keys[b].generation, keys[b].frame);
  };
  std::sort(missed.begin(), missed.end(), layout_order);
  std::vector<FrameKey> group;
  std::vector<std::shared_ptr<const Partition>> loaded;
  for (size_t a = 0; a < missed.size();) {
    size_t b = a + 1;
    while (b < missed.size() &&
           keys[missed[b]].partition == keys[missed[a]].partition &&
           keys[missed[b]].generation == keys[missed[a]].generation) {
      b++;
    }
    group.clear();
    for (size_t k = a; k < b; ++k) group.push_back(keys[missed[k]]);
    MISTIQUE_RETURN_NOT_OK(LoadMissedFrames(group, &loaded));
    for (size_t k = a; k < b; ++k) frames[missed[k]] = loaded[k - a];
    a = b;
  }

  // 4. Answer from the frames. A frame that came back null was renumbered
  // by a rewrite since step 1, so its chunks resolve again.
  for (size_t i = 0; i < ids.size(); ++i) {
    if (key_of[i] == kOpenChunk) continue;
    const std::shared_ptr<const Partition>& frame = frames[key_of[i]];
    if (frame == nullptr) {
      MISTIQUE_ASSIGN_OR_RETURN((*out)[i], GetChunk(ids[i]));
      continue;
    }
    MISTIQUE_ASSIGN_OR_RETURN(const ColumnChunk* c, frame->Get(ids[i]));
    (*out)[i] = ChunkRef{frame, c};
  }
  return Status::OK();
}

Result<std::shared_ptr<const Partition>> DataStore::LoadFrame(
    const FrameKey& key) {
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    if (auto cached = memory_.Lookup(key)) {
      PoolHits()->Increment();
      return cached;
    }
  }
  return LoadMissedFrame(key);
}

Result<std::shared_ptr<const Partition>> DataStore::LoadMissedFrame(
    const FrameKey& key) {
  std::vector<std::shared_ptr<const Partition>> frame;
  MISTIQUE_RETURN_NOT_OK(LoadMissedFrames({&key, 1}, &frame));
  return frame[0];
}

Status DataStore::LoadMissedFrames(
    std::span<const FrameKey> keys,
    std::vector<std::shared_ptr<const Partition>>* out) {
  out->assign(keys.size(), nullptr);
  // Join the in-flight loads of some frames, and become the loader of the
  // rest.
  std::vector<std::shared_ptr<PendingLoad>> loads(keys.size());
  std::vector<size_t> mine;
  {
    std::lock_guard<std::mutex> lock(loads_mutex_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto [it, inserted] = loads_.try_emplace(keys[i]);
      if (inserted) {
        it->second = std::make_shared<PendingLoad>();
        mine.push_back(i);
      }
      loads[i] = it->second;
    }
  }

  // Read this reader's frames, each run of consecutive ones with one read,
  // and publish them before waiting on anyone else's.
  std::vector<Status> statuses(keys.size());
  std::vector<std::shared_ptr<const Partition>> run_frames;
  for (size_t a = 0; a < mine.size();) {
    size_t b = a + 1;
    while (b < mine.size() &&
           keys[mine[b]].frame == keys[mine[b - 1]].frame + 1) {
      b++;
    }
    std::vector<FrameKey> run;
    for (size_t k = a; k < b; ++k) run.push_back(keys[mine[k]]);
    const Status status = ReadFrames(run, &run_frames);
    for (size_t k = a; k < b; ++k) {
      statuses[mine[k]] = status;
      if (status.ok()) (*out)[mine[k]] = run_frames[k - a];
    }
    a = b;
  }
  {
    std::lock_guard<std::mutex> lock(loads_mutex_);
    for (size_t i : mine) loads_.erase(keys[i]);
  }
  for (size_t i : mine) {
    {
      std::lock_guard<std::mutex> done_lock(loads[i]->m);
      loads[i]->done = true;
      loads[i]->status = statuses[i];
      loads[i]->frame = (*out)[i];
    }
    loads[i]->cv.notify_all();
  }

  Status first_error;
  for (size_t i = 0, m = 0; i < keys.size(); ++i) {
    if (m < mine.size() && mine[m] == i) {
      m++;
    } else {
      single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> wait_lock(loads[i]->m);
      loads[i]->cv.wait(wait_lock, [&] { return loads[i]->done; });
      statuses[i] = loads[i]->status;
      (*out)[i] = loads[i]->frame;
    }
    if (!statuses[i].ok() && first_error.ok()) first_error = statuses[i];
  }
  return first_error;
}

Status DataStore::ReadFrames(
    std::span<const FrameKey> keys,
    std::vector<std::shared_ptr<const Partition>>* out) {
  out->assign(keys.size(), nullptr);
  const FrameKey& first = keys.front();
  // The table entries and the bytes they name are read under one shared
  // lock, so a rewrite can never pair old offsets with a new file.
  std::vector<FrameInfo> infos;
  bool current = false;
  Result<std::vector<uint8_t>> stored = [&]() -> Result<std::vector<uint8_t>> {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    current = IsCurrentLocked(first);
    if (!current) return std::vector<uint8_t>{};
    const std::vector<FrameInfo>& table =
        sealed_.find(first.partition)->second.frames;
    for (const FrameKey& key : keys) infos.push_back(table[key.frame]);
    return disk_.ReadRange(
        first.partition, infos.front().offset,
        uint64_t{infos.back().offset} + infos.back().length -
            infos.front().offset);
  }();
  MISTIQUE_RETURN_NOT_OK(stored.status());
  if (!current) return Status::OK();  // Rewritten or dropped since resolved.

  PoolLoads()->Add(keys.size());
  disk_read_bytes_.fetch_add(stored->size(), std::memory_order_relaxed);
  const std::span<const uint8_t> bytes(*stored);
  for (size_t i = 0; i < keys.size(); ++i) {
    obs::TraceSpan decompress_span("decompress");
    decompress_span.set_bytes(infos[i].length);
    Stopwatch decompress_watch;
    Result<Partition> decoded = Partition::DecodeFrame(
        first.partition, infos[i],
        bytes.subspan(infos[i].offset - infos.front().offset,
                      infos[i].length));
    decompress_span.End();
    DecompressSeconds()->Record(decompress_watch.ElapsedSeconds());
    if (decoded.status().code() == StatusCode::kDataLoss) {
      // Checksum mismatch: move the file aside and forget its chunks so
      // no later read trips over it. Waiters see kDataLoss; the engine's
      // exclusive pass drains the event and re-runs the model.
      std::unique_lock<std::shared_mutex> lock(mutex_);
      if (!IsCurrentLocked(first)) return Status::OK();  // Rewritten.
      QuarantineLocked(first.partition);
      return decoded.status();
    }
    MISTIQUE_RETURN_NOT_OK(decoded.status());
    (*out)[i] =
        std::make_shared<const Partition>(std::move(decoded).ValueOrDie());
  }
  {
    // Pool only frames of the current layout: a rewrite since the read
    // dropped the partition's frames, and stale ones must not return.
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (IsCurrentLocked(first)) {
      std::lock_guard<std::mutex> pool_lock(pool_mutex_);
      for (size_t i = 0; i < keys.size(); ++i) {
        memory_.Insert(keys[i], (*out)[i]);
      }
    }
  }
  return Status::OK();
}

bool DataStore::IsCurrentLocked(const FrameKey& key) const {
  auto it = sealed_.find(key.partition);
  return it != sealed_.end() && it->second.generation == key.generation;
}

void DataStore::ErasePooledFramesLocked(const SealedPartition& sealed,
                                        PartitionId pid) {
  std::lock_guard<std::mutex> pool_lock(pool_mutex_);
  for (uint32_t f = 0; f < sealed.frames.size(); ++f) {
    memory_.Erase(FrameKey{pid, f, sealed.generation});
  }
}

uint64_t DataStore::IndexLayoutLocked(PartitionId pid,
                                      PartitionLayout layout) {
  for (size_t i = 0; i < layout.chunk_ids.size(); ++i) {
    chunk_index_[layout.chunk_ids[i]] =
        ChunkLocation{pid, layout.chunk_frames[i]};
  }
  SealedPartition& sealed = sealed_[pid];
  sealed.generation = next_generation_++;
  sealed.frames = std::move(layout.frames);
  sealed.chunks = std::move(layout.chunk_ids);
  return sealed.generation;
}

Status DataStore::SealPartition(PartitionId id) {
  // Phase 1 — brief exclusive: pin the open partition. It stays in open_
  // so a concurrent GetChunk still resolves its chunks; the caller's
  // single-writer discipline guarantees no concurrent Add relocates its
  // storage while we serialize it.
  std::shared_ptr<Partition> p;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = open_.find(id);
    if (it == open_.end()) return Status::OK();  // Already sealed.
    p = it->second;
  }

  // Phase 2 — unlocked: serialize, compress and write the file. Readers
  // are unaffected: the partition is still served from open_, and the new
  // file stays invisible until phase 3 indexes it.
  MISTIQUE_ASSIGN_OR_RETURN(const Codec* codec, GetCodec(options_.codec));
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, p->Serialize(*codec));
  MISTIQUE_ASSIGN_OR_RETURN(PartitionLayout layout,
                            Partition::ReadLayout(bytes));
  MISTIQUE_RETURN_NOT_OK(disk_.WritePartitionFileOnly(id, bytes));

  // Phase 3 — brief exclusive: index the file and its frames, erase the
  // partition from open_, and hand its chunks to the buffer pool as the
  // still-decoded frames, all in one step, so a concurrent reader never
  // sees the partition neither open nor persisted. The chunks move: no
  // reader holds a ref into an open partition without excluding writers.
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    disk_.IndexWrittenPartition(id, bytes.size());
    open_.erase(id);
    std::vector<Partition> frames = std::move(*p).SplitFrames(layout);
    const uint64_t generation = IndexLayoutLocked(id, std::move(layout));
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    for (uint32_t f = 0; f < frames.size(); ++f) {
      memory_.Insert(FrameKey{id, f, generation},
                     std::make_shared<const Partition>(std::move(frames[f])));
    }
  }
  return Status::OK();
}

Status DataStore::Flush() {
  // Collect ids first (SealPartition mutates open_), then seal each with
  // compression and file I/O outside the lock.
  std::vector<PartitionId> ids;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    ids.reserve(open_.size());
    for (const auto& [id, p] : open_) {
      (void)p;
      ids.push_back(id);
    }
  }
  for (PartitionId id : ids) {
    MISTIQUE_RETURN_NOT_OK(SealPartition(id));
  }
  return Status::OK();
}

Status DataStore::DropPartition(PartitionId id) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (auto it = open_.find(id); it != open_.end()) {
    for (ChunkId chunk : it->second->chunk_ids()) chunk_index_.erase(chunk);
    open_.erase(it);
  }
  if (auto it = sealed_.find(id); it != sealed_.end()) {
    for (ChunkId chunk : it->second.chunks) chunk_index_.erase(chunk);
    ErasePooledFramesLocked(it->second, id);
    sealed_.erase(it);
  }
  return disk_.DeletePartition(id);
}

Status DataStore::RewritePartition(PartitionId id,
                                   const std::unordered_set<ChunkId>& keep) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (open_.count(id)) {
    return Status::InvalidArgument("cannot rewrite open partition " +
                                   std::to_string(id));
  }
  if (!disk_.Contains(id)) {
    return Status::NotFound("partition " + std::to_string(id) +
                            " not on disk");
  }
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                            disk_.ReadPartition(id));
  MISTIQUE_ASSIGN_OR_RETURN(Partition old, Partition::Deserialize(bytes));

  Partition rewritten(id);
  std::vector<ChunkId> dropped;
  for (ChunkId chunk_id : old.chunk_ids()) {
    if (keep.count(chunk_id)) {
      MISTIQUE_ASSIGN_OR_RETURN(const ColumnChunk* chunk, old.Get(chunk_id));
      MISTIQUE_RETURN_NOT_OK(rewritten.Add(chunk_id, *chunk));
    } else {
      dropped.push_back(chunk_id);
    }
  }
  if (auto it = sealed_.find(id); it != sealed_.end()) {
    ErasePooledFramesLocked(it->second, id);
  }
  for (ChunkId chunk_id : dropped) chunk_index_.erase(chunk_id);
  if (rewritten.num_chunks() == 0) {
    sealed_.erase(id);
    return disk_.DeletePartition(id);
  }
  MISTIQUE_ASSIGN_OR_RETURN(const Codec* codec, GetCodec(options_.codec));
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> out,
                            rewritten.Serialize(*codec));
  MISTIQUE_ASSIGN_OR_RETURN(PartitionLayout layout, Partition::ReadLayout(out));
  MISTIQUE_RETURN_NOT_OK(disk_.WritePartition(id, out));
  IndexLayoutLocked(id, std::move(layout));
  return Status::OK();
}

void DataStore::QuarantineLocked(PartitionId pid) {
  // Best effort on the rename: even if it fails the index forgets the
  // partition, so its bytes are never served again this session.
  (void)disk_.QuarantinePartition(pid);
  CorruptionEvent ev;
  ev.partition = pid;
  if (auto it = sealed_.find(pid); it != sealed_.end()) {
    for (ChunkId chunk : it->second.chunks) {
      if (chunk_index_.erase(chunk) != 0) ev.chunks.push_back(chunk);
    }
    ErasePooledFramesLocked(it->second, pid);
    sealed_.erase(it);
  }
  corruption_events_.push_back(std::move(ev));
  corruptions_detected_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<CorruptionEvent> DataStore::TakeCorruptionEvents() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::vector<CorruptionEvent> out;
  out.swap(corruption_events_);
  return out;
}

std::vector<ChunkId> DataStore::ListChunks() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<ChunkId> out;
  out.reserve(chunk_index_.size());
  for (const auto& [id, loc] : chunk_index_) {
    (void)loc;
    out.push_back(id);
  }
  return out;
}

uint64_t DataStore::open_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [id, p] : open_) {
    (void)id;
    total += p->data_bytes();
  }
  return total;
}

}  // namespace mistique
