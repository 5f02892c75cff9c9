#ifndef MISTIQUE_STORAGE_IN_MEMORY_STORE_H_
#define MISTIQUE_STORAGE_IN_MEMORY_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/hash.h"
#include "common/status.h"
#include "storage/partition.h"

namespace mistique {

/// Names one frame of one layout of a sealed partition. A rewrite gives
/// the partition a new generation, so a frame decoded from the old file is
/// never served under the new layout's frame numbers.
struct FrameKey {
  PartitionId partition = 0;
  uint32_t frame = 0;
  uint64_t generation = 0;
  bool operator==(const FrameKey&) const = default;
};

struct FrameKeyHash {
  size_t operator()(const FrameKey& k) const {
    return static_cast<size_t>(HashCombine(
        HashCombine(k.generation, k.partition), k.frame));
  }
};

/// Bounded LRU buffer pool of decoded partition frames.
///
/// New intermediates land here first (Fig. 3 of the paper); frames read
/// back from disk are also cached here. Eviction hands the victims back
/// to the caller via Insert's return value.
class InMemoryStore {
 public:
  /// `capacity_bytes` bounds the sum of the frames' data_bytes(); at least
  /// one frame is always admitted even if it alone exceeds the budget.
  explicit InMemoryStore(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  InMemoryStore(const InMemoryStore&) = delete;
  InMemoryStore& operator=(const InMemoryStore&) = delete;
  // Movable so owners can re-initialize with a new budget. std::list
  // iterators survive the move, keeping map_ valid.
  InMemoryStore(InMemoryStore&&) = default;
  InMemoryStore& operator=(InMemoryStore&&) = default;

  /// Inserts (or replaces) a frame and returns the frames evicted to fit
  /// the budget, most-stale first. The inserted frame is made
  /// most-recently-used.
  std::vector<std::shared_ptr<const Partition>> Insert(
      const FrameKey& key, std::shared_ptr<const Partition> frame);

  /// Looks up a cached frame, refreshing its recency. Null if absent.
  std::shared_ptr<const Partition> Lookup(const FrameKey& key);

  /// Removes one frame without treating it as an eviction (after the
  /// DataStore rewrites, drops or quarantines its partition). No-op if it
  /// is not cached.
  void Erase(const FrameKey& key);

  size_t size_bytes() const { return size_bytes_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_frames() const { return map_.size(); }

  /// Cache observability for tests and the cost model.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Node {
    FrameKey key;
    std::shared_ptr<const Partition> frame;
  };
  using LruList = std::list<Node>;

  void EraseNode(LruList::iterator it);

  size_t capacity_bytes_;
  size_t size_bytes_ = 0;
  LruList lru_;  // Front = most recent.
  std::unordered_map<FrameKey, LruList::iterator, FrameKeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace mistique

#endif  // MISTIQUE_STORAGE_IN_MEMORY_STORE_H_
