#include "storage/in_memory_store.h"

namespace mistique {

std::vector<std::shared_ptr<const Partition>> InMemoryStore::Insert(
    const FrameKey& key, std::shared_ptr<const Partition> frame) {
  auto it = map_.find(key);
  if (it != map_.end()) EraseNode(it->second);
  size_bytes_ += frame->data_bytes();
  lru_.push_front(Node{key, std::move(frame)});
  map_[key] = lru_.begin();

  std::vector<std::shared_ptr<const Partition>> evicted;
  // Evict from the tail, but never the frame just inserted.
  while (size_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    evicted.push_back(lru_.back().frame);
    EraseNode(std::prev(lru_.end()));
  }
  return evicted;
}

std::shared_ptr<const Partition> InMemoryStore::Lookup(const FrameKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_++;
    return nullptr;
  }
  hits_++;
  // Refresh recency.
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
  return it->second->frame;
}

void InMemoryStore::Erase(const FrameKey& key) {
  auto it = map_.find(key);
  if (it != map_.end()) EraseNode(it->second);
}

void InMemoryStore::EraseNode(LruList::iterator it) {
  size_bytes_ -= it->frame->data_bytes();
  map_.erase(it->key);
  lru_.erase(it);
}

}  // namespace mistique
