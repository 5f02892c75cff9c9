#ifndef MISTIQUE_COMMON_LRU_CACHE_H_
#define MISTIQUE_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace mistique {

/// A bounded least-recently-used cache with O(1) Get/Put/Erase.
///
/// One intrusive recency list plus a key -> list-iterator map — the classic
/// design, used by QueryService's per-session result caches.
/// Not synchronized; callers guard it with their own mutex (QueryService
/// keeps one cache per session behind a per-session lock).
template <typename K, typename V>
class LruCache {
 public:
  /// `capacity` = max entries; 0 disables the cache (every Get misses,
  /// every Put is dropped), which keeps call sites branch-free.
  explicit LruCache(size_t capacity = 0) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t lookups() const { return lookups_; }

  /// Looks up `key`, refreshing its recency. Returns nullptr on miss. The
  /// pointer stays valid until the next Put/Erase/Clear.
  const V* Get(const K& key) {
    lookups_++;
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    hits_++;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /// Inserts (or replaces) `key`, evicting the least-recently-used entry
  /// once the capacity is exceeded.
  void Put(const K& key, V value) {
    if (capacity_ == 0) return;
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    entries_.emplace_front(key, std::move(value));
    map_[key] = entries_.begin();
    if (map_.size() > capacity_) {
      map_.erase(entries_.back().first);
      entries_.pop_back();
    }
  }

  void Erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    entries_.erase(it->second);
    map_.erase(it);
  }

  void Clear() {
    entries_.clear();
    map_.clear();
  }

 private:
  using EntryList = std::list<std::pair<K, V>>;

  size_t capacity_;
  EntryList entries_;  // Front = most recent.
  std::unordered_map<K, typename EntryList::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t lookups_ = 0;
};

}  // namespace mistique

#endif  // MISTIQUE_COMMON_LRU_CACHE_H_
