// VersionedLru — the bounded least-recently-used map behind the engine's
// three caches: compiled plans (stored at version 0), Opt. 3 semi-join
// reductions (keyed by reduction tag and snapshot version) and evaluated
// subplans (ResultCache). Entries are addressed by (key, version), so the
// entries computed against several live snapshot versions coexist, and
// EvictOlderThan drops the versions no held snapshot pins any more.
//
// Not synchronized: every owner guards its instance with its own mutex.
#ifndef DISSODB_SERVE_VERSIONED_LRU_H_
#define DISSODB_SERVE_VERSIONED_LRU_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/common/hash.h"

namespace dissodb {

template <class V>
class VersionedLru {
 public:
  struct Entry {
    std::string key;
    uint64_t version;
    V value;
  };

  /// Holds at most `capacity` entries; 0 stores nothing.
  explicit VersionedLru(size_t capacity) : capacity_(capacity) {}

  // The index views the keys stored in entries_.
  VersionedLru(const VersionedLru&) = delete;
  VersionedLru& operator=(const VersionedLru&) = delete;

  /// The value stored for (key, version), made the most recently used
  /// entry, or nullptr. Valid until the next Put or EvictOlderThan.
  V* Find(std::string_view key, uint64_t version) {
    auto it = index_.find(Slot{key, version});
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  /// Stores `value` for (key, version) as the most recently used entry,
  /// replacing the value already there. An insertion past capacity evicts
  /// the least recently used entry.
  void Put(std::string_view key, uint64_t version, V value) {
    if (capacity_ == 0) return;
    if (V* stored = Find(key, version)) {
      *stored = std::move(value);
      return;
    }
    entries_.push_front(Entry{std::string(key), version, std::move(value)});
    index_.emplace(Slot{entries_.front().key, version}, entries_.begin());
    min_version_ = std::min(min_version_, version);
    if (entries_.size() > capacity_) {
      Erase(std::prev(entries_.end()));
      ++evictions_;
    }
  }

  /// Drops every entry whose version is below `min_version` and returns
  /// how many it dropped. Skips the scan when no stored version is that
  /// old, so the common no-op sweep costs O(1).
  size_t EvictOlderThan(uint64_t min_version) {
    if (entries_.empty() || min_version_ >= min_version) return 0;
    size_t dropped = 0;
    uint64_t new_min = ~uint64_t{0};
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->version < min_version) {
        it = Erase(it);
        ++dropped;
      } else {
        new_min = std::min(new_min, it->version);
        ++it;
      }
    }
    min_version_ = new_min;
    evictions_ += dropped;
    return dropped;
  }

  /// Every stored entry, most recently used first.
  const std::list<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  /// Entries evicted past capacity plus entries dropped by EvictOlderThan.
  size_t evictions() const { return evictions_; }

 private:
  using Iter = typename std::list<Entry>::iterator;
  /// (key, version) with the key viewing its Entry's own string.
  using Slot = std::pair<std::string_view, uint64_t>;
  struct SlotHash {
    size_t operator()(const Slot& s) const {
      size_t h = std::hash<std::string_view>{}(s.first);
      HashCombine(&h, s.second);
      return h;
    }
  };

  Iter Erase(Iter it) {
    index_.erase(Slot{it->key, it->version});
    return entries_.erase(it);
  }

  const size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<Slot, Iter, SlotHash> index_;
  /// Lower bound on every stored version (exact after a sweep, conservative
  /// after capacity evictions); ~0 when empty.
  uint64_t min_version_ = ~uint64_t{0};
  size_t evictions_ = 0;
};

}  // namespace dissodb

#endif  // DISSODB_SERVE_VERSIONED_LRU_H_
