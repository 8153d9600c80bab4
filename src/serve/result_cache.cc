#include "src/serve/result_cache.h"

#include <algorithm>

namespace dissodb {

std::shared_ptr<const Rel> ResultCache::Get(const std::string& key,
                                            uint64_t db_version) {
  std::lock_guard lock(mu_);
  auto it = map_.find(VersionedKey(key, db_version));
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  ++hits_;
  return it->second.rel;
}

void ResultCache::PutLocked(const std::string& key, uint64_t db_version,
                            std::shared_ptr<const Rel> rel,
                            std::shared_ptr<const DeltaRecipe> recipe) {
  if (capacity_ == 0) return;
  const std::string vk = VersionedKey(key, db_version);
  auto it = map_.find(vk);
  if (it != map_.end()) {
    it->second.rel = std::move(rel);
    it->second.recipe = std::move(recipe);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(vk);
  map_.emplace(vk,
               Entry{db_version, std::move(rel), std::move(recipe),
                     lru_.begin()});
  min_entry_version_ = std::min(min_entry_version_, db_version);
  if (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

void ResultCache::Put(const std::string& key, uint64_t db_version,
                      std::shared_ptr<const Rel> rel,
                      std::shared_ptr<const DeltaRecipe> recipe) {
  std::lock_guard lock(mu_);
  PutLocked(key, db_version, std::move(rel), std::move(recipe));
}

ResultCache::Ticket ResultCache::Acquire(const std::string& key,
                                         uint64_t db_version) {
  Ticket ticket;
  std::lock_guard lock(mu_);
  const std::string vk = VersionedKey(key, db_version);
  auto it = map_.find(vk);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    ++hits_;
    ticket.value = it->second.rel;
    return ticket;
  }
  if (capacity_ == 0) {
    // Cache disabled: every requester computes (and Put drops), exactly the
    // pre-dedup disabled semantics.
    ++misses_;
    ticket.leader = true;
    return ticket;
  }
  auto fit = in_flight_.find(vk);
  if (fit != in_flight_.end()) {
    ++in_flight_waits_;
    ticket.pending = fit->second->future;
    return ticket;
  }
  auto entry = std::make_shared<InFlight>();
  entry->future = entry->promise.get_future().share();
  in_flight_.emplace(vk, std::move(entry));
  ++misses_;
  ticket.leader = true;
  return ticket;
}

void ResultCache::Complete(const std::string& key, uint64_t db_version,
                           std::shared_ptr<const Rel> rel,
                           std::shared_ptr<const DeltaRecipe> recipe) {
  std::shared_ptr<InFlight> entry;
  {
    std::lock_guard lock(mu_);
    // Publish before retiring the in-flight entry: an Acquire that misses
    // the in-flight map must find the stored value.
    PutLocked(key, db_version, rel, std::move(recipe));
    auto it = in_flight_.find(VersionedKey(key, db_version));
    if (it != in_flight_.end()) {
      entry = std::move(it->second);
      in_flight_.erase(it);
    }
  }
  // Wake waiters outside the lock; they hold their own future copies.
  if (entry) entry->promise.set_value(std::move(rel));
}

void ResultCache::Abandon(const std::string& key, uint64_t db_version) {
  std::shared_ptr<InFlight> entry;
  {
    std::lock_guard lock(mu_);
    auto it = in_flight_.find(VersionedKey(key, db_version));
    if (it != in_flight_.end()) {
      entry = std::move(it->second);
      in_flight_.erase(it);
    }
  }
  if (entry) entry->promise.set_value(nullptr);
}

size_t ResultCache::EvictOlderThan(uint64_t min_live_version) {
  std::lock_guard lock(mu_);
  // Fast path for the common no-op sweep: min_entry_version_ is a lower
  // bound on every stored version, so commits with nothing stale skip the
  // O(entries) scan (readers never stall behind them).
  if (map_.empty() || min_entry_version_ >= min_live_version) return 0;
  size_t swept = 0;
  uint64_t new_min = ~uint64_t{0};
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.db_version < min_live_version) {
      lru_.erase(it->second.lru_pos);
      it = map_.erase(it);
      ++swept;
    } else {
      new_min = std::min(new_min, it->second.db_version);
      ++it;
    }
  }
  min_entry_version_ = map_.empty() ? ~uint64_t{0} : new_min;
  evictions_ += swept;
  return swept;
}

std::vector<ResultCache::MaintainCandidate> ResultCache::CollectMaintainable(
    uint64_t version, size_t limit) const {
  std::vector<MaintainCandidate> out;
  std::lock_guard lock(mu_);
  // Walk the LRU list front-to-back so the hottest entries are maintained
  // first when `limit` truncates the set.
  for (const std::string& vk : lru_) {
    if (out.size() >= limit) break;
    auto it = map_.find(vk);
    if (it == map_.end()) continue;
    const Entry& e = it->second;
    if (e.db_version != version || e.recipe == nullptr) continue;
    // Recover the unversioned key: the '@<version>' suffix is appended
    // last, so strip at the final '@' (keys may contain '@' internally).
    const size_t at = vk.rfind('@');
    out.push_back(MaintainCandidate{vk.substr(0, at), e.rel, e.recipe});
  }
  return out;
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard lock(mu_);
  ResultCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.in_flight_waits = in_flight_waits_;
  s.evictions = evictions_;
  s.entries = map_.size();
  return s;
}

}  // namespace dissodb
