#include "src/serve/result_cache.h"

namespace dissodb {

std::shared_ptr<const Rel> ResultCache::Get(const std::string& key,
                                            uint64_t db_version) {
  std::lock_guard lock(mu_);
  Stored* hit = lru_.Find(key, db_version);
  if (hit == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return hit->rel;
}

void ResultCache::Put(const std::string& key, uint64_t db_version,
                      std::shared_ptr<const Rel> rel,
                      std::shared_ptr<const DeltaRecipe> recipe) {
  std::lock_guard lock(mu_);
  lru_.Put(key, db_version, Stored{std::move(rel), std::move(recipe)});
}

ResultCache::Ticket ResultCache::Acquire(const std::string& key,
                                         uint64_t db_version) {
  Ticket ticket;
  std::lock_guard lock(mu_);
  if (Stored* hit = lru_.Find(key, db_version)) {
    ++hits_;
    ticket.value = hit->rel;
    return ticket;
  }
  auto [it, inserted] = in_flight_.try_emplace({key, db_version});
  if (!inserted) {
    ++in_flight_waits_;
    ticket.pending = it->second->future;
    return ticket;
  }
  it->second = std::make_shared<InFlight>();
  it->second->future = it->second->promise.get_future().share();
  ++misses_;
  ticket.leader = true;
  return ticket;
}

void ResultCache::Complete(const std::string& key, uint64_t db_version,
                           std::shared_ptr<const Rel> rel,
                           std::shared_ptr<const DeltaRecipe> recipe) {
  decltype(in_flight_)::node_type entry;
  {
    std::lock_guard lock(mu_);
    // Publish before retiring the in-flight entry: an Acquire that misses
    // the in-flight map must find the stored value.
    lru_.Put(key, db_version, Stored{rel, std::move(recipe)});
    entry = in_flight_.extract({key, db_version});
  }
  // Wake waiters outside the lock; they hold their own future copies.
  if (entry) entry.mapped()->promise.set_value(std::move(rel));
}

void ResultCache::Abandon(const std::string& key, uint64_t db_version) {
  decltype(in_flight_)::node_type entry;
  {
    std::lock_guard lock(mu_);
    entry = in_flight_.extract({key, db_version});
  }
  if (entry) entry.mapped()->promise.set_value(nullptr);
}

size_t ResultCache::EvictOlderThan(uint64_t min_live_version) {
  std::lock_guard lock(mu_);
  return lru_.EvictOlderThan(min_live_version);
}

std::vector<ResultCache::MaintainCandidate> ResultCache::CollectMaintainable(
    uint64_t version, size_t limit) const {
  std::vector<MaintainCandidate> out;
  std::lock_guard lock(mu_);
  // Most recently used first, so the hottest entries are maintained first
  // when `limit` truncates the set.
  for (const auto& e : lru_.entries()) {
    if (out.size() >= limit) break;
    if (e.version != version || e.value.recipe == nullptr) continue;
    out.push_back(MaintainCandidate{e.key, e.value.rel, e.value.recipe});
  }
  return out;
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard lock(mu_);
  ResultCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.in_flight_waits = in_flight_waits_;
  s.evictions = lru_.evictions();
  s.entries = lru_.size();
  return s;
}

}  // namespace dissodb
