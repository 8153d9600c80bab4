// Bounded, thread-safe cache of evaluated subplan relations, shared across
// queries — the paper's Opt. 2 (reuse common subplans) lifted from one plan
// DAG to the whole workload. Entries are keyed by the query-independent plan
// fingerprint (PlanFingerprint) *and* the snapshot version they were
// computed against, so a mutation can never serve stale results — and
// several versions may coexist: executions against a held (older) snapshot
// keep hitting their own entries while executions against fresh snapshots
// populate the new version's. Versions no held snapshot pins anymore are
// swept by EvictOlderThan (driven from the database's commit hook);
// anything it misses falls to ordinary LRU pressure.
//
// Values are shared_ptr<const Rel>: immutable, so a hit is a pointer copy
// and concurrent readers need no further synchronization.
//
// In-flight deduplication: concurrent requesters of the same missing key
// never compute twice. Acquire() hands exactly one caller a leader ticket
// (it computes and must Complete() or Abandon()); every concurrent
// requester gets a shared_future tied to that computation and waits instead
// of recomputing. Waiting is deadlock-free on the work-sharing Scheduler:
// a leader is by definition already running, and leaders only ever wait on
// strictly smaller subplan fingerprints, so wait chains cannot cycle.
#ifndef DISSODB_SERVE_RESULT_CACHE_H_
#define DISSODB_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/rel.h"
#include "src/serve/versioned_lru.h"

namespace dissodb {

struct DeltaRecipe;  // src/serve/delta_maintenance.h

struct ResultCacheStats {
  size_t hits = 0;
  size_t misses = 0;  ///< leader acquisitions, i.e. actual computations
  size_t in_flight_waits = 0;  ///< requests that waited on a leader instead
  /// Capacity evictions plus entries dropped by EvictOlderThan sweeps.
  size_t evictions = 0;
  size_t entries = 0;
};

class ResultCache {
 public:
  /// Outcome of Acquire(): exactly one of three states.
  ///  - `value` non-null: cache hit, use it.
  ///  - `leader` true: the caller must compute and then Complete()
  ///    (or Abandon() on failure) for (key, db_version).
  ///  - otherwise: another thread is computing; wait on `pending`. A null
  ///    future result means the leader abandoned — compute locally.
  struct Ticket {
    std::shared_ptr<const Rel> value;
    bool leader = false;
    std::shared_future<std::shared_ptr<const Rel>> pending;
  };

  /// Holds at most `capacity` relations (LRU eviction); 0 stores nothing.
  explicit ResultCache(size_t capacity) : lru_(capacity) {}

  /// Returns the cached relation for `key` computed at `db_version`, or
  /// nullptr. Entries for other versions are untouched (they may serve
  /// executions pinned to other snapshots).
  std::shared_ptr<const Rel> Get(const std::string& key, uint64_t db_version);

  /// Inserts (or refreshes) `rel` for `key` at `db_version`. An entry may
  /// carry a DeltaRecipe — everything needed to roll the cached relation
  /// forward across an append-only commit (see delta_maintenance.h).
  void Put(const std::string& key, uint64_t db_version,
           std::shared_ptr<const Rel> rel,
           std::shared_ptr<const DeltaRecipe> recipe = nullptr);

  /// Hit / lead / wait decision for one lookup (see Ticket). Leader tickets
  /// count as misses; waiter tickets count as in_flight_waits.
  Ticket Acquire(const std::string& key, uint64_t db_version);

  /// Leader publication: stores `rel` (with its maintenance recipe, if
  /// any), wakes every waiter with it, and retires the in-flight entry.
  void Complete(const std::string& key, uint64_t db_version,
                std::shared_ptr<const Rel> rel,
                std::shared_ptr<const DeltaRecipe> recipe = nullptr);

  /// Leader failure: wakes every waiter with nullptr (they compute
  /// locally) and retires the in-flight entry.
  void Abandon(const std::string& key, uint64_t db_version);

  /// Sweeps every entry whose version is below `min_live_version` (the
  /// oldest version any held snapshot still pins — such entries can never
  /// be requested again, but would otherwise linger until LRU pressure).
  /// The serving layer calls this from the database's commit hook and
  /// counts the return value, the number of entries swept, as
  /// engine.result_cache.swept; stats().evictions includes them.
  size_t EvictOlderThan(uint64_t min_live_version);

  /// One entry eligible for delta maintenance: computed at the requested
  /// version and carrying a recipe.
  struct MaintainCandidate {
    std::string key;
    std::shared_ptr<const Rel> rel;
    std::shared_ptr<const DeltaRecipe> recipe;
  };

  /// Snapshots up to `limit` recipe-carrying entries stored at exactly
  /// `version`, hottest (most recently used) first. The commit hook rolls
  /// them forward to the new version and republishes via Put().
  std::vector<MaintainCandidate> CollectMaintainable(uint64_t version,
                                                     size_t limit) const;

  ResultCacheStats stats() const;

 private:
  struct Stored {
    std::shared_ptr<const Rel> rel;
    std::shared_ptr<const DeltaRecipe> recipe;
  };

  struct InFlight {
    std::promise<std::shared_ptr<const Rel>> promise;
    std::shared_future<std::shared_ptr<const Rel>> future;
  };

  mutable std::mutex mu_;
  VersionedLru<Stored> lru_;
  /// In-flight computations are keyed per (key, version) like the stored
  /// entries: a mid-batch commit starts an independent computation rather
  /// than handing waiters another version's result.
  std::map<std::pair<std::string, uint64_t>, std::shared_ptr<InFlight>>
      in_flight_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t in_flight_waits_ = 0;
};

}  // namespace dissodb

#endif  // DISSODB_SERVE_RESULT_CACHE_H_
