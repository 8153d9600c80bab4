// Immutable point-in-time view of a Database: the read-path currency.
//
// A Snapshot is a cheap, copyable handle over a SnapshotState — the set of
// table handles (and through them the sealed column-chunk lists), the
// catalog name index, the string-pool high-water mark, and the version
// stamp of one published database state. The database builds each state
// once, at commit, and hands the same state to every reader until the next
// commit, so acquisition copies one shared_ptr and never a table or a
// payload. Once acquired, a snapshot is completely immune to later
// mutation: writers stage into copy-on-write table copies and publish new
// states, so every chunk a snapshot pins stays sealed and bit-identical
// for the snapshot's lifetime. Query results computed against a held
// snapshot are therefore bit-identical no matter how many commits happen
// concurrently.
//
// Snapshot is the only read handle: every read path (ScanAtom,
// PlanEvaluator, SemiJoinReduce, ComputeLineage, QueryEngine::Execute /
// Submit) runs against one, and the Database exposes no table of its own.
// The few entry points outside the engine that take `const Database&`
// (QueryEngine, PlanScore, ExactProbabilities, ...)
// acquire exactly one snapshot per call.
//
// Lifetime: a Snapshot owns everything it exposes (tables, string pool),
// so it may outlive the Database it came from. The live-version registry
// lets the serving layer sweep ResultCache entries no held snapshot can
// ever request again (ResultCache::EvictOlderThan).
#ifndef DISSODB_STORAGE_SNAPSHOT_H_
#define DISSODB_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/storage/string_pool.h"
#include "src/storage/table.h"

namespace dissodb {

/// Identifies one base tuple globally: (table index, row index). Used as the
/// Boolean variable id in lineage formulas.
struct TupleId {
  uint32_t table;
  uint32_t row;

  uint64_t Key() const { return (static_cast<uint64_t>(table) << 32) | row; }
  bool operator==(const TupleId& o) const {
    return table == o.table && row == o.row;
  }
  bool operator<(const TupleId& o) const { return Key() < o.Key(); }
};

struct TupleIdHash {
  size_t operator()(const TupleId& t) const { return Mix64(t.Key()); }
};

/// Shared registry of live snapshot versions for one Database. Snapshot
/// states (the database's published head among them) register on
/// construction and deregister on destruction, so the database (and the
/// serving layer's stale-entry sweep) can ask for the oldest version any
/// still-held snapshot could read at.
class SnapshotRegistry {
 public:
  void Add(uint64_t version) {
    std::lock_guard lock(mu_);
    ++live_[version];
  }
  void Remove(uint64_t version) {
    std::lock_guard lock(mu_);
    auto it = live_.find(version);
    if (it != live_.end() && --it->second == 0) live_.erase(it);
  }
  /// Smallest live version, or `fallback` when no snapshot is held.
  uint64_t OldestOr(uint64_t fallback) const {
    std::lock_guard lock(mu_);
    return live_.empty() ? fallback : live_.begin()->first;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, size_t> live_;  // version -> live state count
};

/// The pinned state behind one or more Snapshot handles. Immutable after
/// construction; shared freely between handles and threads.
struct SnapshotState {
  SnapshotState(
      std::vector<std::shared_ptr<const Table>> tables_in,
      std::shared_ptr<const std::unordered_map<std::string, int>> by_name_in,
      std::shared_ptr<const StringPool> strings_in, uint64_t version_in,
      std::shared_ptr<SnapshotRegistry> registry_in)
      : tables(std::move(tables_in)),
        by_name(std::move(by_name_in)),
        strings(std::move(strings_in)),
        string_hwm(strings ? strings->size() : 0),
        version(version_in),
        registry(std::move(registry_in)) {
    if (registry) registry->Add(version);
  }
  ~SnapshotState() {
    if (registry) registry->Remove(version);
  }
  SnapshotState(const SnapshotState&) = delete;
  SnapshotState& operator=(const SnapshotState&) = delete;

  const std::vector<std::shared_ptr<const Table>> tables;
  /// Shared with the next published state unless that state adds tables.
  const std::shared_ptr<const std::unordered_map<std::string, int>> by_name;
  const std::shared_ptr<const StringPool> strings;
  /// Pool size at publish: every string code in `tables` is below this.
  const size_t string_hwm;
  const uint64_t version;
  const std::shared_ptr<SnapshotRegistry> registry;
};

/// \brief Value-type handle over one immutable SnapshotState. Copying is a
/// shared_ptr copy; default-constructed handles are invalid placeholders.
class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(std::shared_ptr<const SnapshotState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  /// The Database::version() this snapshot pins. ResultCache entries are
  /// stamped with it, so a held snapshot keeps hitting its own entries
  /// across later commits.
  uint64_t version() const { return state_->version; }

  int NumTables() const { return static_cast<int>(state_->tables.size()); }
  const Table& table(int idx) const { return *state_->tables[idx]; }
  /// The shared table handle (keeps the pinned chunks alive on its own).
  const std::shared_ptr<const Table>& table_handle(int idx) const {
    return state_->tables[idx];
  }

  /// Index of table `name`, or -1.
  int FindTable(const std::string& name) const {
    auto it = state_->by_name->find(name);
    return it == state_->by_name->end() ? -1 : it->second;
  }
  Result<const Table*> GetTable(const std::string& name) const {
    int idx = FindTable(name);
    if (idx < 0) return Status::NotFound("no table named " + name);
    return state_->tables[idx].get();
  }

  double TupleProb(TupleId id) const {
    return state_->tables[id.table]->Prob(id.row);
  }
  bool TupleDeterministic(TupleId id) const {
    return state_->tables[id.table]->schema().deterministic;
  }

  const StringPool& strings() const { return *state_->strings; }
  /// Pool high-water mark at publish: codes >= this were interned after the
  /// snapshot and cannot occur in its tables.
  size_t string_pool_size() const { return state_->string_hwm; }

  /// Identity of the owning database (its registry): lets consumers reject
  /// snapshots of a different database (see Database::OwnsSnapshot).
  const SnapshotRegistry* owner_registry() const {
    return state_->registry.get();
  }

 private:
  std::shared_ptr<const SnapshotState> state_;
};

}  // namespace dissodb

#endif  // DISSODB_STORAGE_SNAPSHOT_H_
