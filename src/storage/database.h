// Database catalog: named tables plus a shared string dictionary, served
// to readers through immutable snapshots and mutated through writer
// transactions.
//
// Concurrency model (the supported readers-while-writing scenario):
//
//   - Readers call snapshot() and execute against the returned Snapshot —
//     an immutable, copy-free view (shared table handles pinning sealed
//     column chunks, the catalog index, the string-pool high-water mark
//     and a version stamp). The database holds its published state as one
//     immutable SnapshotState, so acquisition copies one shared handle.
//   - Writers call BeginWrite() and stage every mutation (row appends,
//     probability scaling, new tables) into private copy-on-write table
//     copies; sealed chunks stay shared with every live snapshot, only
//     the tail chunk being written is detached. Commit() publishes all
//     staged changes atomically as the next state and bumps the data
//     version; Abort() (or destruction without commit) discards them.
//     Writers serialize among themselves; they never block readers and
//     readers never block them beyond the pointer swap that publishes.
//
//   Any number of reader threads may hold snapshots and execute while a
//   writer stages and commits: a held snapshot returns bit-identical
//   results across commits (the CI tsan job asserts this).
//
// Snapshot is the only read handle and Writer the only write handle: the
// database itself exposes no table. AddTable and ScaleProbabilities are
// one-mutation conveniences that open a writer, apply it, and commit.
#ifndef DISSODB_STORAGE_DATABASE_H_
#define DISSODB_STORAGE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/storage/snapshot.h"
#include "src/storage/string_pool.h"
#include "src/storage/table.h"

namespace dissodb {

/// What one committed transaction did to one table, when the commit was
/// append-only: rows [first_new_row, first_new_row + new_rows) are new,
/// every older row is byte-identical to the previous version.
struct AppendOnlyDelta {
  int table_idx;
  std::string name;
  size_t first_new_row;
  size_t new_rows;
};

/// Passed to commit hooks after every successful Commit(). `append_only`
/// is true iff the transaction staged at least one table and every staged
/// table changed by row appends alone (overwrite epoch unchanged, row
/// count non-decreasing); `deltas` then lists the tables that gained rows.
/// Newly added tables are excluded from `deltas` — no plan cached before
/// this commit can reference them. The serving layer uses the deltas to
/// delta-maintain cached results instead of sweeping them.
struct CommitInfo {
  uint64_t version = 0;
  bool append_only = false;
  std::vector<AppendOnlyDelta> deltas;
  /// Wall time of stage-bookkeeping + atomic publish (not staging itself),
  /// and the total rows appended — together the commit's ns/row.
  uint64_t commit_ns = 0;
  size_t appended_rows = 0;
};

/// \brief A tuple-independent probabilistic database: a catalog of tables
/// with snapshot-isolated reads and transactional writes.
class Database {
 public:
  Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  /// Movable for value-returning builders. Moving is only legal while no
  /// writer is open, no snapshot acquisition is in flight, and no engine
  /// holds a reference — i.e. during single-threaded construction.
  Database(Database&& o) noexcept;
  Database& operator=(Database&& o) noexcept;

  // -------------------------------------------------------------------------
  // Snapshots (read surface)
  // -------------------------------------------------------------------------

  /// Acquires an immutable snapshot of the current state: one shared-handle
  /// copy of the published SnapshotState, no table or payload copies. The
  /// snapshot is immune to every later mutation and may outlive this
  /// Database. Thread-safe against concurrent Commit()s.
  Snapshot snapshot() const;

  /// Monotonic data version: bumped by every commit. Snapshots carry the
  /// version they pinned; the serving layer's ResultCache stamps cached
  /// relations with it.
  uint64_t version() const;

  /// The oldest version any still-held snapshot pins, or the current
  /// version when none is held. The serving layer sweeps result-cache
  /// entries below this on commit: no held snapshot can request them.
  uint64_t OldestLiveSnapshotVersion() const;

  /// True iff `s` was acquired from this database. Version stamps are only
  /// comparable within one database, so the engine rejects foreign
  /// snapshots (they would poison its version-keyed caches).
  bool OwnsSnapshot(const Snapshot& s) const {
    return s.valid() && s.owner_registry() == registry_.get();
  }

  // -------------------------------------------------------------------------
  // Writer transactions (write surface)
  // -------------------------------------------------------------------------

  /// \brief A single-writer transaction: stages mutations against a pinned
  /// base state and publishes them atomically on Commit().
  ///
  /// Construction (via Database::BeginWrite) blocks until any other writer
  /// finishes; reads of the database remain available throughout. Staged
  /// tables are copy-on-write shallow copies — sealed chunks stay shared
  /// with concurrent snapshots, so staging an append copies at most the
  /// tail chunk of each touched column. Move-only.
  class Writer {
   public:
    Writer(Writer&& o) noexcept;
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;
    Writer& operator=(Writer&&) = delete;
    /// Destruction without Commit() aborts: staged changes are discarded.
    ~Writer();

    /// Stages a new table; fails if the name exists (in the base state or
    /// staged). Returns its table index.
    Result<int> AddTable(Table table);

    /// Stages an empty table with `schema`; the returned pointer is the
    /// staged copy — valid and writable until Commit()/Abort().
    Result<Table*> CreateTable(RelationSchema schema);

    /// The staged, writable copy of table `idx` (copy-on-write: created on
    /// first access). Valid until Commit()/Abort().
    Table* mutable_table(int idx);
    Result<Table*> GetTableForWrite(const std::string& name);

    /// Appends one row to table `idx` (convenience over mutable_table).
    void AppendRow(int idx, std::span<const Value> row, double p = 1.0) {
      mutable_table(idx)->AddRow(row, p);
    }

    /// Stages scaling every probabilistic table's probabilities by `f`.
    void ScaleProbabilities(double f);

    /// Interns `s` in the shared pool and wraps it as a Value. Interning
    /// is append-only and thread-safe, so this is safe even before commit
    /// (codes never dangle; uncommitted rows are the only users).
    Value Str(const std::string& s);

    int NumTables() const;
    /// Reads table `idx` as staged (falling back to the base state).
    const Table& table(int idx) const;
    int FindTable(const std::string& name) const;

    /// Publishes every staged change atomically: the next snapshot sees all
    /// of them, previously acquired snapshots none.
    /// Bumps and returns the new data version, then runs commit hooks.
    /// The writer is finished afterwards (only Abort()/destruction legal).
    uint64_t Commit();

    /// Discards staged changes; the writer is finished afterwards.
    void Abort();

   private:
    friend class Database;
    explicit Writer(Database* db);

    Database* db_ = nullptr;  // null once finished
    std::unique_lock<std::mutex> lock_;  // holds writer_mu_ while open
    Snapshot base_;           // state pinned at BeginWrite
    /// Staged table copies by index; indexes >= base table count are new.
    std::unordered_map<int, std::shared_ptr<Table>> staged_;
    /// Row count and overwrite epoch of each staged table at staging time,
    /// so Commit() can prove which tables changed by appends alone.
    struct StagedBase {
      size_t rows;
      uint64_t epoch;
    };
    std::unordered_map<int, StagedBase> staged_base_;
    std::vector<std::pair<std::string, std::shared_ptr<Table>>> added_;
    std::unordered_map<std::string, int> added_by_name_;
  };

  /// Opens a writer transaction; blocks while another writer is open.
  Writer BeginWrite();

  /// Commit hooks run after every successful Commit() (including the ones
  /// AddTable and ScaleProbabilities open), outside the publish lock, with
  /// the committed version and its append-only delta description (see
  /// CommitInfo). The serving layer uses them to delta-maintain or sweep
  /// version-stale cache entries. Returns a token for UnregisterCommitHook,
  /// which is synchronizing: once it returns, no invocation of the hook is in
  /// flight (hooks run under the hook lock — they must not (un)register
  /// hooks or open writers on this database). Const because observing
  /// commits does not mutate data.
  using CommitHook = std::function<void(const CommitInfo&)>;
  int RegisterCommitHook(CommitHook hook) const;
  void UnregisterCommitHook(int token) const;

  // -------------------------------------------------------------------------
  // One-mutation conveniences (each opens and commits a Writer)
  // -------------------------------------------------------------------------

  /// Adds a table; fails if the name already exists. Returns its index.
  Result<int> AddTable(Table table);

  /// Scales all probabilistic tables by `f` (Figure 5n-5p experiments).
  void ScaleProbabilities(double f);

  StringPool* strings() { return strings_.get(); }
  const StringPool& strings() const { return *strings_; }

  /// Interns `s` and wraps it as a Value. Thread-safe (append-only pool).
  Value Str(const std::string& s) { return Value::StringCode(strings_->Intern(s)); }

  /// Deep copy (tables are copied; the string pool is shared content-wise).
  Database Clone() const;

 private:
  /// Publishes `staged`/`added`: builds the next state from the head plus
  /// them, swaps it in as the head under state_mu_ and returns the new
  /// version. Called by Writer::Commit, with writer_mu_ held.
  uint64_t Publish(
      const std::unordered_map<int, std::shared_ptr<Table>>& staged,
      const std::vector<std::pair<std::string, std::shared_ptr<Table>>>& added);

  void RunCommitHooks(const CommitInfo& info) const;

  /// Guards head_: Publish swaps it and snapshot() copies it under this
  /// lock, so a snapshot always observes one fully-published state.
  mutable std::mutex state_mu_;
  /// Serializes writers (held for a Writer's whole lifetime).
  std::mutex writer_mu_;

  /// The published state. Immutable: a commit replaces the pointer, never
  /// the state or a table it holds.
  std::shared_ptr<const SnapshotState> head_;
  std::shared_ptr<StringPool> strings_;
  std::shared_ptr<SnapshotRegistry> registry_;

  mutable std::mutex hooks_mu_;
  mutable std::vector<std::pair<int, CommitHook>> hooks_;
  mutable int next_hook_token_ = 0;
};

}  // namespace dissodb

#endif  // DISSODB_STORAGE_DATABASE_H_
