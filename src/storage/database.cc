#include "src/storage/database.h"

#include <chrono>
#include <utility>

namespace dissodb {

Database::Database()
    : strings_(std::make_shared<StringPool>()),
      registry_(std::make_shared<SnapshotRegistry>()) {
  head_ = std::make_shared<const SnapshotState>(
      std::vector<std::shared_ptr<const Table>>{},
      std::make_shared<const std::unordered_map<std::string, int>>(), strings_,
      /*version=*/0, registry_);
}

Database::Database(Database&& o) noexcept
    : head_(std::move(o.head_)),
      strings_(std::move(o.strings_)),
      registry_(std::move(o.registry_)),
      hooks_(std::move(o.hooks_)),
      next_hook_token_(o.next_hook_token_) {}

Database& Database::operator=(Database&& o) noexcept {
  if (this == &o) return *this;
  head_ = std::move(o.head_);
  strings_ = std::move(o.strings_);
  registry_ = std::move(o.registry_);
  hooks_ = std::move(o.hooks_);
  next_hook_token_ = o.next_hook_token_;
  return *this;
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

Snapshot Database::snapshot() const {
  std::lock_guard lock(state_mu_);
  return Snapshot(head_);
}

uint64_t Database::version() const {
  std::lock_guard lock(state_mu_);
  return head_->version;
}

uint64_t Database::OldestLiveSnapshotVersion() const {
  return registry_->OldestOr(version());
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

Database::Writer::Writer(Database* db)
    : db_(db), lock_(db->writer_mu_), base_(db->snapshot()) {}

Database::Writer::Writer(Writer&& o) noexcept
    : db_(std::exchange(o.db_, nullptr)),
      lock_(std::move(o.lock_)),
      base_(std::move(o.base_)),
      staged_(std::move(o.staged_)),
      staged_base_(std::move(o.staged_base_)),
      added_(std::move(o.added_)),
      added_by_name_(std::move(o.added_by_name_)) {}

Database::Writer::~Writer() {
  if (db_ != nullptr) Abort();
}

Result<int> Database::Writer::AddTable(Table table) {
  const std::string name = table.schema().name;  // copy before the move below
  if (base_.FindTable(name) >= 0 || added_by_name_.count(name)) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  int idx = base_.NumTables() + static_cast<int>(added_.size());
  added_.emplace_back(name, std::make_shared<Table>(std::move(table)));
  added_by_name_.emplace(name, idx);
  return idx;
}

Result<Table*> Database::Writer::CreateTable(RelationSchema schema) {
  auto r = AddTable(Table(std::move(schema)));
  if (!r.ok()) return r.status();
  return added_.back().second.get();
}

Table* Database::Writer::mutable_table(int idx) {
  const int base_n = base_.NumTables();
  if (idx >= base_n) {
    return added_[idx - base_n].second.get();
  }
  auto it = staged_.find(idx);
  if (it == staged_.end()) {
    // Copy-on-write staging: a shallow copy of the pinned base table.
    // Sealed chunks stay shared with every snapshot; the first append to a
    // column detaches only its tail chunk.
    it = staged_.emplace(idx, std::make_shared<Table>(base_.table(idx))).first;
    staged_base_.emplace(
        idx, StagedBase{it->second->NumRows(), it->second->overwrite_epoch()});
  }
  return it->second.get();
}

Result<Table*> Database::Writer::GetTableForWrite(const std::string& name) {
  int idx = FindTable(name);
  if (idx < 0) return Status::NotFound("no table named " + name);
  return mutable_table(idx);
}

void Database::Writer::ScaleProbabilities(double f) {
  // Identity rescale: stage nothing — staging would COW-copy and republish
  // every table only to multiply each probability by 1.
  if (f == 1.0) return;
  for (int i = 0; i < NumTables(); ++i) {
    // Deterministic tables pin p = 1; don't stage (and republish) a copy
    // just to run a no-op.
    if (table(i).schema().deterministic) continue;
    mutable_table(i)->ScaleProbabilities(f);
  }
}

Value Database::Writer::Str(const std::string& s) {
  return Value::StringCode(db_->strings_->Intern(s));
}

int Database::Writer::NumTables() const {
  return base_.NumTables() + static_cast<int>(added_.size());
}

const Table& Database::Writer::table(int idx) const {
  const int base_n = base_.NumTables();
  if (idx >= base_n) return *added_[idx - base_n].second;
  auto it = staged_.find(idx);
  return it != staged_.end() ? *it->second : base_.table(idx);
}

int Database::Writer::FindTable(const std::string& name) const {
  auto it = added_by_name_.find(name);
  if (it != added_by_name_.end()) return it->second;
  return base_.FindTable(name);
}

uint64_t Database::Writer::Commit() {
  Database* db = std::exchange(db_, nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  // Append-only detection: every staged table must have changed by row
  // appends alone — overwrite epoch untouched (no SetProb / rescale) and
  // row count non-decreasing. Newly added tables don't disqualify the
  // commit (no earlier-cached plan can reference them) but contribute no
  // delta. An empty commit is conservatively NOT append-only: it still
  // bumps the version, so caches invalidate.
  CommitInfo info;
  info.append_only = !staged_.empty() || !added_.empty();
  for (const auto& [idx, t] : staged_) {
    const StagedBase& b = staged_base_.at(idx);
    if (t->overwrite_epoch() != b.epoch || t->NumRows() < b.rows) {
      info.append_only = false;
      break;
    }
  }
  if (info.append_only) {
    for (const auto& [idx, t] : staged_) {
      const StagedBase& b = staged_base_.at(idx);
      if (t->NumRows() == b.rows) continue;
      info.deltas.push_back(AppendOnlyDelta{idx, t->schema().name, b.rows,
                                            t->NumRows() - b.rows});
      info.appended_rows += t->NumRows() - b.rows;
    }
  }
  const uint64_t version = db->Publish(staged_, added_);
  info.version = version;
  staged_.clear();
  staged_base_.clear();
  added_.clear();
  added_by_name_.clear();
  // Drop the pinned base before hooks run: the writer must not count as a
  // live snapshot when the serving layer sweeps stale cache versions.
  base_ = Snapshot();
  lock_.unlock();  // let the next writer in before hooks run
  info.commit_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  db->RunCommitHooks(info);
  return version;
}

void Database::Writer::Abort() {
  db_ = nullptr;
  staged_.clear();
  staged_base_.clear();
  added_.clear();
  added_by_name_.clear();
  base_ = Snapshot();
  if (lock_.owns_lock()) lock_.unlock();
}

Database::Writer Database::BeginWrite() { return Writer(this); }

uint64_t Database::Publish(
    const std::unordered_map<int, std::shared_ptr<Table>>& staged,
    const std::vector<std::pair<std::string, std::shared_ptr<Table>>>& added) {
  // Only the open writer ever replaces head_, so it reads head_ unlocked
  // and builds the next state outside the lock; readers wait for the swap
  // alone. The next state shares every untouched table handle, and the
  // name index unless tables were added, with the current head. Staged and
  // added tables are adopted as they are: the writer never touches them
  // again.
  std::vector<std::shared_ptr<const Table>> tables = head_->tables;
  for (const auto& [idx, t] : staged) tables[idx] = t;
  std::shared_ptr<const std::unordered_map<std::string, int>> by_name =
      head_->by_name;
  if (!added.empty()) {
    auto names = std::make_shared<std::unordered_map<std::string, int>>(
        *by_name);
    for (const auto& [name, t] : added) {
      names->emplace(name, static_cast<int>(tables.size()));
      tables.push_back(t);
    }
    by_name = std::move(names);
  }
  const uint64_t version = head_->version + 1;
  auto next = std::make_shared<const SnapshotState>(
      std::move(tables), std::move(by_name), strings_, version, registry_);
  std::lock_guard lock(state_mu_);
  head_ = std::move(next);
  return version;
}

// ---------------------------------------------------------------------------
// Commit hooks
// ---------------------------------------------------------------------------

int Database::RegisterCommitHook(CommitHook hook) const {
  std::lock_guard lock(hooks_mu_);
  int token = next_hook_token_++;
  hooks_.emplace_back(token, std::move(hook));
  return token;
}

void Database::UnregisterCommitHook(int token) const {
  std::lock_guard lock(hooks_mu_);
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->first == token) {
      hooks_.erase(it);
      return;
    }
  }
}

void Database::RunCommitHooks(const CommitInfo& info) const {
  // Invoked under hooks_mu_ so UnregisterCommitHook is synchronizing:
  // once it returns, no hook invocation is in flight and the owner may be
  // destroyed. Hooks therefore must not (un)register hooks or commit to
  // this database themselves.
  std::lock_guard lock(hooks_mu_);
  for (const auto& [token, hook] : hooks_) hook(info);
}

// ---------------------------------------------------------------------------
// One-mutation conveniences
// ---------------------------------------------------------------------------

Result<int> Database::AddTable(Table table) {
  Writer w = BeginWrite();
  auto r = w.AddTable(std::move(table));
  if (!r.ok()) return r;  // destructor aborts
  w.Commit();
  return r;
}

void Database::ScaleProbabilities(double f) {
  Writer w = BeginWrite();
  w.ScaleProbabilities(f);
  w.Commit();
}

Database Database::Clone() const {
  Database out;
  Snapshot snap = snapshot();
  // Copy the pool before committing, so the clone's published state counts
  // every string code its tables hold.
  *out.strings_ = *strings_;
  {
    Writer w = out.BeginWrite();
    for (int i = 0; i < snap.NumTables(); ++i) {
      auto r = w.AddTable(snap.table(i));  // shallow copy; COW isolates
      (void)r;
    }
    w.Commit();
  }
  return out;
}

}  // namespace dissodb
