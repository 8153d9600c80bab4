// Snapshot-isolated Database API: immutable snapshots, writer
// transactions, copy-free chunk pinning, the live-version registry, the
// one-mutation conveniences, and the engine's commit-time stale-result
// sweep.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/storage/database.h"
#include "src/storage/snapshot.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::ChunkCapOverride;
using testing_util::Q;

Value I(int64_t v) { return Value::Int64(v); }

TEST(SnapshotTest, SnapshotPinsStateAcrossWriterCommit) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.6}});

  Snapshot snap = db.snapshot();
  EXPECT_TRUE(snap.valid());
  EXPECT_EQ(snap.NumTables(), 1);
  EXPECT_EQ(snap.table(0).NumRows(), 2u);
  const uint64_t v_before = snap.version();

  {
    Database::Writer w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{I(3)}, 0.7);
    const uint64_t v_after = w.Commit();
    EXPECT_GT(v_after, v_before);
  }

  // The held snapshot is immune; new snapshots see the commit.
  EXPECT_EQ(snap.table(0).NumRows(), 2u);
  Snapshot fresh = db.snapshot();
  EXPECT_EQ(fresh.table(0).NumRows(), 3u);
  EXPECT_GT(fresh.version(), snap.version());
}

TEST(SnapshotTest, AcquisitionSharesTablesUntilACommitReplacesThem) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "S", 1, {{{2}, 0.6}});

  // Two acquisitions at one version hand out the very same table objects:
  // acquiring a snapshot copies no Table.
  const Snapshot a = db.snapshot();
  const Snapshot b = db.snapshot();
  ASSERT_EQ(a.version(), b.version());
  for (int i = 0; i < a.NumTables(); ++i) {
    EXPECT_EQ(a.table_handle(i).get(), b.table_handle(i).get()) << i;
  }
  const Table* r_before = a.table_handle(0).get();
  const Table* s_before = a.table_handle(1).get();

  {
    Database::Writer w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{I(3)}, 0.7);
    w.Commit();
  }

  // The held snapshot keeps its table 0 object and row count...
  EXPECT_EQ(a.table_handle(0).get(), r_before);
  EXPECT_EQ(a.table(0).NumRows(), 1u);
  // ...while the commit published a new table 0 and left table 1 shared.
  const Snapshot c = db.snapshot();
  EXPECT_NE(c.table_handle(0).get(), r_before);
  EXPECT_EQ(c.table(0).NumRows(), 2u);
  EXPECT_EQ(c.table_handle(1).get(), s_before);
}

TEST(SnapshotTest, SnapshotIsCopyFreeAndSealedChunksStayShared) {
  ChunkCapOverride cap(4);
  Database db;
  Table t(RelationSchema::AllInt64("R", 1));
  for (int i = 0; i < 10; ++i) t.AddRow({I(i)}, 0.5);  // chunks: 4+4+2
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());

  Snapshot snap = db.snapshot();
  const Snapshot head = db.snapshot();
  const Column& live = *head.table(0).col(0);
  const Column& pinned = *snap.table(0).col(0);
  ASSERT_EQ(pinned.num_chunks(), 3u);
  // Acquisition copied no payloads: every chunk handle is shared.
  for (size_t ci = 0; ci < live.num_chunks(); ++ci) {
    EXPECT_EQ(snap.table(0).col(0)->chunk(ci), head.table(0).col(0)->chunk(ci));
  }

  {
    Database::Writer w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{I(99)}, 0.5);
    w.Commit();
  }

  // Sealed chunks are still shared with the post-commit column; only the
  // tail the writer appended into was detached (seal-on-publish).
  const Snapshot now = db.snapshot();
  const Column& after = *now.table(0).col(0);
  ASSERT_EQ(after.num_chunks(), 3u);
  EXPECT_EQ(snap.table(0).col(0)->chunk(0), after.chunk(0));
  EXPECT_EQ(snap.table(0).col(0)->chunk(1), after.chunk(1));
  EXPECT_NE(snap.table(0).col(0)->chunk(2), after.chunk(2));
  EXPECT_EQ(snap.table(0).NumRows(), 10u);
  EXPECT_EQ(now.table(0).NumRows(), 11u);
}

TEST(SnapshotTest, WeightColumnSharesSealedChunksAndDetachesOnlyTheTail) {
  ChunkCapOverride cap(4);
  Database db;
  Table t(RelationSchema::AllInt64("R", 1));
  // 1/16 steps are exact in binary floating point, so the equality
  // assertions below compare identical bit patterns.
  for (int i = 0; i < 10; ++i) t.AddRow({I(i)}, 0.0625 * i);  // chunks: 4+4+2
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());

  Snapshot snap = db.snapshot();
  ASSERT_EQ(snap.table(0).weights()->num_chunks(), 3u);
  // Acquisition copied no weights: every chunk handle is shared.
  const Snapshot head = db.snapshot();
  for (size_t ci = 0; ci < 3; ++ci) {
    EXPECT_EQ(snap.table(0).weights()->chunk(ci),
              head.table(0).weights()->chunk(ci));
  }

  {
    Database::Writer w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{I(99)}, 0.5);
    w.Commit();
  }

  // The append detached only the tail weight chunk; sealed chunks stay
  // shared with the pinned snapshot — commit cost tracks the delta, not
  // the weight column.
  const Snapshot appended = db.snapshot();
  const WeightColumn& after = *appended.table(0).weights();
  ASSERT_EQ(after.num_chunks(), 3u);
  EXPECT_EQ(snap.table(0).weights()->chunk(0), after.chunk(0));
  EXPECT_EQ(snap.table(0).weights()->chunk(1), after.chunk(1));
  EXPECT_NE(snap.table(0).weights()->chunk(2), after.chunk(2));
  EXPECT_EQ((*snap.table(0).weights())[9], 0.5625);
  EXPECT_EQ(after[10], 0.5);

  // An overwrite (per-chunk copy-on-write) detaches exactly the chunk it
  // hits, sealed or not.
  {
    Database::Writer w = db.BeginWrite();
    w.mutable_table(0)->SetProb(0, 0.25);
    w.Commit();
  }
  const Snapshot overwritten = db.snapshot();
  const WeightColumn& scaled = *overwritten.table(0).weights();
  EXPECT_NE(snap.table(0).weights()->chunk(0), scaled.chunk(0));
  EXPECT_EQ(snap.table(0).weights()->chunk(1), scaled.chunk(1));
  EXPECT_EQ((*snap.table(0).weights())[0], 0.0);
  EXPECT_EQ(scaled[0], 0.25);
}

TEST(SnapshotTest, WriterStagingIsInvisibleUntilCommit) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  const uint64_t v0 = db.version();

  Database::Writer w = db.BeginWrite();
  w.AppendRow(0, std::vector<Value>{I(2)}, 0.9);
  ASSERT_TRUE(w.CreateTable(RelationSchema::AllInt64("S", 2)).ok());

  // Staged state is visible through the writer...
  EXPECT_EQ(w.table(0).NumRows(), 2u);
  EXPECT_EQ(w.NumTables(), 2);
  EXPECT_GE(w.FindTable("S"), 0);
  // ...but not to new snapshots or the version counter.
  EXPECT_EQ(db.snapshot().FindTable("S"), -1);
  EXPECT_EQ(db.snapshot().table(0).NumRows(), 1u);
  EXPECT_EQ(db.version(), v0);

  w.Commit();
  EXPECT_EQ(db.snapshot().table(0).NumRows(), 2u);
  EXPECT_GE(db.snapshot().FindTable("S"), 0);
  EXPECT_GT(db.version(), v0);
}

TEST(SnapshotTest, WriterAbortDiscardsEverything) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  const uint64_t v0 = db.version();
  {
    Database::Writer w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{I(7)}, 0.1);
    ASSERT_TRUE(w.CreateTable(RelationSchema::AllInt64("S", 1)).ok());
    w.ScaleProbabilities(0.5);
    // No commit: destructor aborts.
  }
  EXPECT_EQ(db.version(), v0);
  const Snapshot snap = db.snapshot();
  EXPECT_EQ(snap.table(0).NumRows(), 1u);
  EXPECT_DOUBLE_EQ(snap.table(0).Prob(0), 0.5);
  EXPECT_EQ(snap.FindTable("S"), -1);
}

TEST(SnapshotTest, WriterScaleProbabilitiesLeavesSnapshotUntouched) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.8}});
  AddTable(&db, "D", 1, {{{1}, 1.0}}, /*deterministic=*/true);
  Snapshot snap = db.snapshot();

  {
    Database::Writer w = db.BeginWrite();
    w.ScaleProbabilities(0.5);
    w.Commit();
  }
  EXPECT_DOUBLE_EQ(snap.table(0).Prob(0), 0.8);
  const Snapshot now = db.snapshot();
  EXPECT_DOUBLE_EQ(now.table(0).Prob(0), 0.4);
  EXPECT_DOUBLE_EQ(now.table(1).Prob(0), 1.0);  // deterministic pinned at 1
}

TEST(SnapshotTest, WriterAddTableRejectsDuplicates) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  Database::Writer w = db.BeginWrite();
  EXPECT_FALSE(w.AddTable(Table(RelationSchema::AllInt64("R", 1))).ok());
  ASSERT_TRUE(w.AddTable(Table(RelationSchema::AllInt64("S", 1))).ok());
  EXPECT_FALSE(w.AddTable(Table(RelationSchema::AllInt64("S", 1))).ok());
  w.Commit();
  EXPECT_EQ(db.snapshot().NumTables(), 2);
}

TEST(SnapshotTest, SnapshotOutlivesDatabase) {
  Snapshot snap;
  {
    auto db = std::make_unique<Database>();
    Value hello = db->Str("hello");
    RelationSchema schema;
    schema.name = "R";
    schema.column_names = {"a"};
    schema.column_types = {ValueType::kString};
    Table t(std::move(schema));
    t.AddRow({hello}, 0.5);
    ASSERT_TRUE(db->AddTable(std::move(t)).ok());
    snap = db->snapshot();
  }
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.NumTables(), 1);
  EXPECT_EQ(snap.table(0).NumRows(), 1u);
  // The snapshot co-owns the string pool.
  EXPECT_EQ(snap.strings().Get(snap.table(0).At(0, 0).AsStringCode()),
            "hello");
}

TEST(SnapshotTest, StringPoolHighWaterMarkIsPinned) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  db.Str("early");
  Snapshot snap = db.snapshot();
  const size_t hwm = snap.string_pool_size();
  db.Str("late");  // interned after the snapshot
  EXPECT_EQ(snap.string_pool_size(), hwm);
  EXPECT_GT(db.strings()->size(), hwm);
}

TEST(SnapshotTest, OldestLiveSnapshotVersionTracksHeldStates) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  // No snapshot held: falls back to the current version.
  EXPECT_EQ(db.OldestLiveSnapshotVersion(), db.version());

  Snapshot s1 = db.snapshot();
  const uint64_t v1 = s1.version();
  db.ScaleProbabilities(0.9);  // commit -> version moves
  Snapshot s2 = db.snapshot();
  EXPECT_EQ(db.OldestLiveSnapshotVersion(), v1);

  s1 = Snapshot();  // drop the old state
  EXPECT_EQ(db.OldestLiveSnapshotVersion(), s2.version());
  s2 = Snapshot();
  EXPECT_EQ(db.OldestLiveSnapshotVersion(), db.version());
}

TEST(SnapshotTest, CommitHooksFireOnEveryCommitIncludingLegacyShims) {
  Database db;
  int fired = 0;
  CommitInfo last;
  int token = db.RegisterCommitHook([&](const CommitInfo& info) {
    ++fired;
    last = info;
  });
  AddTable(&db, "R", 1, {{{1}, 0.5}});  // Database::AddTable commits
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(last.version, db.version());
  // Adding a table is append-only (no pre-existing row changed) but
  // contributes no delta: no earlier plan can reference the new table.
  EXPECT_TRUE(last.append_only);
  EXPECT_TRUE(last.deltas.empty());
  {
    Database::Writer w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{I(2)}, 0.5);
    w.Commit();
  }
  EXPECT_EQ(fired, 2);
  ASSERT_TRUE(last.append_only);
  ASSERT_EQ(last.deltas.size(), 1u);
  EXPECT_EQ(last.deltas[0].name, "R");
  EXPECT_EQ(last.deltas[0].first_new_row, 1u);
  EXPECT_EQ(last.deltas[0].new_rows, 1u);
  EXPECT_EQ(last.appended_rows, 1u);
  db.BeginWrite().Commit();
  EXPECT_EQ(fired, 3);
  // An empty commit still bumps the version, so it conservatively counts
  // as not append-only: caches invalidate.
  EXPECT_FALSE(last.append_only);
  // Overwrites (SetProb via ScaleProbabilities) are not append-only.
  db.ScaleProbabilities(0.5);
  EXPECT_EQ(fired, 4);
  EXPECT_FALSE(last.append_only);
  db.UnregisterCommitHook(token);
  db.ScaleProbabilities(0.5);
  EXPECT_EQ(fired, 4);
}

TEST(SnapshotTest, PinnedSnapshotQueryResultsAreBitIdenticalAcrossCommits) {
  Database db;
  AddTable(&db, "R", 2, {{{1, 10}, 0.5}, {{2, 10}, 0.6}, {{2, 20}, 0.7}});
  AddTable(&db, "S", 1, {{{10}, 0.9}, {{20}, 0.8}});
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare("q(x) :- R(x,y), S(y)");
  ASSERT_TRUE(prepared.ok());

  Snapshot pinned = db.snapshot();
  auto baseline = engine.Execute(*prepared, {}, pinned);
  ASSERT_TRUE(baseline.ok());

  for (int round = 0; round < 3; ++round) {
    Database::Writer w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{I(5 + round), I(10)}, 0.3);
    w.ScaleProbabilities(0.99);
    w.Commit();

    auto again = engine.Execute(*prepared, {}, pinned);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->answers.size(), baseline->answers.size());
    for (size_t i = 0; i < baseline->answers.size(); ++i) {
      EXPECT_EQ(again->answers[i].tuple, baseline->answers[i].tuple);
      EXPECT_EQ(again->answers[i].score, baseline->answers[i].score);
    }
    // A fresh snapshot meanwhile diverged (probabilities were rescaled).
    auto live = engine.Execute(*prepared);
    ASSERT_TRUE(live.ok());
    ASSERT_FALSE(live->answers.empty());
    EXPECT_NE(live->answers[0].score, baseline->answers[0].score);
  }
}

TEST(SnapshotTest, StaleResultEntriesAreSweptOnCommitUnlessSnapshotHeld) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}});
  AddTable(&db, "T", 1, {{{10}, 0.6}});
  QueryEngine engine = QueryEngine::Borrow(db);
  ConjunctiveQuery q = Q("q() :- R(x), S(x,y), T(y)");

  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  for (const auto& r : engine.ExecuteBatch({*prepared, *prepared})) {
    ASSERT_TRUE(r.ok());
  }
  ASSERT_GT(engine.stats().result_cache_entries, 0u);

  // A held snapshot of the cached version keeps its entries alive through
  // a commit (they are still servable for executions pinned to it).
  Snapshot held = db.snapshot();
  db.ScaleProbabilities(0.9);
  EXPECT_EQ(engine.stats().result_cache_swept, 0u);
  EXPECT_GT(engine.stats().result_cache_entries, 0u);

  // Dropping the snapshot and committing again sweeps them.
  held = Snapshot();
  db.ScaleProbabilities(0.9);
  EXPECT_GT(engine.stats().result_cache_swept, 0u);
  EXPECT_EQ(engine.stats().result_cache_entries, 0u);
}

TEST(SnapshotTest, ForeignSnapshotsAreRejected) {
  Database db_a;
  AddTable(&db_a, "R", 1, {{{1}, 0.5}});
  Database db_b;
  AddTable(&db_b, "R", 1, {{{2}, 0.9}});
  EXPECT_TRUE(db_a.OwnsSnapshot(db_a.snapshot()));
  EXPECT_FALSE(db_a.OwnsSnapshot(db_b.snapshot()));
  EXPECT_FALSE(db_a.OwnsSnapshot(Snapshot()));

  // Version stamps are only comparable within one database: an engine
  // must refuse a foreign snapshot rather than poison its caches.
  QueryEngine engine = QueryEngine::Borrow(db_a);
  auto prepared = engine.Prepare("q(x) :- R(x)");
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(engine.Execute(*prepared, {}, db_b.snapshot()).ok());
  EXPECT_FALSE(engine.Execute(*prepared, {}, Snapshot()).ok());
  auto fut = engine.Submit(*prepared, {}, db_b.snapshot());
  EXPECT_FALSE(fut.get().ok());
  EXPECT_TRUE(engine.Execute(*prepared, {}, db_a.snapshot()).ok());
}

TEST(SnapshotTest, CloneIsIsolatedFromTheOriginal) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  Database copy = db.Clone();
  {
    Database::Writer w = copy.BeginWrite();
    w.mutable_table(0)->SetProb(0, 0.9);
    w.Commit();
  }
  EXPECT_DOUBLE_EQ(db.snapshot().table(0).Prob(0), 0.5);
  EXPECT_DOUBLE_EQ(copy.snapshot().table(0).Prob(0), 0.9);
}

}  // namespace
}  // namespace dissodb
