// Append-only delta maintenance of result-cache entries
// (src/serve/delta_maintenance.h): after an append-only commit, hot cached
// subplans are rolled forward to the new version instead of swept, and the
// maintained relation must be *bit-identical* to evaluating the same
// subplan from scratch at the new version — same rows, same order, same
// score bits. Covers chunk-seam append batches (cap-1 / cap / cap+1),
// filtered delta scans (constants, repeated variables, append chunks the
// zone maps rule out), fallback-to-sweep for non-append commits, partial
// maintenance when a commit touches several tables, and a readers-vs-writer
// stress.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/query_engine.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::ChunkCapOverride;
using testing_util::Q;

void ExpectBitIdentical(const std::vector<RankedAnswer>& expect,
                        const std::vector<RankedAnswer>& got,
                        const std::string& what) {
  ASSERT_EQ(expect.size(), got.size()) << what;
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].tuple, got[i].tuple) << what << " row " << i;
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: delta maintenance must reproduce
    // the exact multiply sequence of a from-scratch evaluation.
    EXPECT_EQ(expect[i].score, got[i].score) << what << " row " << i;
  }
}

// Prepares every query on `engine`; each must compile.
std::vector<PreparedQuery> PrepareAll(
    QueryEngine* engine, const std::vector<ConjunctiveQuery>& queries) {
  std::vector<PreparedQuery> out;
  for (const auto& q : queries) {
    auto p = engine->Prepare(q);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    out.push_back(p.ok() ? std::move(*p) : PreparedQuery());
  }
  return out;
}

// R(a,b,...) joins S(b); R's columns after the first hold 0..5. Weights
// step in 1/16 so products are exact enough to expose any reordered
// accumulation as a bit difference (they are exact in binary FP, so equal
// values imply equal operation sequences).
Database MakeDb(size_t r_rows, Rng* rng, int r_arity = 2) {
  Database db;
  std::vector<std::pair<std::vector<int64_t>, double>> rows;
  for (size_t i = 0; i < r_rows; ++i) {
    std::vector<int64_t> row = {static_cast<int64_t>(rng->NextBounded(5))};
    for (int c = 1; c < r_arity; ++c) {
      row.push_back(static_cast<int64_t>(rng->NextBounded(6)));
    }
    rows.push_back(
        {row, static_cast<double>(rng->NextBounded(15) + 1) / 16.0});
  }
  AddTable(&db, "R", r_arity, rows);
  AddTable(&db, "S", 1,
           {{{0}, 0.5},
            {{1}, 0.25},
            {{2}, 0.75},
            {{3}, 0.125},
            {{4}, 0.9375},
            {{5}, 0.0625}});
  return db;
}

// Appends `n` random rows to table `idx` in one writer transaction.
void AppendRows(Database* db, int idx, size_t n, int arity, Rng* rng) {
  auto w = db->BeginWrite();
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < arity; ++c) {
      row.push_back(Value::Int64(static_cast<int64_t>(rng->NextBounded(6))));
    }
    w.AppendRow(idx, row,
                static_cast<double>(rng->NextBounded(15) + 1) / 16.0);
  }
  w.Commit();
}

TEST(DeltaMaintenanceTest, MaintainedEntriesBitIdenticalAcrossChunkSeams) {
  // cap 4 so the append batches below straddle chunk seams: 3 = cap-1
  // (fills the tail chunk exactly), 4 = cap (fills and opens a new chunk),
  // 5 = cap+1 (crosses a seam mid-batch).
  ChunkCapOverride cap(4);
  Rng rng(42);
  Database db = MakeDb(10, &rng);

  QueryEngine engine = QueryEngine::Borrow(db);
  // Both maintainable root shapes: project(join(scan, scan)) and
  // project(scan).
  ConjunctiveQuery qj = Q("q(x) :- R(x,y), S(y)");
  ConjunctiveQuery qp = Q("q(x) :- R(x,y)");
  const std::vector<PreparedQuery> batch = PrepareAll(&engine, {qj, qp});
  for (const auto& r : engine.ExecuteBatch(batch)) ASSERT_TRUE(r.ok());

  size_t maintained = engine.stats().result_cache_delta_maintained;
  for (size_t delta : {size_t{3}, size_t{4}, size_t{5}, size_t{1},
                       size_t{9}}) {
    AppendRows(&db, /*idx=*/0, delta, /*arity=*/2, &rng);

    // The commit hook ran synchronously inside Commit(): the hot entries
    // were rolled forward, not swept.
    EXPECT_GT(engine.stats().result_cache_delta_maintained, maintained)
        << "delta " << delta;
    maintained = engine.stats().result_cache_delta_maintained;

    // From-scratch reference: a cold engine at the new version.
    QueryEngine fresh = QueryEngine::Borrow(db);
    auto expect = fresh.ExecuteBatch(PrepareAll(&fresh, {qj, qp}));

    auto got = engine.ExecuteBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(expect[i].ok() && got[i].ok());
      EXPECT_GT(got[i]->result_cache_hits, 0u)
          << "delta " << delta << " query " << i
          << ": maintained entry must serve as a hit at the new version";
      ExpectBitIdentical(expect[i]->answers, got[i]->answers,
                         "delta " + std::to_string(delta) + " query " +
                             std::to_string(i));
    }
  }
}

TEST(DeltaMaintenanceTest, FilteredDeltaScansBitIdenticalAcrossChunkSeams) {
  // A constant and a repeated variable send the delta scan down its
  // filtered path: chunks the constant's zone maps rule out are skipped,
  // and selected rows of the first chunk that precede the appended ones are
  // cut. cap 4, and R starts on a seam with 96 rows.
  ChunkCapOverride cap(4);
  Rng rng(61);
  Database db = MakeDb(96, &rng, /*r_arity=*/3);

  QueryEngine engine = QueryEngine::Borrow(db);
  ConjunctiveQuery qc = Q("q(x) :- R(x,y,3), S(y)");
  ConjunctiveQuery qr = Q("q(x) :- R(x,y,y), S(y)");
  const std::vector<PreparedQuery> batch = PrepareAll(&engine, {qc, qr});
  for (const auto& r : engine.ExecuteBatch(batch)) ASSERT_TRUE(r.ok());

  using Rows = std::vector<std::vector<int64_t>>;
  auto random_rows = [&rng](size_t n) {
    Rows rows(n);
    for (auto& row : rows) {
      for (int c = 0; c < 3; ++c) {
        row.push_back(static_cast<int64_t>(rng.NextBounded(6)));
      }
    }
    return rows;
  };
  // `ruled_out` fills two whole chunks whose third column holds only 4 and
  // 5, so the zone maps rule both out for the constant, while the repeated
  // variable still selects (., 4, 4) and (., 5, 5). `both` passes both
  // filters and ends mid-chunk, so the next delta scan must cut it.
  const Rows ruled_out = {{0, 4, 4}, {1, 5, 5}, {2, 0, 4}, {3, 1, 5},
                          {4, 4, 4}, {0, 5, 5}, {1, 2, 4}, {2, 3, 5}};
  const Rows both = {{1, 3, 3}, {2, 3, 3}};
  // R grows 96 -> 99 (ends mid-chunk) -> 104 (crosses a seam, ends on one)
  // -> 112 (ruled out) -> 114 (both) -> 118 -> 119 -> 128.
  const std::vector<Rows> batches = {random_rows(3), random_rows(5),
                                     ruled_out,      both,
                                     random_rows(4), random_rows(1),
                                     random_rows(9)};
  size_t maintained = engine.stats().result_cache_delta_maintained;
  for (size_t b = 0; b < batches.size(); ++b) {
    auto w = db.BeginWrite();
    for (size_t i = 0; i < batches[b].size(); ++i) {
      std::vector<Value> row;
      for (int64_t v : batches[b][i]) row.push_back(Value::Int64(v));
      w.AppendRow(0, row, static_cast<double>(i % 15 + 1) / 16.0);
    }
    w.Commit();
    EXPECT_GT(engine.stats().result_cache_delta_maintained, maintained)
        << "batch " << b;
    maintained = engine.stats().result_cache_delta_maintained;

    QueryEngine fresh = QueryEngine::Borrow(db);
    auto expect = fresh.ExecuteBatch(PrepareAll(&fresh, {qc, qr}));
    auto got = engine.ExecuteBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(expect[i].ok() && got[i].ok());
      EXPECT_FALSE(expect[i]->answers.empty());
      EXPECT_GT(got[i]->result_cache_hits, 0u)
          << "batch " << b << " query " << i;
      ExpectBitIdentical(expect[i]->answers, got[i]->answers,
                         "batch " + std::to_string(b) + " query " +
                             std::to_string(i));
    }
  }
}

TEST(DeltaMaintenanceTest, MaintainedRootIsServedWithoutRecomputation) {
  Rng rng(7);
  Database db = MakeDb(12, &rng);
  QueryEngine engine = QueryEngine::Borrow(db);
  ConjunctiveQuery q = Q("q(x) :- R(x,y), S(y)");
  const std::vector<PreparedQuery> batch = PrepareAll(&engine, {q});
  ASSERT_TRUE(engine.ExecuteBatch(batch)[0].ok());

  AppendRows(&db, /*idx=*/0, 2, /*arity=*/2, &rng);
  ASSERT_GT(engine.stats().result_cache_delta_maintained, 0u);

  auto got = engine.ExecuteBatch(batch);
  ASSERT_TRUE(got[0].ok());
  // The root subplan hits at the new version, so the execution evaluates
  // zero plan nodes — served, not recomputed.
  EXPECT_GT(got[0]->result_cache_hits, 0u);
  EXPECT_EQ(got[0]->nodes_evaluated, 0u);
}

TEST(DeltaMaintenanceTest, NonAppendCommitSweepsInsteadOfMaintaining) {
  Rng rng(19);
  Database db = MakeDb(10, &rng);
  QueryEngine engine = QueryEngine::Borrow(db);
  ConjunctiveQuery q = Q("q(x) :- R(x,y), S(y)");
  const std::vector<PreparedQuery> batch = PrepareAll(&engine, {q});
  ASSERT_TRUE(engine.ExecuteBatch(batch)[0].ok());

  const size_t maintained = engine.stats().result_cache_delta_maintained;
  {
    auto w = db.BeginWrite();
    w.mutable_table(0)->SetProb(0, 0.125);  // overwrite, not append
    w.Commit();
  }
  EXPECT_EQ(engine.stats().result_cache_delta_maintained, maintained);
  EXPECT_GT(engine.stats().result_cache_swept, 0u);

  // The first post-commit batch recomputes (no stale hits) and matches a
  // cold engine exactly.
  auto got = engine.ExecuteBatch(batch);
  ASSERT_TRUE(got[0].ok());
  EXPECT_EQ(got[0]->result_cache_hits, 0u);
  QueryEngine fresh = QueryEngine::Borrow(db);
  auto expect = fresh.ExecuteBatch(PrepareAll(&fresh, {q}));
  ASSERT_TRUE(expect[0].ok());
  ExpectBitIdentical(expect[0]->answers, got[0]->answers, "post-sweep");
}

TEST(DeltaMaintenanceTest, MultiTableAppendMaintainsWhatItCanProve) {
  Rng rng(23);
  Database db = MakeDb(10, &rng);
  QueryEngine engine = QueryEngine::Borrow(db);
  // qp reads only R; qj reads R and S.
  ConjunctiveQuery qj = Q("q(x) :- R(x,y), S(y)");
  ConjunctiveQuery qp = Q("q(x) :- R(x,y)");
  const std::vector<PreparedQuery> batch = PrepareAll(&engine, {qj, qp});
  for (const auto& r : engine.ExecuteBatch(batch)) ASSERT_TRUE(r.ok());

  const size_t maintained = engine.stats().result_cache_delta_maintained;
  {
    // One commit appending to both tables: qp's entry sees exactly one
    // grown scan and rolls forward; qj's entry sees two and falls back.
    auto w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{Value::Int64(1), Value::Int64(2)},
                0.4375);
    w.AppendRow(1, std::vector<Value>{Value::Int64(9)}, 0.3125);
    w.Commit();
  }
  EXPECT_GT(engine.stats().result_cache_delta_maintained, maintained);

  // Either way, every answer matches a from-scratch evaluation bit for
  // bit — maintained entries served from cache, fallen-back ones
  // recomputed at the new version.
  QueryEngine fresh = QueryEngine::Borrow(db);
  auto expect = fresh.ExecuteBatch(PrepareAll(&fresh, {qj, qp}));
  auto got = engine.ExecuteBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(expect[i].ok() && got[i].ok());
    ExpectBitIdentical(expect[i]->answers, got[i]->answers,
                       "query " + std::to_string(i));
  }
}

TEST(DeltaMaintenanceTest, ReadersRaceAppendOnlyWriterWithMaintenanceOn) {
  ChunkCapOverride cap(8);
  Rng rng(101);
  Database db = MakeDb(64, &rng);
  QueryEngine engine = QueryEngine::Borrow(db);
  ConjunctiveQuery q = Q("q(x) :- R(x,y), S(y)");
  const std::vector<PreparedQuery> batch = PrepareAll(&engine, {q});
  ASSERT_TRUE(engine.ExecuteBatch(batch)[0].ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &q, &failures] {
      for (int i = 0; i < 8; ++i) {
        auto r = engine.ExecuteBatch(PrepareAll(&engine, {q}));
        if (!r[0].ok() || r[0]->answers.empty()) failures.fetch_add(1);
      }
    });
  }
  std::thread writer([&db] {
    Rng wrng(7);
    for (int c = 0; c < 16; ++c) {
      AppendRows(&db, /*idx=*/0, 3, /*arity=*/2, &wrng);
    }
  });
  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);

  // Settle: the final state still serves bit-identically to a cold engine.
  QueryEngine fresh = QueryEngine::Borrow(db);
  auto expect = fresh.ExecuteBatch(PrepareAll(&fresh, {q}));
  ASSERT_TRUE(expect[0].ok());
  auto got = engine.ExecuteBatch(batch);
  ASSERT_TRUE(got[0].ok());
  ExpectBitIdentical(expect[0]->answers, got[0]->answers, "settled");
}

}  // namespace
}  // namespace dissodb
