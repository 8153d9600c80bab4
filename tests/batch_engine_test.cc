// Batch serving path: ExecuteBatch determinism against sequential Execute,
// subplan sharing through the result cache, and database-version
// invalidation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/workload/random_instance.h"
#include "src/workload/synthetic.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::PrepareAndExecute;
using testing_util::Q;

void ExpectSameRankings(const std::vector<RankedAnswer>& a,
                        const std::vector<RankedAnswer>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple, b[i].tuple) << what << " row " << i;
    // Bit-identical, not approximately equal: the batch path must perform
    // the same floating-point operations in the same order.
    EXPECT_EQ(a[i].score, b[i].score) << what << " row " << i;
  }
}

TEST(BatchEngineTest, ExecuteBatchMatchesSequentialExecuteOnRandomInstances) {
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(9000 + seed);
    RandomQuerySpec qs;
    qs.min_atoms = 1;
    qs.max_atoms = 3;
    ConjunctiveQuery q = RandomQuery(&rng, qs);
    Database db = RandomDatabaseFor(q, &rng);

    QueryEngine sequential = QueryEngine::Borrow(db);
    auto expected = PrepareAndExecute(sequential, q);

    QueryEngine batch_engine = QueryEngine::Borrow(db);
    auto prepared = batch_engine.Prepare(q);
    ASSERT_EQ(expected.ok(), prepared.ok()) << "seed " << seed;
    if (!expected.ok()) continue;
    // Duplicates in the batch exercise the result-cache sharing path.
    auto got = batch_engine.ExecuteBatch({*prepared, *prepared, *prepared});
    ASSERT_EQ(got.size(), 3u);
    for (const auto& r : got) {
      ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
      ExpectSameRankings(expected->answers, r->answers,
                         "seed " + std::to_string(seed));
    }
  }
}

TEST(BatchEngineTest, OverlappingWorkloadSharesSubplansThroughCache) {
  ChainSpec spec;
  spec.k = 4;
  spec.n = 300;
  spec.seed = 5;
  Database db = MakeChainDatabase(spec);
  ConjunctiveQuery q = MakeChainQuery(4);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  // Warm the cache with a single-query batch first: on a many-core pool,
  // 8 concurrent duplicates could otherwise all miss before the first Put
  // lands (a documented benign race) and make the hit assertions flaky.
  auto warm = engine.ExecuteBatch({*prepared});
  ASSERT_TRUE(warm[0].ok());
  auto results = engine.ExecuteBatch(std::vector<PreparedQuery>(8, *prepared));
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The first evaluation fills the cache; the duplicates are served from
  // it (a duplicate query's root subplan is a cache hit, so it evaluates
  // zero nodes).
  EngineStats s = engine.stats();
  EXPECT_GT(s.result_cache_hits, 0u);
  EXPECT_GT(s.result_cache_entries, 0u);
  EXPECT_EQ(s.batch_queries, 9u);  // 1 warm-up + 8 workload queries
  EXPECT_GT(s.tasks_executed, 0u);
  size_t total_hits = 0;
  for (const auto& r : results) total_hits += r->result_cache_hits;
  EXPECT_GT(total_hits, 0u);

  // Sequential Execute never touches the result cache (its semantics
  // measure evaluation), so hits stay put.
  auto single = engine.Execute(*prepared);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->result_cache_hits, 0u);
  EXPECT_EQ(engine.stats().result_cache_hits, s.result_cache_hits);
}

TEST(BatchEngineTest, IdenticalConcurrentQueriesComputeEachSubplanOnce) {
  ChainSpec spec;
  spec.k = 4;
  spec.n = 400;
  spec.seed = 29;
  auto db = std::make_shared<const Database>(MakeChainDatabase(spec));
  ConjunctiveQuery q = MakeChainQuery(4);

  // Reference: a single-query batch computes each cacheable subplan once;
  // its miss count is the number of distinct cacheable subplans C.
  size_t distinct_subplans;
  {
    QueryEngine engine(db);
    auto prepared = engine.Prepare(q);
    ASSERT_TRUE(prepared.ok());
    ASSERT_TRUE(engine.ExecuteBatch({*prepared})[0].ok());
    distinct_subplans = engine.stats().result_cache_misses;
    ASSERT_GT(distinct_subplans, 0u);
  }

  // 16 identical queries racing on a cold cache: in-flight dedup must keep
  // the number of actual computations at exactly C — concurrent duplicates
  // wait on the leader's future instead of computing twice.
  constexpr size_t kDup = 16;
  EngineOptions opts;
  opts.num_threads = 8;
  QueryEngine engine(db, opts);
  QueryEngine reference(db);
  auto expected = PrepareAndExecute(reference, q);
  ASSERT_TRUE(expected.ok());
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  auto results =
      engine.ExecuteBatch(std::vector<PreparedQuery>(kDup, *prepared));
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  EngineStats s = engine.stats();
  EXPECT_EQ(s.result_cache_misses, distinct_subplans)
      << "a duplicate subplan computed twice in one batch";
  // Every duplicate query was served at least its root subplan without
  // computing (by plain hit or by waiting on the in-flight leader).
  EXPECT_GE(s.result_cache_hits + s.result_cache_in_flight_waits, kDup - 1);
  for (const auto& r : results) {
    ExpectSameRankings(expected->answers, r->answers, "dedup batch");
  }
}

TEST(BatchEngineTest, MutationBumpsVersionAndInvalidatesCachedResults) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}});
  AddTable(&db, "T", 1, {{{10}, 0.6}});
  const uint64_t v0 = db.version();

  QueryEngine engine = QueryEngine::Borrow(db);
  ConjunctiveQuery q = Q("q() :- R(x), S(x,y), T(y)");
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  // Run the duplicate after the first query finished, so it is served by a
  // plain cache hit rather than by waiting on an in-flight computation.
  auto before = engine.ExecuteBatch({*prepared});
  ASSERT_TRUE(before[0].ok());
  const double score_before = before[0]->answers[0].score;
  ASSERT_TRUE(engine.ExecuteBatch({*prepared})[0].ok());
  EXPECT_GT(engine.stats().result_cache_hits, 0u);

  // Mutate a base probability: the version counter moves and every cached
  // subplan becomes stale.
  {
    Database::Writer w = db.BeginWrite();
    w.mutable_table(0)->SetProb(0, 0.1);
    w.Commit();
  }
  EXPECT_GT(db.version(), v0);

  auto after = engine.ExecuteBatch({*prepared});
  ASSERT_TRUE(after[0].ok());
  const double score_after = after[0]->answers[0].score;
  EXPECT_NE(score_before, score_after);

  // The stale-entry discard counts as an eviction, and the recomputed
  // score must match a fresh engine with no cache history.
  EXPECT_GT(engine.stats().result_cache_evictions, 0u);
  QueryEngine fresh = QueryEngine::Borrow(db);
  auto expected = PrepareAndExecute(fresh, q);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(score_after, expected->answers[0].score);
}

TEST(BatchEngineTest, MultiThreadedBatchIsDeterministic) {
  ChainSpec spec;
  spec.k = 5;
  spec.n = 400;
  spec.seed = 17;
  auto db = std::make_shared<const Database>(MakeChainDatabase(spec));

  // Sequential reference rankings, one engine per run to avoid any cache
  // interaction.
  std::vector<ConjunctiveQuery> workload;
  for (int k = 2; k <= 5; ++k) {
    for (int rep = 0; rep < 5; ++rep) workload.push_back(MakeChainQuery(k));
  }
  std::vector<std::vector<RankedAnswer>> expected;
  {
    QueryEngine sequential(db);
    for (const auto& q : workload) {
      auto r = PrepareAndExecute(sequential, q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(r->answers);
    }
  }

  EngineOptions opts;
  opts.num_threads = 4;
  QueryEngine engine(db, opts);
  for (int round = 0; round < 3; ++round) {
    std::vector<PreparedQuery> prepared;
    for (const auto& q : workload) {
      auto p = engine.Prepare(q);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      prepared.push_back(std::move(*p));
    }
    auto results = engine.ExecuteBatch(prepared);
    ASSERT_EQ(results.size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      ExpectSameRankings(expected[i], results[i]->answers,
                         "round " + std::to_string(round) + " query " +
                             std::to_string(i));
    }
  }
  EXPECT_GT(engine.stats().result_cache_hits, 0u);
}

TEST(BatchEngineTest, BatchFromDatalogTextsAndEmptyBatch) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}, {{2}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}, {{2, 20}, 0.8}});
  QueryEngine engine = QueryEngine::Borrow(db);

  EXPECT_TRUE(engine.ExecuteBatch({}).empty());

  auto join = engine.Prepare("q(x) :- R(x), S(x,y)");
  auto scan = engine.Prepare("q() :- R(x)");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  auto res = engine.ExecuteBatch({*join, *scan});
  ASSERT_EQ(res.size(), 2u);
  ASSERT_TRUE(res[0].ok() && res[1].ok());
  EXPECT_EQ(res[0]->answers.size(), 2u);
  EXPECT_EQ(res[1]->answers.size(), 1u);

  EXPECT_FALSE(engine.Prepare("q(x) :- ").ok());
}

}  // namespace
}  // namespace dissodb
