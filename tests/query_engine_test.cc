// QueryEngine facade: parity with Algorithm 2's reference plan, plan
// caching, datalog entry point, overrides, and concurrent read-only
// queries.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/dissociation/minimal_plans.h"
#include "src/dissociation/propagation.h"
#include "src/engine/query_engine.h"
#include "src/workload/random_instance.h"
#include "src/workload/synthetic.h"
#include "tests/reference_ops.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::BuildSinglePlan;
using testing_util::PrepareAndExecute;
using testing_util::Q;

Database RstDatabase() {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}, {{2}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}, {{1, 20}, 0.4}, {{2, 20}, 0.8}});
  AddTable(&db, "T", 1, {{{10}, 0.6}, {{20}, 0.3}});
  return db;
}

/// Same answer tuples, scores within 1e-9: canonicalization may reorder
/// the folds, so the engine need not be bit-identical to the reference.
void ExpectSameScores(const std::vector<RankedAnswer>& got,
                      const std::vector<RankedAnswer>& expected,
                      const std::string& label) {
  std::map<std::vector<Value>, double> a, b;
  for (const auto& r : got) a[r.tuple] = r.score;
  for (const auto& r : expected) b[r.tuple] = r.score;
  ASSERT_EQ(a.size(), got.size()) << label;
  ASSERT_EQ(a.size(), b.size()) << label;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first) << label;
    EXPECT_NEAR(ia->second, ib->second, 1e-9) << label;
  }
}

/// Algorithm 2's single min-plan for `q`, built by the reference recursion
/// and evaluated without the engine's parse, canonicalize and lift steps.
Result<std::vector<RankedAnswer>> ReferenceScores(const Database& db,
                                                  const ConjunctiveQuery& q) {
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  if (!sk.ok()) return sk.status();
  auto plan = BuildSinglePlan(q, *sk);
  if (!plan.ok()) return plan.status();
  return PlanScore(db, q, *plan);
}

TEST(QueryEngineTest, MatchesReferencePlanOnRandomInstances) {
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(7000 + seed);
    RandomQuerySpec qs;
    qs.min_atoms = 1;
    qs.max_atoms = 3;
    ConjunctiveQuery q = RandomQuery(&rng, qs);
    Database db = RandomDatabaseFor(q, &rng);

    auto expected = ReferenceScores(db, q);
    QueryEngine engine = QueryEngine::Borrow(db);
    auto got = PrepareAndExecute(engine, q);
    ASSERT_EQ(expected.ok(), got.ok()) << "seed " << seed;
    if (!expected.ok()) continue;
    ExpectSameScores(got->answers, *expected, "seed " + std::to_string(seed));
    auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
    ASSERT_TRUE(sk.ok());
    auto is_safe = IsSafeQuery(q, *sk);
    ASSERT_TRUE(is_safe.ok());
    EXPECT_EQ(got->exact, *is_safe) << "seed " << seed;
  }
}

TEST(QueryEngineTest, ParsesDatalogAndRanksAnswers) {
  Database db = RstDatabase();
  QueryEngine engine = QueryEngine::Borrow(db);
  auto res = PrepareAndExecute(engine, "q(x) :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->answers.size(), 2u);
  EXPECT_GE(res->answers[0].score, res->answers[1].score);
}

TEST(QueryEngineTest, PlanCacheHitsOnRepeatedQueries) {
  Database db = RstDatabase();
  QueryEngine engine = QueryEngine::Borrow(db);
  auto r1 = PrepareAndExecute(engine, "q() :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->from_plan_cache);
  auto r2 = PrepareAndExecute(engine, "q() :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->from_plan_cache);
  // Same query, different surface syntax -> same canonical key.
  auto r3 = PrepareAndExecute(engine, "q()  :-  R(x) , S(x , y), T(y).");
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->from_plan_cache);
  EXPECT_EQ(r1->answers[0].score, r2->answers[0].score);
  EXPECT_EQ(engine.stats().plan_cache_hits, 2u);
  EXPECT_EQ(engine.stats().plan_cache_misses, 1u);
}

TEST(QueryEngineTest, PlanCacheEvictionIsTrueLru) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}});
  AddTable(&db, "T", 1, {{{10}, 0.6}});
  EngineOptions opts;
  opts.plan_cache_capacity = 2;
  QueryEngine engine = QueryEngine::Borrow(db, opts);

  const std::string a = "q() :- R(x)";
  const std::string b = "q() :- S(x,y)";
  const std::string c = "q() :- T(x)";

  ASSERT_TRUE(PrepareAndExecute(engine, a).ok());  // cache: [A]
  ASSERT_TRUE(PrepareAndExecute(engine, b).ok());  // cache: [B, A]
  // Touch A: under FIFO this would not matter; under LRU it makes B the
  // eviction victim.
  auto a_hit = PrepareAndExecute(engine, a);  // cache: [A, B]
  ASSERT_TRUE(a_hit.ok());
  EXPECT_TRUE(a_hit->from_plan_cache);
  ASSERT_TRUE(PrepareAndExecute(engine, c).ok());  // evicts B -> cache: [C, A]

  auto a_again = PrepareAndExecute(engine, a);
  ASSERT_TRUE(a_again.ok());
  EXPECT_TRUE(a_again->from_plan_cache) << "LRU must keep the touched entry";
  auto b_again = PrepareAndExecute(engine, b);
  ASSERT_TRUE(b_again.ok());
  EXPECT_FALSE(b_again->from_plan_cache) << "LRU must have evicted B";
  // Misses: A, B, C, and B recompiled after eviction.
  EXPECT_EQ(engine.stats().plan_cache_misses, 4u);
}

TEST(QueryEngineTest, CacheCapacityZeroDisablesCaching) {
  Database db = RstDatabase();
  EngineOptions opts;
  opts.plan_cache_capacity = 0;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  (void)PrepareAndExecute(engine, "q() :- R(x), S(x,y), T(y)");
  auto r2 = PrepareAndExecute(engine, "q() :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->from_plan_cache);
}

TEST(QueryEngineTest, ReductionCacheIsLruPerSnapshotVersion) {
  Database db = RstDatabase();
  EngineOptions opts;
  opts.propagation.opt3_semijoin_reduction = true;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(x) :- R(x), S(x,$0), T($0)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // Executes with $0 = `v` (pinned to `snap` when given) and reports
  // whether the Opt. 3 reduction came from the cache.
  auto hits = [&](int64_t v, const Snapshot* snap = nullptr) {
    const size_t before = engine.stats().reduction_cache_hits;
    const Bindings b = Bindings().Set(0, Value::Int64(v));
    auto r = snap != nullptr ? engine.Execute(*prepared, b, *snap)
                             : engine.Execute(*prepared, b);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return engine.stats().reduction_cache_hits > before;
  };

  for (int64_t v = 0; v < 64; ++v) EXPECT_FALSE(hits(v)) << v;
  EXPECT_EQ(engine.stats().reduction_cache_misses, 64u);
  EXPECT_TRUE(hits(0));    // 0 is now the most recently used
  EXPECT_FALSE(hits(64));  // the 65th reduction evicts 1, the least recent
  EXPECT_TRUE(hits(0));
  EXPECT_FALSE(hits(1));

  // An append makes a new version; the held snapshot's entries survive the
  // commit-hook sweep and keep serving executions pinned to it.
  const Snapshot held = db.snapshot();
  {
    auto w = db.BeginWrite();
    w.AppendRow(0, std::vector<Value>{Value::Int64(3)}, 0.25);  // R(3)
    w.Commit();
  }
  EXPECT_TRUE(hits(1, &held));
  EXPECT_FALSE(hits(1));
  EXPECT_EQ(engine.stats().reduction_cache_hits, 3u);
  EXPECT_EQ(engine.stats().reduction_cache_misses, 67u);
}

TEST(QueryEngineTest, BooleanQueryMatchesReferencePlan) {
  Database db = RstDatabase();
  ConjunctiveQuery q = Q("q() :- R(x), S(x,y), T(y)");
  auto expected = ReferenceScores(db, q);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  QueryEngine engine = QueryEngine::Borrow(db);
  auto got = PrepareAndExecute(engine, "q() :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->answers.size(), 1u);
  ExpectSameScores(got->answers, *expected, "boolean");
}

TEST(QueryEngineTest, OverridesRebindAtoms) {
  Database db = RstDatabase();
  Table small(RelationSchema::AllInt64("R", 1));
  small.AddRow({Value::Int64(2)}, 0.5);
  QueryEngine engine = QueryEngine::Borrow(db);
  ConjunctiveQuery q = Q("q(x) :- R(x), S(x,y), T(y)");
  auto res =
      PrepareAndExecute(engine, q, Bindings().SetAtomTable(0, &small));
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->answers.size(), 1u);
  EXPECT_EQ(res->answers[0].tuple[0], Value::Int64(2));
}

TEST(QueryEngineTest, UnknownStringConstantSelectsNothing) {
  Database db;
  Table t(RelationSchema{"Person",
                         {"name"},
                         {ValueType::kString},
                         false,
                         {}});
  t.AddRow({db.Str("alice")}, 0.9);
  (void)db.AddTable(std::move(t));
  QueryEngine engine = QueryEngine::Borrow(db);
  auto hit = PrepareAndExecute(engine, "q() :- Person('alice')");
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(hit->answers.size(), 1u);
  EXPECT_DOUBLE_EQ(hit->answers[0].score, 0.9);
  // 'bob' was never interned: parse succeeds read-only, matches no tuple.
  auto miss = PrepareAndExecute(engine, "q() :- Person('bob')");
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_TRUE(miss->answers.empty());
}

TEST(QueryEngineTest, ConcurrentQueriesOverSharedEngine) {
  ChainSpec spec;
  spec.k = 3;
  spec.n = 200;
  spec.seed = 11;
  auto db = std::make_shared<const Database>(MakeChainDatabase(spec));
  QueryEngine engine(db);
  ConjunctiveQuery q = MakeChainQuery(3);

  auto baseline = PrepareAndExecute(engine, q);
  ASSERT_TRUE(baseline.ok());

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 20;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto r = PrepareAndExecute(engine, q);
        if (!r.ok() || r->answers.size() != baseline->answers.size()) {
          ++failures[t];
          continue;
        }
        for (size_t a = 0; a < r->answers.size(); ++a) {
          if (r->answers[a].score != baseline->answers[a].score) ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_EQ(engine.stats().queries,
            1u + kThreads * static_cast<size_t>(kQueriesPerThread));
}

}  // namespace
}  // namespace dissodb
