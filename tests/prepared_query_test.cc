// Prepared-query API: canonicalization (variable-renaming invariance of
// plan handles, fingerprints, and remapped answers), fingerprintable
// Bindings (parameters + tagged atom selections), async Submit, per-query
// batch errors, and the Opt. 3 / isomorphic-batch result-sharing
// acceptance criteria.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/dissociation/propagation.h"
#include "src/engine/query_engine.h"
#include "src/lift/safe_plan.h"
#include "src/query/canonicalize.h"
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
    // Bit-identical: the canonical path must perform the same
    // floating-point operations in the same order as the caller-space
    // reference.
    EXPECT_EQ(a[i].score, b[i].score) << what << " row " << i;
  }
}

/// Rebuilds `q` with its variables interned in the order given by `order`
/// (a permutation of 0..num_vars-1, listing original ids) and renamed with
/// `prefix`. The result is isomorphic to `q`: same atoms, same head
/// positions, permuted variable ids.
ConjunctiveQuery PermuteVars(const ConjunctiveQuery& q,
                             const std::vector<int>& order,
                             const std::string& prefix) {
  ConjunctiveQuery out;
  out.SetName(q.name());
  std::vector<VarId> newid(q.num_vars(), -1);
  for (int old : order) newid[old] = out.AddVar(prefix + q.var_name(old));
  for (VarId h : q.head_vars()) EXPECT_TRUE(out.AddHeadVar(newid[h]).ok());
  for (int i = 0; i < q.num_atoms(); ++i) {
    Atom atom = q.atom(i);
    for (Term& t : atom.terms) {
      if (t.is_var) t.var = newid[t.var];
    }
    EXPECT_TRUE(out.AddAtom(std::move(atom)).ok());
  }
  return out;
}

std::vector<int> RandomOrder(Rng* rng, int n) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    int j = static_cast<int>(rng->NextBounded(i + 1));
    std::swap(order[i], order[j]);
  }
  return order;
}

TEST(CanonicalizeTest, IsomorphicQueriesShareOneCanonicalForm) {
  ConjunctiveQuery q1 = Q("q(x) :- R(x,y), S(y,z)");
  ConjunctiveQuery q2 = Q("foo(b) :- R(b,a), S(a,c)");
  auto c1 = CanonicalizeQuery(q1);
  auto c2 = CanonicalizeQuery(q2);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_EQ(c1->query.ToString(), c2->query.ToString());
  EXPECT_TRUE(c1->identity);  // x,y,z already intern in occurrence order
  EXPECT_TRUE(c2->identity);

  // Head interned before body: y occurs first in the body, so ids permute.
  ConjunctiveQuery q3 = Q("q(x) :- R(y,x)");
  auto c3 = CanonicalizeQuery(q3);
  ASSERT_TRUE(c3.ok());
  EXPECT_FALSE(c3->identity);
  EXPECT_EQ(c3->orig_to_canon[q3.FindVar("y")], 0);
  EXPECT_EQ(c3->orig_to_canon[q3.FindVar("x")], 1);
  EXPECT_EQ(c3->canon_to_orig[0], q3.FindVar("y"));
  // Same canonical text as the straight spelling.
  auto c4 = CanonicalizeQuery(Q("q(b) :- R(a,b)"));
  ASSERT_TRUE(c4.ok());
  EXPECT_EQ(c3->query.ToString(), c4->query.ToString());
}

TEST(CanonicalizeTest, ConstantsAndParamsSurviveCanonicalization) {
  ConjunctiveQuery q = Q("q(x) :- R(x,7,$0), S(x,?)");
  auto c = CanonicalizeQuery(q);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->query.num_params(), 2);
  EXPECT_EQ(c->query.ToString(), "q(v0) :- R(v0,7,$0), S(v0,$1)");
}

TEST(PreparedQueryTest, RenamingInvarianceOfPlanFingerprints) {
  Rng rng(411);
  for (int seed = 0; seed < 40; ++seed) {
    Rng qrng(5100 + seed);
    RandomQuerySpec qs;
    qs.min_atoms = 1;
    qs.max_atoms = 3;
    ConjunctiveQuery q = RandomQuery(&qrng, qs);
    ConjunctiveQuery renamed =
        PermuteVars(q, RandomOrder(&rng, q.num_vars()), "r_");

    auto c1 = CanonicalizeQuery(q);
    auto c2 = CanonicalizeQuery(renamed);
    ASSERT_TRUE(c1.ok() && c2.ok());
    ASSERT_EQ(c1->query.ToString(), c2->query.ToString()) << "seed " << seed;

    // The compiled single plans fingerprint identically, so isomorphic
    // subplans key into the same ResultCache entries.
    auto p1 = lift::CompileSafePlan(c1->query,
                                    SchemaKnowledge::None(c1->query));
    auto p2 = lift::CompileSafePlan(c2->query,
                                    SchemaKnowledge::None(c2->query));
    ASSERT_EQ(p1.ok(), p2.ok()) << "seed " << seed;
    if (!p1.ok()) continue;
    EXPECT_EQ(PlanFingerprint(p1->plan, c1->query),
              PlanFingerprint(p2->plan, c2->query))
        << "seed " << seed;
  }
}

/// The query's own single plan evaluated in the caller's variable space
/// (no canonicalization): the reference the prepared path must reproduce.
Result<std::vector<RankedAnswer>> CallerSpaceScores(
    const Database& db, const ConjunctiveQuery& q) {
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  if (!sk.ok()) return sk.status();
  auto lifted = lift::CompileSafePlan(q, *sk);
  if (!lifted.ok()) return lifted.status();
  return PlanScore(db, q, lifted->plan);
}

TEST(PreparedQueryTest, RenamedExecutionMatchesLegacyRunBitExactly) {
  // Differential: prepared execution of a renamed query (evaluated in
  // canonical space, answers column-remapped) against the query's plan
  // evaluated directly in the caller's space.
  Rng rng(902);
  for (int seed = 0; seed < 40; ++seed) {
    Rng qrng(6200 + seed);
    RandomQuerySpec qs;
    qs.min_atoms = 1;
    qs.max_atoms = 3;
    ConjunctiveQuery q = RandomQuery(&qrng, qs);
    ConjunctiveQuery renamed =
        PermuteVars(q, RandomOrder(&rng, q.num_vars()), "z");
    Database db = RandomDatabaseFor(q, &qrng);

    auto expected = CallerSpaceScores(db, renamed);

    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(renamed);
    ASSERT_EQ(expected.ok(), prepared.ok()) << "seed " << seed;
    if (!expected.ok()) continue;
    auto got = engine.Execute(*prepared);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " seed " << seed;
    ExpectSameRankings(*expected, got->answers,
                       "seed " + std::to_string(seed));
  }
}

TEST(PreparedQueryTest, IsomorphicQueriesHitOnePlanCacheEntry) {
  Database db;
  AddTable(&db, "R", 2, {{{1, 2}, 0.5}});
  AddTable(&db, "S", 2, {{{2, 3}, 0.5}});
  QueryEngine engine = QueryEngine::Borrow(db);

  auto p1 = engine.Prepare("q(x) :- R(x,y), S(y,z)");
  ASSERT_TRUE(p1.ok());
  EXPECT_FALSE(p1->from_plan_cache());
  // Different names, different interning order, different head name.
  auto p2 = engine.Prepare("other(u) :- R(u,w), S(w,t)");
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(p2->from_plan_cache());
  EXPECT_EQ(p1->cache_key(), p2->cache_key());
  EXPECT_EQ(engine.stats().plan_cache_misses, 1u);
  EXPECT_EQ(engine.stats().plan_cache_hits, 1u);

  // A renaming that permutes ids still hits (and reports the remap).
  auto p3 = engine.Prepare("q(x) :- R(y,x), S(x,z)");
  ASSERT_TRUE(p3.ok());
  EXPECT_NE(p3->cache_key(), p1->cache_key());  // different structure
  auto p4 = engine.Prepare("q(b) :- R(a,b), S(b,c)");
  ASSERT_TRUE(p4.ok());
  EXPECT_TRUE(p4->from_plan_cache());
  EXPECT_EQ(p4->cache_key(), p3->cache_key());
  EXPECT_TRUE(p3->needs_remap());
  EXPECT_GE(engine.stats().canonical_remap_hits, 1u);
}

TEST(CanonicalizeTest, BodyPermutedSpellingsShareOneCanonicalForm) {
  // Atom-order canonicalization: atoms sort by relation symbol before
  // variable renaming, so body permutations of one query are isomorphic.
  ConjunctiveQuery q1 = Q("q(x) :- R(x,y), S(y,z)");
  ConjunctiveQuery q2 = Q("q(u) :- S(w,t), R(u,w)");
  auto c1 = CanonicalizeQuery(q1);
  auto c2 = CanonicalizeQuery(q2);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_EQ(c1->query.ToString(), c2->query.ToString());
  EXPECT_FALSE(c1->atoms_reordered);
  EXPECT_TRUE(c2->atoms_reordered);
  // q2's original atom 0 (S) lands at canonical position 1 and vice versa.
  EXPECT_EQ(c2->atom_orig_to_canon, (std::vector<int>{1, 0}));
  EXPECT_EQ(c2->atom_canon_to_orig, (std::vector<int>{1, 0}));
  // A three-atom permutation sorts fully by relation symbol.
  ConjunctiveQuery q3 = Q("q(x) :- T(x,y), S(y,1), R(x,2)");
  auto c3 = CanonicalizeQuery(q3);
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(c3->atom_canon_to_orig, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(c3->query.ToString(),
            CanonicalizeQuery(Q("q(x) :- R(x,2), S(y,1), T(x,y)"))
                ->query.ToString());
}

TEST(PreparedQueryTest, BodyPermutedSpellingsShareOnePlanCacheEntry) {
  Database db;
  AddTable(&db, "R", 2, {{{1, 10}, 0.5}, {{2, 20}, 0.6}});
  AddTable(&db, "S", 2, {{{10, 7}, 0.9}, {{20, 7}, 0.8}});
  QueryEngine engine = QueryEngine::Borrow(db);

  auto p1 = engine.Prepare("q(x) :- R(x,y), S(y,z)");
  ASSERT_TRUE(p1.ok());
  EXPECT_FALSE(p1->from_plan_cache());
  auto p2 = engine.Prepare("q(a) :- S(b,c), R(a,b)");
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(p2->from_plan_cache());
  EXPECT_EQ(p1->cache_key(), p2->cache_key());
  EXPECT_EQ(engine.stats().plan_cache_misses, 1u);

  // Both spellings execute the one compiled artifact and agree bit-exactly.
  auto r1 = engine.Execute(*p1);
  auto r2 = engine.Execute(*p2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ExpectSameRankings(r1->answers, r2->answers, "body-permuted spellings");
}

TEST(PreparedQueryTest, AtomBindingsRemapThroughTheCanonicalBodyOrder) {
  Database db;
  AddTable(&db, "R", 1, {{{10}, 0.9}, {{20}, 0.8}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.5}, {{2, 20}, 0.6}, {{3, 10}, 0.7}});
  QueryEngine engine = QueryEngine::Borrow(db);

  // Only keep R(10): binding expressed against each spelling's own body
  // order must reach the R atom in both.
  Table r_small(RelationSchema::AllInt64("R", 1));
  r_small.AddRow({Value::Int64(10)}, 0.9);

  // Spelling A: R is original atom 1 (canonical atom 0 after sorting).
  auto pa = engine.Prepare("q(x) :- S(x,y), R(y)");
  ASSERT_TRUE(pa.ok());
  auto ra = engine.Execute(*pa, Bindings().SetAtomTable(1, &r_small));
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  // Spelling B: R is original atom 0 (already canonical).
  auto pb = engine.Prepare("q(x) :- R(y), S(x,y)");
  ASSERT_TRUE(pb.ok());
  auto rb = engine.Execute(*pb, Bindings().SetAtomTable(0, &r_small));
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();

  ExpectSameRankings(ra->answers, rb->answers, "remapped atom bindings");
  // Only x=1 and x=3 join R(10).
  ASSERT_EQ(ra->answers.size(), 2u);

  // A misdirected binding (arity mismatch with the canonical atom) would
  // have failed the scan — guard that the remap really targeted R.
  Table wrong(RelationSchema::AllInt64("X", 2));
  wrong.AddRow({Value::Int64(1), Value::Int64(1)}, 0.5);
  EXPECT_FALSE(engine.Execute(*pa, Bindings().SetAtomTable(1, &wrong)).ok());
}

TEST(PreparedQueryTest, ParametersPrepareOnceExecuteMany) {
  Database db;
  AddTable(&db, "R", 2,
           {{{1, 10}, 0.9}, {{2, 10}, 0.8}, {{3, 20}, 0.7}});
  QueryEngine engine = QueryEngine::Borrow(db);

  auto prepared = engine.Prepare("q(x) :- R(x,$0)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->num_params(), 1);

  auto r10 = engine.Execute(*prepared, Bindings().Set(0, Value::Int64(10)));
  ASSERT_TRUE(r10.ok()) << r10.status().ToString();
  EXPECT_EQ(r10->answers.size(), 2u);
  auto r20 = engine.Execute(*prepared, Bindings().Set(0, Value::Int64(20)));
  ASSERT_TRUE(r20.ok());
  ASSERT_EQ(r20->answers.size(), 1u);
  EXPECT_EQ(r20->answers[0].tuple[0], Value::Int64(3));
  auto r99 = engine.Execute(*prepared, Bindings().Set(0, Value::Int64(99)));
  ASSERT_TRUE(r99.ok());
  EXPECT_TRUE(r99->answers.empty());

  // One compile served every binding.
  EXPECT_EQ(engine.stats().plan_cache_misses, 1u);

  // "?" is an auto-indexed placeholder: same canonical form, cache hit.
  auto anon = engine.Prepare("q(x) :- R(x,?)");
  ASSERT_TRUE(anon.ok());
  EXPECT_TRUE(anon->from_plan_cache());

  // Oversized parameter indices are parse errors, not allocation requests.
  EXPECT_FALSE(engine.Prepare("q(x) :- R(x,$9999)").ok());
  EXPECT_FALSE(engine.Prepare("q(x) :- R(x,$99999999999999999999)").ok());

  // Unbound / out-of-range / spurious parameters are per-execution errors.
  EXPECT_FALSE(engine.Execute(*prepared).ok());
  EXPECT_FALSE(
      engine.Execute(*prepared, Bindings().Set(1, Value::Int64(1))).ok());
  auto noparam = engine.Prepare("q(x) :- R(x,y)");
  ASSERT_TRUE(noparam.ok());
  EXPECT_FALSE(
      engine.Execute(*noparam, Bindings().Set(0, Value::Int64(1))).ok());
}

TEST(PreparedQueryTest, DistinctParameterValuesNeverCollideInResultCache) {
  Database db;
  AddTable(&db, "R", 2, {{{1, 10}, 0.9}, {{2, 20}, 0.8}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.6}});
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare("q(x) :- S(x), R(x,$0)");
  ASSERT_TRUE(prepared.ok());

  std::vector<PreparedQuery> batch(4, *prepared);
  std::vector<Bindings> bindings{
      Bindings().Set(0, Value::Int64(10)), Bindings().Set(0, Value::Int64(20)),
      Bindings().Set(0, Value::Int64(10)), Bindings().Set(0, Value::Int64(20))};
  auto results = engine.ExecuteBatch(batch, bindings);
  ASSERT_EQ(results.size(), 4u);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(results[0]->answers.size(), 1u);
  EXPECT_EQ(results[0]->answers[0].tuple[0], Value::Int64(1));
  ASSERT_EQ(results[1]->answers.size(), 1u);
  EXPECT_EQ(results[1]->answers[0].tuple[0], Value::Int64(2));
  ExpectSameRankings(results[0]->answers, results[2]->answers, "param 10");
  ExpectSameRankings(results[1]->answers, results[3]->answers, "param 20");
}

TEST(PreparedQueryTest, ExecuteBatchDeliversErrorsPerQuery) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  QueryEngine engine = QueryEngine::Borrow(db);
  auto good = engine.Prepare("q() :- R(x)");
  auto param = engine.Prepare("q() :- R($0)");
  ASSERT_TRUE(good.ok() && param.ok());

  // Query 1 lacks its parameter binding: it alone fails.
  auto results = engine.ExecuteBatch({*good, *param, *good},
                                     {Bindings{}, Bindings{}, Bindings{}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST(PreparedQueryTest, SubmitIsAsyncAndSharesResults) {
  ChainSpec spec;
  spec.k = 3;
  spec.n = 200;
  spec.seed = 77;
  auto db = std::make_shared<const Database>(MakeChainDatabase(spec));
  QueryEngine engine(db);
  ConjunctiveQuery q = MakeChainQuery(3);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  auto expected = engine.Execute(*prepared);
  ASSERT_TRUE(expected.ok());

  auto warm = engine.Submit(*prepared);
  auto warm_result = warm.get();
  ASSERT_TRUE(warm_result.ok()) << warm_result.status().ToString();

  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(engine.Submit(*prepared));
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameRankings(expected->answers, r->answers, "submit");
  }
  // Pooled executions share subplans through the result cache; the warmed
  // duplicates are served without recomputation.
  EXPECT_GT(engine.stats().result_cache_hits, 0u);
  EXPECT_EQ(engine.stats().batch_queries, 5u);
}

TEST(PreparedQueryTest, EngineDestructionDrainsPendingSubmits) {
  ChainSpec spec;
  spec.k = 3;
  spec.n = 150;
  spec.seed = 3;
  auto db = std::make_shared<const Database>(MakeChainDatabase(spec));
  std::future<Result<QueryResult>> orphan;
  {
    EngineOptions opts;
    opts.num_threads = 2;
    QueryEngine engine(db, opts);
    auto prepared = engine.Prepare(MakeChainQuery(3));
    ASSERT_TRUE(prepared.ok());
    // Dropped futures: the tasks may still be queued when the engine dies;
    // the pool (destroyed first) must run them while caches/stats live.
    for (int i = 0; i < 4; ++i) (void)engine.Submit(*prepared);
    orphan = engine.Submit(*prepared);
  }
  auto r = orphan.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->answers.empty());
}

TEST(PreparedQueryTest, TaggedAtomBindingsKeepResultSharing) {
  ChainSpec spec;
  spec.k = 3;
  spec.n = 250;
  spec.seed = 13;
  Database db = MakeChainDatabase(spec);
  ConjunctiveQuery q = MakeChainQuery(3);
  const Snapshot snap = db.snapshot();
  auto table = snap.GetTable("R1");
  ASSERT_TRUE(table.ok());

  {
    // Untagged selection: subplans touching atom 0 are tainted — every
    // execution re-evaluates them (subplans over untouched atoms may still
    // hit, but the root never does).
    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(q);
    ASSERT_TRUE(prepared.ok());
    Bindings untagged;
    untagged.SetAtomTable(0, *table);
    std::vector<PreparedQuery> batch(1, *prepared);
    std::vector<Bindings> bindings(1, untagged);
    for (auto& r : engine.ExecuteBatch(batch, bindings)) ASSERT_TRUE(r.ok());
    auto repeats = engine.ExecuteBatch({*prepared, *prepared},
                                       {untagged, untagged});
    for (auto& r : repeats) {
      ASSERT_TRUE(r.ok());
      EXPECT_GT((*r).nodes_evaluated, 0u)
          << "tainted subplans must be re-evaluated";
    }
  }
  {
    // The same workload with a content tag shares every repeated subplan:
    // after the warm-up, a repeat is served entirely from the cache (its
    // root subplan hits, so zero plan nodes evaluate).
    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(q);
    ASSERT_TRUE(prepared.ok());
    Bindings tagged;
    tagged.SetAtomTable(0, *table, "R1@full");
    std::vector<PreparedQuery> batch(1, *prepared);
    std::vector<Bindings> bindings(1, tagged);
    for (auto& r : engine.ExecuteBatch(batch, bindings)) ASSERT_TRUE(r.ok());
    auto repeats = engine.ExecuteBatch({*prepared, *prepared},
                                       {tagged, tagged});
    for (auto& r : repeats) {
      ASSERT_TRUE(r.ok());
      EXPECT_EQ((*r).nodes_evaluated, 0u)
          << "tagged bound subplans must be served from the result cache";
      EXPECT_GT((*r).result_cache_hits, 0u);
    }

    // An untagged binding of the same table must agree.
    QueryEngine reference = QueryEngine::Borrow(db);
    auto expected = PrepareAndExecute(reference, q,
                                      Bindings().SetAtomTable(0, *table));
    ASSERT_TRUE(expected.ok());
    auto got = engine.Execute(*prepared, tagged);
    ASSERT_TRUE(got.ok());
    ExpectSameRankings(expected->answers, got->answers, "tagged binding");
  }
}

// Acceptance: a batch of 64 pairwise variable-renamed (isomorphic) chain
// queries shows the same result-cache sharing as 64 identical copies.
TEST(PreparedQueryTest, IsomorphicBatchSharesLikeIdenticalBatch) {
  ChainSpec spec;
  spec.k = 4;
  spec.n = 400;
  spec.seed = 21;
  Database db = MakeChainDatabase(spec);
  ConjunctiveQuery base = MakeChainQuery(4);

  constexpr int kBatch = 64;
  Rng rng(33);
  std::vector<ConjunctiveQuery> renamed;
  renamed.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    renamed.push_back(PermuteVars(base, RandomOrder(&rng, base.num_vars()),
                                  "n" + std::to_string(i) + "_"));
  }
  std::vector<ConjunctiveQuery> identical(kBatch, base);

  auto served = [&](const std::vector<ConjunctiveQuery>& workload) {
    QueryEngine engine = QueryEngine::Borrow(db);
    // Warm with a single-query batch so hit counts are deterministic.
    auto warm = engine.Prepare(base);
    EXPECT_TRUE(warm.ok() && engine.ExecuteBatch({*warm})[0].ok());
    std::vector<PreparedQuery> prepared;
    for (const auto& q : workload) {
      auto p = engine.Prepare(q);
      EXPECT_TRUE(p.ok()) << p.status().ToString();
      if (p.ok()) prepared.push_back(std::move(*p));
    }
    for (const auto& r : engine.ExecuteBatch(prepared)) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    EngineStats s = engine.stats();
    return s.result_cache_hits + s.result_cache_in_flight_waits;
  };

  const size_t hits_identical = served(identical);
  const size_t hits_renamed = served(renamed);

  EXPECT_GT(hits_identical, 0u);
  // The renamed batch behaves exactly like the identical one (every query
  // keys into the same canonical fingerprints).
  EXPECT_EQ(hits_renamed, hits_identical);

  // And the remapped answers are the caller-space answers, query by query.
  QueryEngine engine = QueryEngine::Borrow(db);
  for (int i = 0; i < kBatch; i += 16) {
    auto expected = CallerSpaceScores(db, renamed[i]);
    auto got = PrepareAndExecute(engine, renamed[i]);
    ASSERT_TRUE(expected.ok() && got.ok());
    ExpectSameRankings(*expected, got->answers,
                       "renamed " + std::to_string(i));
  }
}

// Acceptance: with Opt. 3 enabled, reduced inputs are fingerprinted as
// reduction(query, db version) instead of tainting every subplan — batches
// share results again, and repeated reductions are served from the
// reduction cache.
TEST(PreparedQueryTest, Opt3BatchSharesResultsAndReductions) {
  ChainSpec spec;
  spec.k = 4;
  spec.n = 300;
  spec.seed = 5;
  Database db = MakeChainDatabase(spec);
  ConjunctiveQuery q = MakeChainQuery(4);

  EngineOptions opts;
  opts.propagation.opt3_semijoin_reduction = true;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(engine.ExecuteBatch({*prepared})[0].ok());
  auto results =
      engine.ExecuteBatch(std::vector<PreparedQuery>(8, *prepared));
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  EngineStats s = engine.stats();
  EXPECT_GT(s.result_cache_hits, 0u)
      << "opt3 executions must participate in result sharing";
  EXPECT_GT(s.reduction_cache_hits, 0u)
      << "repeated identical reductions must be served from cache";

  // Scores are unchanged by the reduction: compare against opt3 off.
  QueryEngine plain = QueryEngine::Borrow(db);
  auto expected = PrepareAndExecute(plain, q);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->answers.size(), results[0]->answers.size());
  for (size_t i = 0; i < expected->answers.size(); ++i) {
    EXPECT_EQ(expected->answers[i].tuple, results[0]->answers[i].tuple);
    EXPECT_DOUBLE_EQ(expected->answers[i].score,
                     results[0]->answers[i].score);
  }
}

TEST(PreparedQueryTest, BooleanQueryRoutesThroughBindings) {
  Database db;
  AddTable(&db, "R", 2, {{{1, 10}, 0.25}, {{2, 20}, 0.75}});
  QueryEngine engine = QueryEngine::Borrow(db);

  auto r = PrepareAndExecute(engine, "q() :- R($0,y)",
                             Bindings().Set(0, Value::Int64(2)));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->answers.size(), 1u);
  EXPECT_DOUBLE_EQ(r->answers[0].score, 0.75);
  // No satisfying assignment: no answer.
  auto miss = PrepareAndExecute(engine, "q() :- R($0,y)",
                                Bindings().Set(0, Value::Int64(3)));
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->answers.empty());
  // Boolean queries share the plan cache with their isomorphic siblings.
  EXPECT_EQ(engine.stats().plan_cache_misses, 1u);
}

}  // namespace
}  // namespace dissodb
