// Property tests for the optimization combinations (Section 4).
//
// Semantics notes:
//  - Opt. 2 (view reuse) and Opt. 3 (semi-join reduction) never change
//    scores; all combinations within one evaluation family must agree
//    exactly, as must DR/FD knowledge (Lemmas 22/25).
//  - Opt. 1 (Algorithm 2) pushes the min operator INTO the plan: the
//    per-tuple minimum at inner levels can be strictly TIGHTER than the
//    minimum over whole minimal plans (it corresponds to a finer, tuple-
//    level dissociation, still sound by Theorem 8). Hence the single plan's
//    score is <= the all-plans score, and both upper-bound the exact
//    probability.
#include <gtest/gtest.h>

#include <map>

#include "src/common/string_util.h"
#include "src/dissociation/minimal_plans.h"
#include "src/dissociation/propagation.h"
#include "src/engine/query_engine.h"
#include "src/infer/query_inference.h"
#include "src/workload/random_instance.h"
#include "src/workload/synthetic.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::PrepareAndExecute;
using testing_util::Q;

using ScoreMap = std::map<std::vector<Value>, double>;

ScoreMap ToMap(const std::vector<RankedAnswer>& answers) {
  ScoreMap m;
  for (const auto& a : answers) m[a.tuple] = a.score;
  return m;
}

void ExpectSameScores(const ScoreMap& a, const ScoreMap& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first) << label;
    EXPECT_NEAR(ia->second, ib->second, 1e-9) << label;
  }
}

void ExpectDominates(const ScoreMap& hi, const ScoreMap& lo,
                     const std::string& label) {
  ASSERT_EQ(hi.size(), lo.size()) << label;
  for (const auto& [tuple, s] : hi) {
    auto it = lo.find(tuple);
    ASSERT_NE(it, lo.end()) << label;
    EXPECT_GE(s, it->second - 1e-9) << label;
  }
}

TEST(OptEquivalenceTest, AllCombinationsConsistentOnRandomInstances) {
  Rng rng(31337);
  RandomQuerySpec qspec;
  qspec.max_atoms = 4;
  qspec.max_vars = 4;
  RandomInstanceSpec ispec;
  ispec.max_rows = 4;
  ispec.deterministic_prob = 0.25;
  int checked = 0;
  for (int trial = 0; trial < 100; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    Database db = RandomDatabaseFor(q, &rng, ispec);

    // Family A: single plan (Opt. 1) with all other toggles.
    ScoreMap single;
    bool have_single = false;
    for (bool opt2 : {false, true}) {
      for (bool opt3 : {false, true}) {
        for (bool dr : {false, true}) {
          PropagationOptions opts;
          opts.opt1_single_plan = true;
          opts.opt2_reuse_subplans = opt2;
          opts.opt3_semijoin_reduction = opt3;
          opts.enum_opts.use_deterministic = dr;
          QueryEngine engine = QueryEngine::Borrow(db, {.propagation = opts});
          auto res = PrepareAndExecute(engine, q);
          ASSERT_TRUE(res.ok()) << q.ToString() << res.status().ToString();
          auto scores = ToMap(res->answers);
          if (!have_single) {
            single = scores;
            have_single = true;
          } else {
            ExpectSameScores(single, scores,
                             q.ToString() +
                                 StrFormat(" single opt2=%d opt3=%d dr=%d",
                                           opt2, opt3, dr));
          }
        }
      }
    }

    // Family B: all minimal plans evaluated separately.
    ScoreMap allplans;
    bool have_all = false;
    for (bool opt3 : {false, true}) {
      for (bool dr : {false, true}) {
        PropagationOptions opts;
        opts.opt1_single_plan = false;
        opts.opt3_semijoin_reduction = opt3;
        opts.enum_opts.use_deterministic = dr;
        QueryEngine engine = QueryEngine::Borrow(db, {.propagation = opts});
        auto res = PrepareAndExecute(engine, q);
        ASSERT_TRUE(res.ok()) << q.ToString();
        auto scores = ToMap(res->answers);
        if (!have_all) {
          allplans = scores;
          have_all = true;
        } else {
          ExpectSameScores(allplans, scores,
                           q.ToString() +
                               StrFormat(" all opt3=%d dr=%d", opt3, dr));
        }
      }
    }

    // Cross-family: single-plan min is at least as tight, and both are
    // upper bounds on the exact probability.
    ExpectDominates(allplans, single, q.ToString() + " all >= single");
    auto exact = ExactProbabilities(db, q);
    ASSERT_TRUE(exact.ok());
    ExpectDominates(single, ToMap(*exact), q.ToString() + " single >= exact");
    ++checked;
  }
  EXPECT_EQ(checked, 100);
}

TEST(OptEquivalenceTest, ChainQueryFamiliesConsistent) {
  for (int k : {2, 3, 4, 5}) {
    ChainSpec spec;
    spec.k = k;
    spec.n = 60;
    spec.seed = 1000 + k;
    Database db = MakeChainDatabase(spec);
    ConjunctiveQuery q = MakeChainQuery(k);

    PropagationOptions all_plans;
    all_plans.opt1_single_plan = false;
    QueryEngine all_plans_engine =
        QueryEngine::Borrow(db, {.propagation = all_plans});
    auto base = PrepareAndExecute(all_plans_engine, q);
    ASSERT_TRUE(base.ok());
    auto ref = ToMap(base->answers);

    ScoreMap first_single;
    bool have = false;
    for (bool opt2 : {false, true}) {
      for (bool opt3 : {false, true}) {
        PropagationOptions opts;
        opts.opt1_single_plan = true;
        opts.opt2_reuse_subplans = opt2;
        opts.opt3_semijoin_reduction = opt3;
        QueryEngine engine = QueryEngine::Borrow(db, {.propagation = opts});
        auto res = PrepareAndExecute(engine, q);
        ASSERT_TRUE(res.ok());
        auto scores = ToMap(res->answers);
        if (!have) {
          first_single = scores;
          have = true;
        } else {
          ExpectSameScores(first_single, scores,
                           StrFormat("chain k=%d opt2=%d opt3=%d", k, opt2,
                                     opt3));
        }
      }
    }
    ExpectDominates(ref, first_single, StrFormat("chain k=%d all>=single", k));
  }
}

TEST(OptEquivalenceTest, StarQueryFamiliesConsistent) {
  for (int k : {2, 3}) {
    StarSpec spec;
    spec.k = k;
    spec.n = 50;
    spec.seed = 2000 + k;
    Database db = MakeStarDatabase(spec);
    ConjunctiveQuery q = MakeStarQuery(k);

    PropagationOptions all_plans;
    all_plans.opt1_single_plan = false;
    QueryEngine all_plans_engine =
        QueryEngine::Borrow(db, {.propagation = all_plans});
    auto base = PrepareAndExecute(all_plans_engine, q);
    ASSERT_TRUE(base.ok());

    PropagationOptions all_plans_sj = all_plans;
    all_plans_sj.opt3_semijoin_reduction = true;
    QueryEngine all_plans_sj_engine =
        QueryEngine::Borrow(db, {.propagation = all_plans_sj});
    auto base_sj = PrepareAndExecute(all_plans_sj_engine, q);
    ASSERT_TRUE(base_sj.ok());
    ExpectSameScores(ToMap(base->answers), ToMap(base_sj->answers),
                     StrFormat("star k=%d opt3", k));

    PropagationOptions fast;  // opt1+2+3
    fast.opt3_semijoin_reduction = true;
    QueryEngine fast_engine = QueryEngine::Borrow(db, {.propagation = fast});
    auto res = PrepareAndExecute(fast_engine, q);
    ASSERT_TRUE(res.ok());
    ExpectDominates(ToMap(base->answers), ToMap(res->answers),
                    StrFormat("star k=%d all>=single", k));

    // For k=2 there are no nested min operators, so the values coincide.
    if (k == 2) {
      ExpectSameScores(ToMap(base->answers), ToMap(res->answers), "star k=2");
    }
  }
}

TEST(OptEquivalenceTest, Opt2ReducesEvaluatedNodes) {
  // For a 5-chain the single plan has heavy subplan sharing: the DAG
  // evaluator must evaluate strictly fewer nodes than the expanded tree.
  ChainSpec spec;
  spec.k = 5;
  spec.n = 40;
  Database db = MakeChainDatabase(spec);
  ConjunctiveQuery q = MakeChainQuery(5);

  PropagationOptions with;
  with.opt2_reuse_subplans = true;
  QueryEngine with_engine = QueryEngine::Borrow(db, {.propagation = with});
  auto a = PrepareAndExecute(with_engine, q);
  ASSERT_TRUE(a.ok());

  PropagationOptions without;
  without.opt2_reuse_subplans = false;
  QueryEngine without_engine =
      QueryEngine::Borrow(db, {.propagation = without});
  auto b = PrepareAndExecute(without_engine, q);
  ASSERT_TRUE(b.ok());

  EXPECT_LT(a->nodes_evaluated, b->nodes_evaluated);
  ExpectSameScores(ToMap(a->answers), ToMap(b->answers), "opt2");
}

TEST(OptEquivalenceTest, DrKnowledgeKeepsScoresForSafePart) {
  // With a deterministic relation the DR-aware plan set is smaller but the
  // propagation score must not change (Lemma 22 guarantees the dropped
  // plans were redundant). The query's sub-structures have single min-cuts,
  // so the single-plan value coincides with the plan minimum here.
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.4}, {{2}, 0.7}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.6}, {{2, 4}, 0.5}, {{2, 5}, 0.3}});
  AddTable(&db, "T", 1, {{{4}, 1.0}, {{5}, 1.0}}, /*deterministic=*/true);

  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());

  PropagationOptions with_dr;
  QueryEngine with_dr_engine =
      QueryEngine::Borrow(db, {.propagation = with_dr});
  auto a = PrepareAndExecute(with_dr_engine, q);
  ASSERT_TRUE(a.ok());
  auto a_plans = EnumerateMinimalPlans(q, *sk, with_dr.enum_opts);
  ASSERT_TRUE(a_plans.ok());
  EXPECT_EQ(a_plans->size(), 1u);

  PropagationOptions without_dr;
  without_dr.enum_opts.use_deterministic = false;
  QueryEngine without_dr_engine =
      QueryEngine::Borrow(db, {.propagation = without_dr});
  auto b = PrepareAndExecute(without_dr_engine, q);
  ASSERT_TRUE(b.ok());
  auto b_plans = EnumerateMinimalPlans(q, *sk, without_dr.enum_opts);
  ASSERT_TRUE(b_plans.ok());
  EXPECT_EQ(b_plans->size(), 2u);

  ExpectSameScores(ToMap(a->answers), ToMap(b->answers), "dr");
}

}  // namespace
}  // namespace dissodb
