// Plan evaluation tests, including the paper's worked Example 17 with its
// exact probabilities 83/512, 169/1024 and 353/2048.
#include <gtest/gtest.h>

#include "src/dissociation/dissociation.h"
#include "src/dissociation/minimal_plans.h"
#include "src/engine/query_engine.h"
#include "src/exec/deterministic.h"
#include "src/exec/evaluator.h"
#include "src/infer/query_inference.h"
#include "src/lift/safe_plan.h"
#include "src/serve/result_cache.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::PrepareAndExecute;
using testing_util::Q;
using testing_util::Vars;

/// The Example 17 database: R = T = U = {1,2}, S = {(1,1),(1,2),(2,2)},
/// all probabilities 1/2.
Database Example17Database() {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "T", 2, {{{1, 1}, 0.5}, {{1, 2}, 0.5}, {{2, 2}, 0.5}});
  AddTable(&db, "U", 1, {{{1}, 0.5}, {{2}, 0.5}});
  return db;
}

ConjunctiveQuery Example17Query() {
  return Q("q() :- R(x), S(x), T(x,y), U(y)");
}

TEST(Example17Test, ExactProbabilityIs83Over512) {
  Database db = Example17Database();
  auto q = Example17Query();
  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->size(), 1u);
  EXPECT_NEAR((*exact)[0].score, 83.0 / 512.0, 1e-12);
}

TEST(Example17Test, MinimalDissociationScores) {
  Database db = Example17Database();
  auto q = Example17Query();
  // Delta3 = U^x: probability 169/1024. Delta4 = R^y,S^y: 353/2048.
  Dissociation d3 = Dissociation::Empty(q);
  d3.extra[3] = Vars(q, {"x"});
  auto p3 = SafePlanForDissociation(q, d3);
  ASSERT_TRUE(p3.ok());
  PlanEvaluator ev3(db.snapshot(), q);
  auto r3 = ev3.Evaluate(*p3);
  ASSERT_TRUE(r3.ok());
  ASSERT_EQ((*r3)->NumRows(), 1u);
  EXPECT_NEAR((*r3)->Score(0), 169.0 / 1024.0, 1e-12);

  Dissociation d4 = Dissociation::Empty(q);
  d4.extra[0] = Vars(q, {"y"});
  d4.extra[1] = Vars(q, {"y"});
  auto p4 = SafePlanForDissociation(q, d4);
  ASSERT_TRUE(p4.ok());
  PlanEvaluator ev4(db.snapshot(), q);
  auto r4 = ev4.Evaluate(*p4);
  ASSERT_TRUE(r4.ok());
  ASSERT_EQ((*r4)->NumRows(), 1u);
  EXPECT_NEAR((*r4)->Score(0), 353.0 / 2048.0, 1e-12);
}

TEST(Example17Test, PropagationScoreIsMinOfMinimalPlans) {
  Database db = Example17Database();
  auto q = Example17Query();
  QueryEngine engine = QueryEngine::Borrow(db);
  auto rho = PrepareAndExecute(engine, q);
  ASSERT_TRUE(rho.ok()) << rho.status().ToString();
  ASSERT_EQ(rho->answers.size(), 1u);
  // min(169/1024, 353/2048)
  EXPECT_NEAR(rho->answers[0].score, 169.0 / 1024.0, 1e-12);
  // And both bounds are above the exact probability.
  EXPECT_GT(rho->answers[0].score, 83.0 / 512.0);
}

TEST(Example17Test, Theorem18ScoreEqualsDissociatedProbability) {
  // score(P^Delta) computed on D equals P(q^Delta) computed by exact WMC on
  // the materialized D^Delta (Theorem 18(2)).
  Database db = Example17Database();
  auto q = Example17Query();
  for (int which : {3, 4}) {
    Dissociation d = Dissociation::Empty(q);
    if (which == 3) {
      d.extra[3] = Vars(q, {"x"});
    } else {
      d.extra[0] = Vars(q, {"y"});
      d.extra[1] = Vars(q, {"y"});
    }
    auto plan = SafePlanForDissociation(q, d);
    ASSERT_TRUE(plan.ok());
    PlanEvaluator ev(db.snapshot(), q);
    auto score = ev.Evaluate(*plan);
    ASSERT_TRUE(score.ok());

    auto mat = MaterializeDissociation(db, q, d);
    ASSERT_TRUE(mat.ok());
    auto exact = ExactProbabilities(mat->db, mat->query);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(exact->size(), 1u);
    EXPECT_NEAR((*score)->Score(0), (*exact)[0].score, 1e-10) << which;
  }
}

TEST(EvaluatorTest, SafePlanComputesExactProbability) {
  // Safe query: the unique plan's score equals the exact probability
  // (Proposition 6).
  auto q = Q("q() :- R(x), S(x,y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.3}, {{2}, 0.6}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{1, 5}, 0.2}, {{2, 4}, 0.9}});
  auto plans = EnumerateMinimalPlans(q);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 1u);
  PlanEvaluator ev(db.snapshot(), q);
  auto rel = ev.Evaluate((*plans)[0]);
  ASSERT_TRUE(rel.ok());
  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ((*rel)->NumRows(), 1u);
  EXPECT_NEAR((*rel)->Score(0), (*exact)[0].score, 1e-12);
}

TEST(EvaluatorTest, CacheSharesDagNodes) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 2}, 0.5}});
  AddTable(&db, "T", 1, {{{2}, 0.5}});
  lift::LiftOptions opts;
  opts.reuse_common_subplans = true;
  auto sk = SchemaKnowledge::None(q);
  auto lifted = lift::CompileSafePlan(q, sk, opts);
  ASSERT_TRUE(lifted.ok());
  PlanEvaluator ev(db.snapshot(), q);
  auto rel = ev.Evaluate(lifted->plan);
  ASSERT_TRUE(rel.ok());
  PlanSize sz = MeasurePlan(lifted->plan);
  EXPECT_EQ(ev.nodes_evaluated(), sz.dag_nodes);
  EXPECT_LE(sz.dag_nodes, sz.tree_nodes);
}

TEST(EvaluatorTest, NonBooleanAnswersPerHeadValue) {
  auto q = Q("q(z) :- R(z,x), S(x,y), T(y)");
  Database db;
  AddTable(&db, "R", 2, {{{10, 1}, 0.5}, {{20, 2}, 0.7}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{2, 4}, 0.5}});
  AddTable(&db, "T", 1, {{{4}, 0.9}});
  QueryEngine engine = QueryEngine::Borrow(db);
  auto res = PrepareAndExecute(engine, q);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->answers.size(), 2u);
  auto plans = EnumerateMinimalPlans(q);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 2u);
  // Exact per-answer probabilities (each answer's lineage is a single path):
  // z=10: 0.5*0.5*0.9; z=20: 0.7*0.5*0.9. Single-term lineages are exact.
  for (const auto& a : res->answers) {
    double expected = a.tuple[0] == Value::Int64(10) ? 0.5 * 0.5 * 0.9
                                                     : 0.7 * 0.5 * 0.9;
    EXPECT_NEAR(a.score, expected, 1e-12);
  }
}

TEST(LaneEvalTest, Lane2EvaluationIsRefusedAResultCache) {
  // Lane-2 scores are part of no fingerprint: an evaluator holding both a
  // result cache and lane-2 weights must fail before touching the cache.
  Database db = Example17Database();
  auto q = Example17Query();
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());
  auto lifted = lift::CompileSafePlan(q, *sk);
  ASSERT_TRUE(lifted.ok());
  const Snapshot snap = db.snapshot();

  std::vector<WeightsPtr> lane2(q.num_atoms());
  lane2[0] = std::make_shared<WeightColumn>(std::vector<double>{0.25, 0.25});
  ResultCache cache(16);
  PlanEvaluator ev(snap, q);
  ev.SetResultCache(&cache, snap.version());
  ev.SetLane2Weights(lane2);
  auto refused = ev.Evaluate(lifted->plan);
  EXPECT_FALSE(refused.ok());
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.in_flight_waits, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // Without the cache the same evaluation runs, and lane 2 differs from
  // lane 1 only where the rescaled atom R contributes.
  PlanEvaluator lanes(snap, q);
  lanes.SetLane2Weights(lane2);
  auto rel = lanes.Evaluate(lifted->plan);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_NE((*rel)->lane2(), nullptr);
  EXPECT_LT((*(*rel)->lane2())[0], (*rel)->Score(0));
}

TEST(DeterministicEvalTest, DistinctAnswers) {
  auto q = Q("q(z) :- R(z,x), S(x,y), T(y)");
  Database db;
  AddTable(&db, "R", 2, {{{10, 1}, 0.5}, {{10, 2}, 0.5}, {{20, 3}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{2, 4}, 0.5}});
  AddTable(&db, "T", 1, {{{4}, 0.9}});
  auto rel = EvaluateDeterministic(db.snapshot(), q);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 1u);  // only z=10 joins all the way
  EXPECT_EQ(rel->At(0, 0), Value::Int64(10));
}

TEST(DeterministicEvalTest, BooleanEmptyWhenNoMatch) {
  auto q = Q("q() :- R(x), S(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "S", 1, {{{2}, 0.5}});
  auto rel = EvaluateDeterministic(db.snapshot(), q);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 0u);
}

}  // namespace
}  // namespace dissodb
