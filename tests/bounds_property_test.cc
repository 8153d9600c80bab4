// The project's strongest cross-validation suite. On random queries and
// random small instances:
//  (1) Corollary 19: every plan's score upper-bounds the exact probability;
//  (2) Definition 14 / Theorem 20: the propagation score equals the
//      brute-force minimum over ALL safe dissociations, where each
//      P(q^Delta) is computed independently by materializing D^Delta and
//      running exact WMC on its lineage;
//  (3) Proposition 6: safe queries are computed exactly by their unique plan;
//  (4) Theorem 18(2): score(P^Delta) == P(q^Delta) for every safe Delta;
//  (5) Proposition 21: the relative error vanishes as probabilities scale
//      down.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/dissociation/counting.h"
#include "src/dissociation/lattice.h"
#include "src/dissociation/minimal_plans.h"
#include "src/dissociation/propagation.h"
#include "src/engine/query_engine.h"
#include "src/exec/evaluator.h"
#include "src/infer/query_inference.h"
#include "src/workload/random_instance.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::PrepareAndExecute;
using testing_util::Q;

std::map<std::vector<Value>, double> ToMap(
    const std::vector<RankedAnswer>& answers) {
  std::map<std::vector<Value>, double> m;
  for (const auto& a : answers) m[a.tuple] = a.score;
  return m;
}

TEST(BoundsPropertyTest, EveryPlanUpperBoundsExactProbability) {
  Rng rng(20150601);
  RandomQuerySpec qspec;
  qspec.max_atoms = 4;
  qspec.max_vars = 4;
  int plans_checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 10) continue;
    Database db = RandomDatabaseFor(q, &rng);
    auto exact = ExactProbabilities(db, q);
    ASSERT_TRUE(exact.ok()) << q.ToString();
    auto exact_map = ToMap(*exact);

    auto plans = EnumerateAllPlans(q);
    ASSERT_TRUE(plans.ok()) << q.ToString();
    for (const auto& plan : *plans) {
      auto scores = PlanScore(db, q, plan);
      ASSERT_TRUE(scores.ok()) << q.ToString();
      auto score_map = ToMap(*scores);
      ASSERT_EQ(score_map.size(), exact_map.size()) << q.ToString();
      for (const auto& [tuple, p] : exact_map) {
        auto it = score_map.find(tuple);
        ASSERT_NE(it, score_map.end()) << q.ToString();
        EXPECT_GE(it->second, p - 1e-9) << q.ToString();
        ++plans_checked;
      }
    }
  }
  EXPECT_GE(plans_checked, 200);
}

TEST(BoundsPropertyTest, PropagationEqualsBruteForceLatticeMinimum) {
  Rng rng(918273);
  RandomQuerySpec qspec;
  qspec.max_atoms = 3;
  qspec.max_vars = 4;
  RandomInstanceSpec ispec;
  ispec.max_rows = 3;
  ispec.domain = 2;
  int checked = 0;
  for (int trial = 0; trial < 40 && checked < 15; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 6) continue;
    if (!q.IsBoolean()) continue;  // keep the brute force manageable
    Database db = RandomDatabaseFor(q, &rng, ispec);

    // Brute force: min over all safe dissociations of P(q^Delta), each
    // computed by materializing D^Delta and running exact WMC.
    auto safe = EnumerateSafeDissociations(q);
    ASSERT_TRUE(safe.ok());
    double best = 2.0;
    for (const auto& d : *safe) {
      auto mat = MaterializeDissociation(db, q, d);
      ASSERT_TRUE(mat.ok()) << q.ToString();
      auto p = ExactProbabilities(mat->db, mat->query);
      ASSERT_TRUE(p.ok());
      double prob = p->empty() ? 0.0 : (*p)[0].score;
      best = std::min(best, prob);
    }

    QueryEngine engine = QueryEngine::Borrow(db);
    auto res = PrepareAndExecute(engine, q);
    ASSERT_TRUE(res.ok()) << q.ToString();
    // No answer: the query is unsatisfiable and rho(q) = 0.
    const double rho = res->answers.empty() ? 0.0 : res->answers[0].score;
    EXPECT_NEAR(rho, best, 1e-9) << q.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(BoundsPropertyTest, Theorem18ScoreMatchesMaterializedDissociation) {
  Rng rng(555777);
  RandomQuerySpec qspec;
  qspec.max_atoms = 3;
  qspec.max_vars = 4;
  RandomInstanceSpec ispec;
  ispec.max_rows = 3;
  ispec.domain = 2;
  int checked = 0;
  for (int trial = 0; trial < 40 && checked < 12; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 6) continue;
    Database db = RandomDatabaseFor(q, &rng, ispec);
    auto safe = EnumerateSafeDissociations(q);
    ASSERT_TRUE(safe.ok());
    for (const auto& d : *safe) {
      auto plan = SafePlanForDissociation(q, d);
      ASSERT_TRUE(plan.ok()) << q.ToString();
      auto scores = PlanScore(db, q, *plan);
      ASSERT_TRUE(scores.ok());

      auto mat = MaterializeDissociation(db, q, d);
      ASSERT_TRUE(mat.ok());
      auto exact = ExactProbabilities(mat->db, mat->query);
      ASSERT_TRUE(exact.ok());

      auto score_map = ToMap(*scores);
      auto exact_map = ToMap(*exact);
      // Some answers may be missing from one side only if score is 0.
      for (const auto& [tuple, p] : exact_map) {
        auto it = score_map.find(tuple);
        ASSERT_NE(it, score_map.end());
        EXPECT_NEAR(it->second, p, 1e-9)
            << q.ToString() << " " << d.ToString(q);
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 8);
}

TEST(BoundsPropertyTest, SafeQueriesComputedExactly) {
  Rng rng(246810);
  RandomQuerySpec qspec;
  qspec.max_atoms = 4;
  qspec.max_vars = 4;
  int safe_seen = 0;
  for (int trial = 0; trial < 150 && safe_seen < 25; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (!IsHierarchical(q)) continue;
    ++safe_seen;
    Database db = RandomDatabaseFor(q, &rng);
    QueryEngine engine = QueryEngine::Borrow(db);
    auto res = PrepareAndExecute(engine, q);
    ASSERT_TRUE(res.ok());
    auto is_safe = IsSafeQuery(q, SchemaKnowledge::None(q));
    ASSERT_TRUE(is_safe.ok());
    EXPECT_TRUE(*is_safe) << q.ToString();
    auto exact = ExactProbabilities(db, q);
    ASSERT_TRUE(exact.ok());
    auto a = ToMap(res->answers);
    auto b = ToMap(*exact);
    ASSERT_EQ(a.size(), b.size()) << q.ToString();
    for (const auto& [tuple, p] : b) {
      EXPECT_NEAR(a[tuple], p, 1e-9) << q.ToString();
    }
  }
  EXPECT_GE(safe_seen, 25);
}

TEST(BoundsPropertyTest, Proposition21RelativeErrorVanishes) {
  // Scaling all probabilities by f -> 0 drives rho/P -> 1.
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Rng rng(11235);
  Database db;
  {
    Table r(RelationSchema::AllInt64("R", 1));
    Table s(RelationSchema::AllInt64("S", 2));
    Table t(RelationSchema::AllInt64("T", 1));
    for (int i = 0; i < 4; ++i) {
      r.AddRow({Value::Int64(i)}, 0.9);
      t.AddRow({Value::Int64(i)}, 0.9);
      for (int j = 0; j < 4; ++j) {
        s.AddRow({Value::Int64(i), Value::Int64(j)}, 0.9);
      }
    }
    ASSERT_TRUE(db.AddTable(std::move(r)).ok());
    ASSERT_TRUE(db.AddTable(std::move(s)).ok());
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  }
  double prev_rel_err = 1e9;
  // Start below the saturation regime: with f close to 1 the answer
  // probability is ~1 and both bounds collapse, masking the trend.
  for (double f : {0.3, 0.1, 0.03, 0.01}) {
    Database scaled = db.Clone();
    scaled.ScaleProbabilities(f);
    QueryEngine engine = QueryEngine::Borrow(scaled);
    auto rho = PrepareAndExecute(engine, q);
    auto exact = ExactProbabilities(scaled, q);
    ASSERT_TRUE(rho.ok());
    ASSERT_EQ(rho->answers.size(), 1u);
    ASSERT_TRUE(exact.ok());
    double p = (*exact)[0].score;
    ASSERT_GT(p, 0.0);
    double rel_err = (rho->answers[0].score - p) / p;
    EXPECT_GE(rel_err, -1e-9);         // upper bound
    EXPECT_LE(rel_err, prev_rel_err + 1e-12);  // decreasing in f
    prev_rel_err = rel_err;
  }
  EXPECT_LT(prev_rel_err, 0.01);  // nearly exact at f = 0.01
}

TEST(BoundsPropertyTest, MinimalPlansSufficeForTheMinimum) {
  // The min over minimal plans equals the min over ALL plans (monotonicity
  // along the dissociation order, Corollary 16).
  Rng rng(777);
  RandomQuerySpec qspec;
  qspec.max_atoms = 3;
  qspec.max_vars = 4;
  int checked = 0;
  for (int trial = 0; trial < 40 && checked < 15; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 8) continue;
    Database db = RandomDatabaseFor(q, &rng);
    auto all = EnumerateAllPlans(q);
    ASSERT_TRUE(all.ok());
    auto minimal = EnumerateMinimalPlans(q);
    ASSERT_TRUE(minimal.ok());
    ASSERT_LE(minimal->size(), all->size());

    auto min_over = [&](const std::vector<PlanPtr>& plans) {
      std::map<std::vector<Value>, double> best;
      for (const auto& p : plans) {
        auto scores = PlanScore(db, q, p);
        EXPECT_TRUE(scores.ok());
        for (const auto& a : *scores) {
          auto it = best.find(a.tuple);
          if (it == best.end()) {
            best[a.tuple] = a.score;
          } else {
            it->second = std::min(it->second, a.score);
          }
        }
      }
      return best;
    };
    auto a = min_over(*all);
    auto b = min_over(*minimal);
    ASSERT_EQ(a.size(), b.size()) << q.ToString();
    for (const auto& [tuple, score] : a) {
      EXPECT_NEAR(b[tuple], score, 1e-9) << q.ToString();
    }
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

}  // namespace
}  // namespace dissodb
