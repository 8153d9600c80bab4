// End-to-end integration tests: the TPC-H scenario (Setup 1) with ranking
// quality, plus the full facade on paper queries.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/dissociation/minimal_plans.h"
#include "src/engine/query_engine.h"
#include "src/exec/deterministic.h"
#include "src/infer/query_inference.h"
#include "src/metrics/ap.h"
#include "src/plan/plan_print.h"
#include "src/plan/sql_gen.h"
#include "src/workload/tpch.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::PrepareAndExecute;
using testing_util::Q;

/// The TPC-H selections as untagged atom bindings.
Bindings SelectionBindings(const TpchSelections& sel) {
  Bindings bindings;
  for (const auto& [idx, table] : sel.overrides) {
    bindings.SetAtomTable(idx, table);
  }
  return bindings;
}

std::vector<double> Align(const std::vector<RankedAnswer>& ref,
                          const std::vector<RankedAnswer>& scores) {
  return AlignScores(ref, scores);
}

TEST(TpchIntegrationTest, DissociationRanksAlmostExactly) {
  TpchOptions opts;
  opts.scale = 0.05;  // 500 suppliers, 10000 parts
  opts.pi_max = 0.4;
  Database db = MakeTpchDatabase(opts);
  ConjunctiveQuery q = TpchQuery();
  auto sel = MakeTpchSelections(db, 400, "%red%green%");
  ASSERT_TRUE(sel.ok());
  const auto& overrides = (*sel)->overrides;

  auto exact = ExactProbabilities(db, q, overrides);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_GT(exact->size(), 3u);

  EngineOptions eo;
  eo.propagation.opt3_semijoin_reduction = true;
  QueryEngine engine = QueryEngine::Borrow(db, eo);
  auto diss = PrepareAndExecute(engine, q, SelectionBindings(**sel));
  ASSERT_TRUE(diss.ok());
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());
  auto plans = EnumerateMinimalPlans(q, *sk, eo.propagation.enum_opts);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 2u);

  auto gt_scores = Align(*exact, *exact);
  auto diss_scores = Align(*exact, diss->answers);
  double ap = AveragePrecisionAtK(gt_scores, diss_scores);
  EXPECT_GT(ap, 0.95);  // the paper reports ~0.997 MAP for dissociation

  // Upper-bound property per answer.
  for (size_t i = 0; i < exact->size(); ++i) {
    EXPECT_GE(diss_scores[i], gt_scores[i] - 1e-9);
  }
}

TEST(TpchIntegrationTest, DissociationBeatsLineageRanking) {
  TpchOptions opts;
  opts.scale = 0.02;
  opts.pi_max = 0.5;
  opts.seed = 7;
  Database db = MakeTpchDatabase(opts);
  ConjunctiveQuery q = TpchQuery();
  auto sel = MakeTpchSelections(db, 150, "%red%");
  ASSERT_TRUE(sel.ok());
  const auto& overrides = (*sel)->overrides;

  auto lineage = ComputeLineage(db.snapshot(), q, overrides);
  ASSERT_TRUE(lineage.ok());
  auto exact = ExactFromLineage(*lineage);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();

  QueryEngine engine = QueryEngine::Borrow(db);
  auto diss = PrepareAndExecute(engine, q, SelectionBindings(**sel));
  ASSERT_TRUE(diss.ok());
  auto lin_rank = LineageSizeRanking(*lineage);

  auto gt = Align(*exact, *exact);
  double ap_diss = AveragePrecisionAtK(gt, Align(*exact, diss->answers));
  double ap_lin = AveragePrecisionAtK(gt, Align(*exact, lin_rank));
  EXPECT_GE(ap_diss, ap_lin);
  EXPECT_GT(ap_diss, 0.9);
}

TEST(TpchIntegrationTest, DeterministicAnswersMatchProbabilisticSupport) {
  TpchOptions opts;
  opts.scale = 0.01;
  Database db = MakeTpchDatabase(opts);
  ConjunctiveQuery q = TpchQuery();
  auto sel = MakeTpchSelections(db, 50, "%red%");
  ASSERT_TRUE(sel.ok());
  auto det = EvaluateDeterministic(db.snapshot(), q, (*sel)->overrides);
  ASSERT_TRUE(det.ok());
  QueryEngine engine = QueryEngine::Borrow(db);
  auto diss = PrepareAndExecute(engine, q, SelectionBindings(**sel));
  ASSERT_TRUE(diss.ok());
  EXPECT_EQ(det->NumRows(), diss->answers.size());
}

TEST(TpchIntegrationTest, McRanksWorseOrEqualWithFewSamples) {
  TpchOptions opts;
  opts.scale = 0.01;
  opts.pi_max = 0.4;
  Database db = MakeTpchDatabase(opts);
  ConjunctiveQuery q = TpchQuery();
  auto sel = MakeTpchSelections(db, 100, "%red%green%");
  ASSERT_TRUE(sel.ok());
  auto lineage = ComputeLineage(db.snapshot(), q, (*sel)->overrides);
  ASSERT_TRUE(lineage.ok());
  auto exact = ExactFromLineage(*lineage);
  ASSERT_TRUE(exact.ok());
  auto gt = Align(*exact, *exact);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto diss = PrepareAndExecute(engine, q, SelectionBindings(**sel));
  ASSERT_TRUE(diss.ok());
  double ap_diss = AveragePrecisionAtK(gt, Align(*exact, diss->answers));

  // MC(10) is noisy; average its AP over repetitions (as the paper does).
  MeanStd mc_ap;
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng(1000 + rep);
    auto mc = McFromLineage(*lineage, 10, &rng);
    mc_ap.Add(AveragePrecisionAtK(gt, Align(*exact, mc)));
  }
  EXPECT_GE(ap_diss + 1e-9, mc_ap.mean());
}

TEST(FacadeTest, SqlGenerationForMinimalPlans) {
  Database db = MakeTpchDatabase({.scale = 0.005});
  ConjunctiveQuery q = TpchQuery();
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());
  auto plans = EnumerateMinimalPlans(q, *sk);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 2u);
  for (const auto& p : *plans) {
    std::string sql = PlanToSql(p, q, db);
    EXPECT_NE(sql.find("Supplier"), std::string::npos);
    EXPECT_NE(sql.find("Partsupp"), std::string::npos);
    EXPECT_NE(sql.find("Part"), std::string::npos);
    std::string printed = PlanToString(p, q);
    EXPECT_FALSE(printed.empty());
  }
}

TEST(FacadeTest, UnsatisfiableBooleanQueryHasNoAnswer) {
  auto q = Q("q() :- R(x), S(x)");
  Database db;
  testing_util::AddTable(&db, "R", 1, {{{1}, 0.5}});
  testing_util::AddTable(&db, "S", 1, {{{2}, 0.5}});
  QueryEngine engine = QueryEngine::Borrow(db);
  auto rho = PrepareAndExecute(engine, q);
  ASSERT_TRUE(rho.ok());
  EXPECT_TRUE(rho->answers.empty());
}

}  // namespace
}  // namespace dissodb
