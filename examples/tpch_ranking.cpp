// The paper's Section 5 scenario: rank 25 nations by the probability that
// they supply a part whose name matches a pattern, on an uncertain TPC-H
// style database.
//
//   $ ./tpch_ranking [scale] [$1] [$2]
//   $ ./tpch_ranking 0.05 400 '%red%green%'
//
// Compares four rankings: dissociation (propagation score), exact
// probabilities (ground truth, when feasible), Monte Carlo, and the
// non-probabilistic lineage-size baseline — and reports AP@10 for each.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/dissodb.h"

using namespace dissodb;  // NOLINT: example brevity

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  int64_t dollar1 = argc > 2 ? std::atoll(argv[2]) : 400;
  std::string dollar2 = argc > 3 ? argv[3] : "%red%green%";

  TpchOptions opts;
  opts.scale = scale;
  opts.pi_max = 0.4;
  std::printf("generating TPC-H-like database at scale %.3f ...\n", scale);
  Database db = MakeTpchDatabase(opts);
  const Snapshot snap = db.snapshot();
  std::printf("  Supplier: %zu rows, Partsupp: %zu rows, Part: %zu rows\n",
              (*snap.GetTable("Supplier"))->NumRows(),
              (*snap.GetTable("Partsupp"))->NumRows(),
              (*snap.GetTable("Part"))->NumRows());

  ConjunctiveQuery q = TpchQuery();
  std::printf("query: %s  with s_suppkey <= %lld and p_name like '%s'\n\n",
              q.ToString().c_str(), static_cast<long long>(dollar1),
              dollar2.c_str());

  auto sel = MakeTpchSelections(db, dollar1, dollar2);
  if (!sel.ok()) {
    std::printf("%s\n", sel.status().ToString().c_str());
    return 1;
  }
  const auto& overrides = (*sel)->overrides;

  // Dissociation with all optimizations, through the engine facade. The
  // selections bind the filtered tables in place of their atoms' tables.
  EngineOptions eopts;
  eopts.propagation.opt3_semijoin_reduction = true;
  QueryEngine engine = QueryEngine::Borrow(db, eopts);
  Bindings selections;
  for (const auto& [idx, table] : overrides) {
    selections.SetAtomTable(idx, table);
  }
  auto run = [&] {
    auto prepared = engine.Prepare(q);
    return prepared.ok() ? engine.Execute(*prepared, selections)
                         : Result<QueryResult>(prepared.status());
  };
  Timer timer;
  auto diss = run();
  double t_diss = timer.ElapsedMillis();
  timer.Reset();
  auto warm = run();  // compiled plan now cached
  double t_warm = timer.ElapsedMillis();
  (void)warm;
  // The engine compiles one min-plan (Opt. 1); Algorithm 1 counts the
  // minimal plans it stands for.
  auto sk = SchemaKnowledge::FromSnapshot(q, snap);
  auto plans = EnumerateMinimalPlans(q, *sk);
  std::printf("dissociation (%zu minimal plans): %.1f ms cold, %.1f ms with "
              "cached plan\n",
              plans.ok() ? plans->size() : size_t{0}, t_diss, t_warm);
  std::printf("top nations by propagation score:\n%s\n",
              RankingToString(diss->answers, snap, 5).c_str());

  // Lineage, exact ground truth and MC.
  timer.Reset();
  auto lineage = ComputeLineage(snap, q, overrides);
  double t_lin = timer.ElapsedMillis();
  std::printf("lineage query: %.1f ms, max lineage size = %zu\n", t_lin,
              MaxLineageSize(*lineage));

  timer.Reset();
  auto exact = ExactFromLineage(*lineage);
  if (!exact.ok()) {
    std::printf("exact inference infeasible within budget (%s); "
                "the dissociation ranking above still stands.\n",
                exact.status().ToString().c_str());
    return 0;
  }
  std::printf("exact WMC (ground truth): %.1f ms\n", timer.ElapsedMillis());

  timer.Reset();
  Rng rng(42);
  auto mc = McFromLineage(*lineage, 1000, &rng);
  std::printf("MC(1000): %.1f ms\n", timer.ElapsedMillis());
  auto lin_rank = LineageSizeRanking(*lineage);

  auto gt = AlignScores(*exact, *exact);
  std::printf("\nranking quality (AP@10 against exact ground truth):\n");
  std::printf("  dissociation      %.4f\n",
              AveragePrecisionAtK(gt, AlignScores(*exact, diss->answers)));
  std::printf("  MC(1000)          %.4f\n",
              AveragePrecisionAtK(gt, AlignScores(*exact, mc)));
  std::printf("  lineage size      %.4f\n",
              AveragePrecisionAtK(gt, AlignScores(*exact, lin_rank)));
  std::printf("  random baseline   %.4f\n",
              RandomBaselineAP(exact->size()));
  return 0;
}
