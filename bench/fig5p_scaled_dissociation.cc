// Figure 5p: dissociation on scaled databases.
//
// Paper shape: as f -> 0, (i) dissociation w.r.t. the scaled ground truth
// -> 1 (Proposition 21); (ii) dissociation on the scaled database w.r.t.
// the ORIGINAL ground truth decreases towards the scaled-GT-vs-GT curve —
// i.e. the expected quality floor of dissociation is ranking by relative
// input weights, not random.
#include <cstdio>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5p: scaled dissociation (avg[pi]=0.5, avg[d]~3)\n\n");
  ConjunctiveQuery q = Q3Chain();

  PrintHeader({"f", "SDiss~SGT", "SDiss~GT", "SGT~GT", "Lin~SGT"}, 13);
  for (double f : {1.0, 0.5, 0.2, 0.05, 0.01}) {
    MeanStd sdiss_sgt, sdiss_gt, sgt_gt, lin_sgt;
    for (uint64_t seed = 1; seed <= 7; ++seed) {
      FanoutSpec spec;
      spec.fanout = 3;
      spec.pi_max = 1.0;
      spec.seed = seed;
      Database db = MakeFanoutDatabase(spec);
      auto gt = ExactProbabilities(db, q);
      if (!gt.ok()) continue;
      Database scaled = db.Clone();
      scaled.ScaleProbabilities(f);
      auto lineage = ComputeLineage(scaled.snapshot(), q);
      if (!lineage.ok()) continue;
      auto sgt = ExactFromLineage(*lineage);
      if (!sgt.ok()) continue;
      QueryEngine engine = QueryEngine::Borrow(scaled);
      auto prepared = engine.Prepare(q);
      if (!prepared.ok()) continue;
      auto sdiss = engine.Execute(*prepared);
      sdiss_sgt.Add(ApAgainst(*sgt, sdiss->answers));
      sdiss_gt.Add(ApAgainst(*gt, sdiss->answers));
      sgt_gt.Add(ApAgainst(*gt, *sgt));
      lin_sgt.Add(ApAgainst(*sgt, LineageSizeRanking(*lineage)));
    }
    PrintRow({StrFormat("%.2f", f), Fmt(sdiss_sgt.mean()),
              Fmt(sdiss_gt.mean()), Fmt(sgt_gt.mean()), Fmt(lin_sgt.mean())},
             13);
  }
  std::printf("\n(paper: Scaled-Diss w.r.t. Scaled-GT -> 1 as f -> 0; "
              "Scaled-Diss w.r.t. GT -> Scaled-GT w.r.t. GT)\n");
  return 0;
}
