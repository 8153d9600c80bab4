// Figure 5k: quality of ranking by lineage size, for constant vs random
// input probabilities, as lineages grow.
//
// Paper shape: with pi = const the lineage size nearly determines the
// ranking (MAP close to 1); with random probabilities (avg[pi] = const)
// lineage size is a poor proxy (MAP around 0.5-0.7), largely independent of
// the lineage magnitude.
#include <cstdio>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5k: lineage-size ranking quality\n\n");
  ConjunctiveQuery q = TpchQuery();
  TpchOptions o;
  o.scale = 0.04 * BenchScale();
  Database base = MakeTpchDatabase(o);
  int64_t suppliers =
      static_cast<int64_t>((*base.snapshot().GetTable("Supplier"))->NumRows());

  struct Config {
    const char* label;
    bool constant;
    double pi;
  };
  // pi = 0.5 saturates the answer probabilities for the larger lineages
  // (the paper filters those runs out too), so 0.3 is the upper level here.
  const Config configs[] = {
      {"pi=0.1", true, 0.1},
      {"pi=0.3", true, 0.3},
      {"avg[pi]=0.1", false, 0.2},
      {"avg[pi]=0.3", false, 0.6},
  };

  PrintHeader({"config", "maxlin", "MAP(lineage)", "MAP(diss)"}, 14);
  for (const auto& cfg : configs) {
    for (double frac : {0.3, 1.0}) {
      MeanStd lin_ap, diss_ap;
      size_t maxlin = 0;
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        Database db = base.Clone();
        if (cfg.constant) {
          AssignConstantProbabilities(&db, cfg.pi);
        } else {
          AssignUniformProbabilities(&db, cfg.pi, seed);
        }
        auto sel = MakeTpchSelections(
            db, static_cast<int64_t>(suppliers * frac), "%red%");
        auto lineage = ComputeLineage(db.snapshot(), q, (*sel)->overrides);
        if (!lineage.ok()) continue;
        auto exact = ExactFromLineage(*lineage);
        if (!exact.ok()) continue;
        if (!exact->empty() && (*exact)[0].score > 0.999999) continue;
        maxlin = std::max(maxlin, MaxLineageSize(*lineage));
        lin_ap.Add(ApAgainst(*exact, LineageSizeRanking(*lineage)));
        QueryEngine engine = QueryEngine::Borrow(db);
        auto diss = ExecuteWithSelections(engine, q, **sel);
        diss_ap.Add(ApAgainst(*exact, diss->answers));
        if (cfg.constant) break;  // constant pi: ranking is deterministic
      }
      if (lin_ap.count() == 0) continue;
      PrintRow({cfg.label, std::to_string(maxlin), Fmt(lin_ap.mean()),
                Fmt(diss_ap.mean())},
               14);
    }
  }
  std::printf("\n(paper: lineage ranking is good only when all tuples share "
              "one probability)\n");
  return 0;
}
