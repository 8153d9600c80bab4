// Figure 5i: ranking quality (MAP@10) of Monte Carlo as a function of the
// number of samples, against the dissociation and lineage-size reference
// lines.
//
// Paper shape: MC climbs from ~0.47 (10 samples) towards ~0.96 (10k
// samples); dissociation sits at ~0.998 — above MC even at 10k samples —
// and ranking by lineage size is far below (~0.52).
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5i: MAP@10 vs number of MC samples "
              "($2='%%red%%green%%')\n\n");
  TpchOptions opts;
  opts.scale = 0.05 * BenchScale();
  ConjunctiveQuery q = TpchQuery();

  const std::vector<size_t> sample_counts = {10, 30, 100, 300, 1000, 3000};
  std::vector<MeanStd> mc_ap(sample_counts.size());
  MeanStd diss_ap, lin_ap;

  int runs = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    TpchOptions o = opts;
    o.seed = seed;
    o.pi_max = 0.5;
    Database db = MakeTpchDatabase(o);
    int64_t suppliers =
        static_cast<int64_t>((*db.snapshot().GetTable("Supplier"))->NumRows());
    auto sel = MakeTpchSelections(db, suppliers * 4 / 5, "%red%green%");
    auto lineage = ComputeLineage(db.snapshot(), q, (*sel)->overrides);
    if (!lineage.ok()) continue;
    auto exact = ExactFromLineage(*lineage);
    if (!exact.ok()) continue;

    // The paper restricts MC's comparison to the regime where the top-10
    // answer probabilities are not saturated (0.1 < avg[pa] < 0.9).
    double avg_pa = 0;
    size_t top = std::min<size_t>(10, exact->size());
    for (size_t i = 0; i < top; ++i) avg_pa += (*exact)[i].score;
    avg_pa /= top ? top : 1;
    if (avg_pa < 0.05 || avg_pa > 0.95) continue;
    ++runs;

    QueryEngine engine = QueryEngine::Borrow(db);
    auto diss = ExecuteWithSelections(engine, q, **sel);
    diss_ap.Add(ApAgainst(*exact, diss->answers));
    lin_ap.Add(ApAgainst(*exact, LineageSizeRanking(*lineage)));
    for (size_t si = 0; si < sample_counts.size(); ++si) {
      for (int rep = 0; rep < 3; ++rep) {
        Rng rng(seed * 1000 + si * 10 + rep);
        auto mc = McFromLineage(*lineage, sample_counts[si], &rng);
        mc_ap[si].Add(ApAgainst(*exact, mc));
      }
    }
  }

  PrintHeader({"method", "MAP@10", "stddev"});
  for (size_t si = 0; si < sample_counts.size(); ++si) {
    PrintRow({"MC(" + std::to_string(sample_counts[si]) + ")",
              Fmt(mc_ap[si].mean()), Fmt(mc_ap[si].stddev())});
  }
  PrintRow({"Dissociation", Fmt(diss_ap.mean()), Fmt(diss_ap.stddev())});
  PrintRow({"LineageSize", Fmt(lin_ap.mean()), Fmt(lin_ap.stddev())});
  std::printf("\n(%d runs; paper: MC(10)=0.472 ... MC(10k)=0.964, "
              "Diss=0.998, lineage=0.515)\n", runs);
  return 0;
}
