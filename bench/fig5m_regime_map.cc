// Figure 5m: the regime map — where dissociation beats MC(x) in the
// (avg[d], avg[pi]) plane.
//
// Paper shape: MC wins only in a small region with both many dissociations
// per tuple AND large input probabilities; everywhere else (and always for
// small probabilities) dissociation is better — while being orders of
// magnitude faster.
#include <cstdio>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5m: dissociation vs MC in the (avg[d], avg[pi]) "
              "plane\n\n");
  ConjunctiveQuery q = Q3Chain();
  const size_t mc_samples[] = {100, 1000, 3000};

  for (size_t samples : mc_samples) {
    std::printf("MC(%zu): cell = winner (D = dissociation, M = MC, "
                "~ = within 0.01)\n", samples);
    PrintHeader({"avg[pi] \\ d", "d~1", "d~2", "d~3", "d~4", "d~5"}, 12);
    for (double avg_pi : {0.05, 0.15, 0.25, 0.35, 0.5}) {
      std::vector<std::string> row = {StrFormat("%.2f", avg_pi)};
      for (int fanout : {1, 2, 3, 4, 5}) {
        MeanStd diss_ap, mc_ap;
        for (uint64_t seed = 1; seed <= 4; ++seed) {
          FanoutSpec spec;
          spec.fanout = fanout;
          spec.pi_max = 2 * avg_pi;
          spec.seed = seed;
          Database db = MakeFanoutDatabase(spec);
          auto lineage = ComputeLineage(db.snapshot(), q);
          if (!lineage.ok()) continue;
          auto exact = ExactFromLineage(*lineage);
          if (!exact.ok()) continue;
          // Per-plan ranking as in Figure 5l: the plan with avg[d]~fanout.
          auto plans = EnumerateMinimalPlans(q);
          PlanPtr plan_a;
          for (const auto& p : *plans) {
            if (ExtractDissociation(p, q).extra[0] != 0) plan_a = p;
          }
          auto scores = PlanScore(db, q, plan_a);
          diss_ap.Add(ApAgainst(*exact, *scores));
          for (int rep = 0; rep < 2; ++rep) {
            Rng rng(seed * 37 + rep);
            mc_ap.Add(ApAgainst(*exact,
                                McFromLineage(*lineage, samples, &rng)));
          }
        }
        double delta = diss_ap.mean() - mc_ap.mean();
        row.push_back(delta > 0.01 ? "D" : (delta < -0.01 ? "M" : "~"));
      }
      PrintRow(row, 12);
    }
    std::printf("\n");
  }
  std::printf("(paper: MC(1k) wins only above a frontier of large avg[d] "
              "AND large avg[pi])\n");
  return 0;
}
