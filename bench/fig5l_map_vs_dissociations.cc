// Figure 5l: dissociation ranking quality as a function of the average
// number of dissociations per tuple (avg[d]) for several input-probability
// levels avg[pi].
//
// Workload: controlled 3-chain q(a) :- A(a,x), B(x,y), C(y) where every x
// has exactly `fanout` y-partners. Following the paper, each data point
// ranks by ONE plan (here the plan that dissociates A on y, whose
// dissociation degree is exactly the fanout), not by the min of both plans.
//
// Paper shape: MAP decreases with avg[d] and with avg[pi]; it stays high
// when either is small.
#include <cstdio>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5l: MAP@10 vs avg[d], per avg[pi] level\n\n");
  ConjunctiveQuery q = Q3Chain();

  PrintHeader({"fanout", "avg[d]", "avg[pi]=0.05", "avg[pi]=0.15",
               "avg[pi]=0.25", "avg[pi]=0.5"}, 13);
  for (int fanout : {1, 2, 3, 4, 5}) {
    std::vector<std::string> row = {std::to_string(fanout)};
    double avg_d = 0;
    bool have_d = false;
    for (double avg_pi : {0.05, 0.15, 0.25, 0.5}) {
      MeanStd ap;
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        FanoutSpec spec;
        spec.fanout = fanout;
        spec.pi_max = 2 * avg_pi;  // uniform [0, 2*avg] has mean avg
        spec.seed = seed;
        Database db = MakeFanoutDatabase(spec);
        auto lineage = ComputeLineage(db.snapshot(), q);
        if (!lineage.ok()) continue;
        if (!have_d) {
          // avg[d] of the A-dissociating plan: copies of each A-tuple =
          // distinct y-partners = the fanout.
          avg_d = MeanDissociationDegree(*lineage, /*atom_idx=*/0);
          have_d = true;
        }
        auto exact = ExactFromLineage(*lineage);
        if (!exact.ok()) continue;
        auto plans = EnumerateMinimalPlans(q);
        PlanPtr plan_a;
        for (const auto& p : *plans) {
          if (ExtractDissociation(p, q).extra[0] != 0) plan_a = p;
        }
        auto scores = PlanScore(db, q, plan_a);
        ap.Add(ApAgainst(*exact, *scores));
      }
      row.push_back(Fmt(ap.mean()));
    }
    row.insert(row.begin() + 1, Fmt(avg_d));
    PrintRow(row, 13);
  }
  std::printf("\n(paper: quality drops with avg[d] mostly at high avg[pi]; "
              "for small probabilities dissociation stays near 1)\n");
  return 0;
}
