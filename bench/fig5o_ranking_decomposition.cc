// Figure 5o: decomposition of ranking quality — how much of the exact
// ranking is explained by (a) lineage size alone, (b) lineage size plus the
// relative weights of the input tuples (= the exact ranking on an
// infinitesimally scaled database), and (c) the actual probabilities.
//
// Paper numbers: random baseline 0.220; lineage size 0.515 (38% of the
// span); relative input weights 0.879 (85%); exact 1.0 (100%).
#include <cstdio>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5o: what explains the probabilistic ranking "
              "(avg[pi]=0.5, avg[d]~3)\n\n");
  ConjunctiveQuery q = Q3Chain();

  MeanStd lin_ap, weights_ap;
  size_t num_answers = 0;
  for (uint64_t seed = 1; seed <= 7; ++seed) {
    FanoutSpec spec;
    spec.fanout = 3;
    spec.pi_max = 1.0;  // avg[pi] = 0.5
    spec.seed = seed;
    Database db = MakeFanoutDatabase(spec);
    auto lineage = ComputeLineage(db.snapshot(), q);
    if (!lineage.ok()) continue;
    auto gt = ExactFromLineage(*lineage);
    if (!gt.ok()) continue;
    num_answers = gt->size();
    lin_ap.Add(ApAgainst(*gt, LineageSizeRanking(*lineage)));
    // "Relative input weights": the exact ranking after scaling all
    // probabilities close to zero (f = 0.01).
    Database scaled = db.Clone();
    scaled.ScaleProbabilities(0.01);
    auto scaled_gt = ExactProbabilities(scaled, q);
    if (scaled_gt.ok()) weights_ap.Add(ApAgainst(*gt, *scaled_gt));
  }

  double random_ap = RandomBaselineAP(num_answers ? num_answers : 25);
  double span = 1.0 - random_ap;
  auto pct = [&](double ap) {
    return StrFormat("%.0f%%", 100.0 * (ap - random_ap) / span);
  };

  PrintHeader({"ranking method", "MAP@10", "of span"}, 26);
  PrintRow({"random baseline", Fmt(random_ap), "0%"}, 26);
  PrintRow({"lineage size", Fmt(lin_ap.mean()), pct(lin_ap.mean())}, 26);
  PrintRow({"relative input weights", Fmt(weights_ap.mean()),
            pct(weights_ap.mean())}, 26);
  PrintRow({"exact probabilities", "1.000", "100%"}, 26);
  std::printf("\n(paper: 0.220 / 0.515 -> 38%% / 0.879 -> 85%% / 1.0)\n");
  return 0;
}
