// Figure 5j: ranking quality as a function of the average answer
// probability avg[pa] of the top-10 answers.
//
// Paper shape: MC degrades towards the random baseline (0.22) when answer
// probabilities approach 0 or 1 (the top answers become statistically
// indistinguishable); dissociation and the true ranking are unaffected.
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5j: MAP@10 vs avg[pa] of the top-10 answers\n\n");
  ConjunctiveQuery q = TpchQuery();

  struct Bucket {
    MeanStd diss, lin, mc100, mc1k;
    int n = 0;
  };
  std::map<int, Bucket> buckets;  // keyed by -log10(1 - avg[pa]) style bins

  auto bucket_of = [](double pa) {
    if (pa < 0.5) return 0;
    if (pa < 0.9) return 1;
    if (pa < 0.99) return 2;
    return 3;
  };
  const char* bucket_names[] = {"<0.5", "0.5-0.9", "0.9-0.99", ">0.99"};

  for (double pi_max : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      TpchOptions o;
      o.scale = 0.04 * BenchScale();
      o.seed = seed;
      o.pi_max = pi_max;
      Database db = MakeTpchDatabase(o);
      int64_t suppliers = static_cast<int64_t>(
          (*db.snapshot().GetTable("Supplier"))->NumRows());
      auto sel = MakeTpchSelections(db, suppliers, "%red%");
      auto lineage = ComputeLineage(db.snapshot(), q, (*sel)->overrides);
      if (!lineage.ok()) continue;
      auto exact = ExactFromLineage(*lineage);
      if (!exact.ok()) continue;
      size_t top = std::min<size_t>(10, exact->size());
      if (top < 5) continue;
      double avg_pa = 0;
      for (size_t i = 0; i < top; ++i) avg_pa += (*exact)[i].score;
      avg_pa /= top;
      if ((*exact)[0].score > 0.999999) continue;  // paper's filter

      Bucket& b = buckets[bucket_of(avg_pa)];
      ++b.n;
      QueryEngine engine = QueryEngine::Borrow(db);
      auto diss = ExecuteWithSelections(engine, q, **sel);
      b.diss.Add(ApAgainst(*exact, diss->answers));
      b.lin.Add(ApAgainst(*exact, LineageSizeRanking(*lineage)));
      for (int rep = 0; rep < 3; ++rep) {
        Rng r1(seed * 100 + rep), r2(seed * 100 + 50 + rep);
        b.mc100.Add(ApAgainst(*exact, McFromLineage(*lineage, 100, &r1)));
        b.mc1k.Add(ApAgainst(*exact, McFromLineage(*lineage, 1000, &r2)));
      }
    }
  }

  PrintHeader({"avg[pa]", "runs", "Diss", "MC(100)", "MC(1k)", "Lineage"});
  for (const auto& [key, b] : buckets) {
    PrintRow({bucket_names[key], std::to_string(b.n), Fmt(b.diss.mean()),
              Fmt(b.mc100.mean()), Fmt(b.mc1k.mean()), Fmt(b.lin.mean())});
  }
  std::printf("\n(paper: MC approaches the 0.22 random baseline as avg[pa] "
              "-> 1; dissociation stays high)\n");
  return 0;
}
