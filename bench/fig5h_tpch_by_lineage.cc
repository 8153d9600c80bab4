// Figure 5h: TPC-H method runtimes as a function of the maximum lineage
// size (combining the 5e-5g parameter settings into one series).
//
// Paper shape: exact inference blows up with lineage size; MC grows
// linearly with a large constant; dissociation grows slowly and its best
// variant tracks deterministic SQL within a small factor.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5h: TPC-H runtime vs max lineage size\n\n");
  TpchOptions opts;
  opts.scale = 0.1 * BenchScale();
  Database db = MakeTpchDatabase(opts);
  ConjunctiveQuery q = TpchQuery();
  int64_t suppliers = static_cast<int64_t>(
      (*db.snapshot().GetTable("Supplier"))->NumRows());

  std::vector<TpchRun> runs;
  for (const char* pat : {"%red%green%", "%red%", "%"}) {
    for (double frac : {0.25, 1.0}) {
      int64_t dollar1 = static_cast<int64_t>(suppliers * frac);
      runs.push_back(RunTpchMethods(db, q, dollar1, pat,
                                    /*wmc_budget=*/500000));
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const TpchRun& a, const TpchRun& b) {
              return a.max_lineage < b.max_lineage;
            });
  PrintHeader({"maxlin", "$2", "Diss", "Diss+Opt3", "Exact", "MC(1k)",
               "Lineage", "SQL"});
  for (const auto& r : runs) {
    PrintRow({std::to_string(r.max_lineage), r.dollar2, FmtMs(r.diss_ms),
              FmtMs(r.diss_opt3_ms), FmtMs(r.exact_ms), FmtMs(r.mc1k_ms),
              FmtMs(r.lineage_ms), FmtMs(r.sql_ms)});
  }
  std::printf("\n('Exact' = our WMC engine standing in for SampleSearch; "
              "n/a = budget exceeded)\n");
  return 0;
}
