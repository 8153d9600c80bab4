// Figure 5g: TPC-H query runtime vs $1, with $2 = '%' (no name selection).
//
// Paper shape: the largest lineages — exact inference becomes infeasible
// ("n/a" below, like the paper's missing SampleSearch points); MC is slow;
// dissociation stays within a small factor of deterministic SQL and the
// semi-join reduction no longer helps (everything joins).
#include <cstdio>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5g: TPC-H runtime, $2 = '%%'\n\n");
  TpchOptions opts;
  opts.scale = 0.1 * BenchScale();
  Database db = MakeTpchDatabase(opts);
  ConjunctiveQuery q = TpchQuery();
  int64_t suppliers = static_cast<int64_t>(
      (*db.snapshot().GetTable("Supplier"))->NumRows());
  std::printf("scale %.3f: %lld suppliers\n\n", opts.scale,
              static_cast<long long>(suppliers));
  PrintHeader({"$1", "maxlin", "Diss", "Diss+Opt3", "Exact", "MC(1k)",
               "Lineage", "SQL"});
  for (double frac : {0.1, 0.25, 0.5, 1.0}) {
    int64_t dollar1 = static_cast<int64_t>(suppliers * frac);
    // Tight WMC budget: with '%' the lineage treewidth explodes and the
    // paper could not compute ground truth either.
    TpchRun r = RunTpchMethods(db, q, dollar1, "%", /*wmc_budget=*/200000);
    PrintRow({std::to_string(dollar1), std::to_string(r.max_lineage),
              FmtMs(r.diss_ms), FmtMs(r.diss_opt3_ms), FmtMs(r.exact_ms),
              FmtMs(r.mc1k_ms), FmtMs(r.lineage_ms), FmtMs(r.sql_ms)});
  }
  return 0;
}
