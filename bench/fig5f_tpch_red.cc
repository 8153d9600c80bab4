// Figure 5f: TPC-H query runtime vs $1, with $2 = '%red%'.
//
// Paper shape: medium lineages — exact inference starts to fall behind;
// the semi-join reduction's advantage shrinks (more tuples participate).
#include <cstdio>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

int main() {
  std::printf("Figure 5f: TPC-H runtime, $2 = '%%red%%'\n\n");
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
    TpchRun r = RunTpchMethods(db, q, dollar1, "%red%");
    PrintRow({std::to_string(dollar1), std::to_string(r.max_lineage),
              FmtMs(r.diss_ms), FmtMs(r.diss_opt3_ms), FmtMs(r.exact_ms),
              FmtMs(r.mc1k_ms), FmtMs(r.lineage_ms), FmtMs(r.sql_ms)});
  }
  return 0;
}
