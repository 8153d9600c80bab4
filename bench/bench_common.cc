#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace dissodb {
namespace bench {

double BenchScale() {
  const char* s = std::getenv("DISSODB_BENCH_SCALE");
  if (!s) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

double TimeMs(const std::function<void()>& fn, double min_ms, int max_reps,
              int min_reps) {
  fn();  // warm-up: untimed; pages faulted in, caches and scratch primed
  double best = 1e300;
  double total = 0;
  for (int rep = 0; rep < max_reps; ++rep) {
    Timer t;
    fn();
    double ms = t.ElapsedMillis();
    best = std::min(best, ms);
    total += ms;
    if (total >= min_ms && rep + 1 >= min_reps) break;
  }
  return best;
}

void PrintHeader(const std::vector<std::string>& cols, int width) {
  for (const auto& c : cols) std::printf("%*s", width, c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < cols.size(); ++i) {
    for (int j = 0; j < width; ++j) std::printf("-");
  }
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const auto& c : cells) std::printf("%*s", width, c.c_str());
  std::printf("\n");
}

std::string Fmt(double v) { return StrFormat("%.3f", v); }

std::string FmtMs(double ms) {
  if (ms < 0) return "n/a";
  if (ms < 10) return StrFormat("%.2fms", ms);
  if (ms < 10000) return StrFormat("%.0fms", ms);
  return StrFormat("%.1fs", ms / 1000.0);
}

namespace {

struct BenchRecord {
  std::string op;
  size_t rows;
  double ns_per_row;
};

std::vector<BenchRecord>& BenchRecords() {
  static std::vector<BenchRecord> records;
  return records;
}

}  // namespace

void BenchJsonRecord(const std::string& op, size_t rows, double ns_per_row) {
  BenchRecords().push_back(BenchRecord{op, rows, ns_per_row});
}

void BenchJsonWrite(const std::string& bench_name) {
  std::string path = "BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"bench\": \"%s\", \"results\": [\n", bench_name.c_str());
  const auto& records = BenchRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f, "  {\"op\": \"%s\", \"rows\": %zu, \"ns_per_row\": %.3f}%s\n",
                 records[i].op.c_str(), records[i].rows, records[i].ns_per_row,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu results)\n", path.c_str(), records.size());
  BenchRecords().clear();
}

MethodTiming TimeAllMethods(const Database& db, const ConjunctiveQuery& q,
                            bool skip_all_plans) {
  MethodTiming out;
  const Snapshot snap = db.snapshot();
  auto sk = SchemaKnowledge::FromSnapshot(q, snap);
  {
    auto plans = EnumerateMinimalPlans(q, *sk);
    out.num_plans = plans->size();
  }

  // Each strategy runs through the QueryEngine facade; the first repetition
  // compiles the plan (cache miss), later repetitions measure cached-plan
  // vectorized evaluation — the engine's steady-state serving path.
  auto run = [&](bool opt1, bool opt2, bool opt3) {
    EngineOptions eo;
    eo.propagation.opt1_single_plan = opt1;
    eo.propagation.opt2_reuse_subplans = opt2;
    eo.propagation.opt3_semijoin_reduction = opt3;
    QueryEngine engine = QueryEngine::Borrow(db, eo);
    return TimeMs([&] {
      auto prepared = engine.Prepare(q);
      if (!prepared.ok()) return;
      auto res = engine.Execute(*prepared);
      if (res.ok()) out.num_answers = res->answers.size();
    });
  };

  if (!skip_all_plans) {
    out.all_plans_ms = run(false, false, false);
  }
  out.opt1_ms = run(true, false, false);
  out.opt12_ms = run(true, true, false);
  out.opt123_ms = run(true, true, true);
  out.standard_sql_ms = TimeMs([&] {
    auto res = EvaluateDeterministic(snap, q);
    (void)res;
  });
  return out;
}

Result<QueryResult> ExecuteWithSelections(QueryEngine& engine,
                                          const ConjunctiveQuery& q,
                                          const TpchSelections& sel) {
  auto prepared = engine.Prepare(q);
  if (!prepared.ok()) return prepared.status();
  Bindings bindings;
  for (const auto& [idx, table] : sel.overrides) {
    bindings.SetAtomTable(idx, table);
  }
  return engine.Execute(*prepared, bindings);
}

TpchRun RunTpchMethods(const Database& db, const ConjunctiveQuery& q,
                       int64_t dollar1, const std::string& dollar2,
                       size_t wmc_budget) {
  TpchRun out;
  out.dollar1 = dollar1;
  out.dollar2 = dollar2;
  const Snapshot snap = db.snapshot();

  // Selections are part of each measured query (the paper's WHERE clauses).
  QueryEngine engine = QueryEngine::Borrow(db);
  EngineOptions eo3;
  eo3.propagation.opt3_semijoin_reduction = true;
  QueryEngine engine_opt3 = QueryEngine::Borrow(db, eo3);
  out.diss_ms = TimeMs([&] {
    auto sel = MakeTpchSelections(db, dollar1, dollar2);
    // Two minimal plans, Opt. 1+2.
    auto res = ExecuteWithSelections(engine, q, **sel);
    if (res.ok()) out.answers = res->answers.size();
  });
  out.diss_opt3_ms = TimeMs([&] {
    auto sel = MakeTpchSelections(db, dollar1, dollar2);
    auto res = ExecuteWithSelections(engine_opt3, q, **sel);
    (void)res;
  });
  out.sql_ms = TimeMs([&] {
    auto sel = MakeTpchSelections(db, dollar1, dollar2);
    auto res = EvaluateDeterministic(snap, q, (*sel)->overrides);
    (void)res;
  });
  out.lineage_ms = TimeMs([&] {
    auto sel = MakeTpchSelections(db, dollar1, dollar2);
    auto lin = ComputeLineage(snap, q, (*sel)->overrides);
    if (lin.ok()) out.max_lineage = MaxLineageSize(*lin);
  });

  // Exact WMC (SampleSearch substitute) and MC(1k) reuse one lineage.
  auto sel = MakeTpchSelections(db, dollar1, dollar2);
  auto lin = ComputeLineage(snap, q, (*sel)->overrides);
  if (lin.ok()) {
    {
      Timer t;
      WmcOptions wo;
      wo.max_calls = wmc_budget;
      auto exact = ExactFromLineage(*lin, wo);
      if (exact.ok()) out.exact_ms = out.lineage_ms + t.ElapsedMillis();
    }
    {
      Timer t;
      Rng rng(7);
      auto mc = McFromLineage(*lin, 1000, &rng);
      (void)mc;
      out.mc1k_ms = out.lineage_ms + t.ElapsedMillis();
    }
  }
  return out;
}

Database MakeFanoutDatabase(const FanoutSpec& spec) {
  Database db;
  Rng rng(spec.seed);
  auto prob = [&] {
    return spec.const_pi ? spec.pi_max : rng.NextDouble() * spec.pi_max;
  };
  Table a(RelationSchema::AllInt64("A", 2));
  Table b(RelationSchema::AllInt64("B", 2));
  Table c(RelationSchema::AllInt64("C", 1));
  std::vector<bool> c_added(spec.y_domain + 1, false);
  int64_t next_x = 1;
  for (int ans = 1; ans <= spec.num_answers; ++ans) {
    int suppliers = 1 + static_cast<int>(rng.NextBounded(
                            2 * spec.suppliers_per_answer - 1));
    for (int s = 0; s < suppliers; ++s) {
      int64_t x = next_x++;
      a.AddRow({Value::Int64(ans), Value::Int64(x)}, prob());
      // `fanout` distinct y partners per x.
      std::vector<bool> used(spec.y_domain + 1, false);
      for (int f = 0; f < spec.fanout; ++f) {
        int64_t y;
        int attempts = 0;
        do {
          y = rng.NextInt(1, spec.y_domain);
        } while (used[y] && ++attempts < 64);
        if (used[y]) break;
        used[y] = true;
        b.AddRow({Value::Int64(x), Value::Int64(y)}, prob());
        if (!c_added[y]) {
          c_added[y] = true;
          c.AddRow({Value::Int64(y)}, prob());
        }
      }
    }
  }
  (void)db.AddTable(std::move(a));
  (void)db.AddTable(std::move(b));
  (void)db.AddTable(std::move(c));
  return db;
}

ConjunctiveQuery Q3Chain() {
  auto q = ParseQuery("q(a) :- A(a,x), B(x,y), C(y)");
  return *q;
}

double MeanDissociationDegree(const LineageResult& lineage, int atom_idx,
                              size_t top_answers) {
  double total = 0;
  size_t n = 0;
  for (const auto& al : lineage.answers) {
    if (n >= top_answers) break;
    double d = lineage.MeanDistinctTuplesOfAtom(al, atom_idx);
    if (d > 0) {
      total += d;
      ++n;
    }
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

double ApAgainst(const std::vector<RankedAnswer>& exact,
                 const std::vector<RankedAnswer>& scores) {
  auto gt = AlignScores(exact, exact);
  auto sys = AlignScores(exact, scores);
  return AveragePrecisionAtK(gt, sys);
}

}  // namespace bench
}  // namespace dissodb
