// google-benchmark microbenchmarks of the engine primitives: scans, hash
// joins, independent projections, cut enumeration, plan construction and
// exact WMC. These are the building blocks whose costs the figure benches
// aggregate.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <tuple>

#include "bench/bench_common.h"

using namespace dissodb;        // NOLINT
using namespace dissodb::bench; // NOLINT

namespace {

/// A size-n k-chain database; `domain` 0 auto-tunes the value domain (about
/// 3e10 at 1M rows, so joins and groupings over it hash their keys).
Database* ChainDb(int k, size_t n, int64_t domain = 0) {
  static std::map<std::tuple<int, size_t, int64_t>, std::unique_ptr<Database>>
      cache;
  auto key = std::make_tuple(k, n, domain);
  auto it = cache.find(key);
  if (it == cache.end()) {
    ChainSpec spec;
    spec.k = k;
    spec.n = n;
    spec.domain = domain;
    spec.seed = 999;
    it = cache.emplace(key, std::make_unique<Database>(MakeChainDatabase(spec)))
             .first;
  }
  return it->second.get();
}

void BM_ScanAtom(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database* db = ChainDb(2, n);
  const Snapshot snap = db->snapshot();
  ConjunctiveQuery q = MakeChainQuery(2);
  for (auto _ : state) {
    auto rel = ScanAtom(snap, q, 0);
    benchmark::DoNotOptimize(rel->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScanAtom)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_HashJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database* db = ChainDb(2, n);
  const Snapshot snap = db->snapshot();
  ConjunctiveQuery q = MakeChainQuery(2);
  auto left = ScanAtom(snap, q, 0);
  auto right = ScanAtom(snap, q, 1);
  for (auto _ : state) {
    Rel out = HashJoin(*left, *right);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_ProjectIndependent(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database* db = ChainDb(2, n);
  const Snapshot snap = db->snapshot();
  ConjunctiveQuery q = MakeChainQuery(2);
  auto rel = ScanAtom(snap, q, 0);
  VarMask keep = MaskOf(q.FindVar("x0"));
  for (auto _ : state) {
    Rel out = ProjectIndependent(*rel, keep);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProjectIndependent)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_MinCutsChain(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeChainQuery(k);
  SchemaKnowledge none = SchemaKnowledge::None(q);
  auto atoms = MakeWorkAtoms(q, none);
  for (auto _ : state) {
    auto cuts = MinCuts(atoms, q.EVarMask());
    benchmark::DoNotOptimize(cuts->size());
  }
}
BENCHMARK(BM_MinCutsChain)->Arg(4)->Arg(8);

void BM_EnumerateMinimalPlans(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeChainQuery(k);
  for (auto _ : state) {
    auto plans = EnumerateMinimalPlans(q);
    benchmark::DoNotOptimize(plans->size());
  }
}
BENCHMARK(BM_EnumerateMinimalPlans)->Arg(4)->Arg(6)->Arg(8);

void BM_BuildSinglePlan(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeChainQuery(k);
  SchemaKnowledge none = SchemaKnowledge::None(q);
  for (auto _ : state) {
    auto lifted = lift::CompileSafePlan(q, none);
    benchmark::DoNotOptimize(lifted->plan.get());
  }
}
BENCHMARK(BM_BuildSinglePlan)->Arg(4)->Arg(8);

void BM_ExactWmcLadder(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Dnf f;
  for (int i = 0; i < n; ++i) f.probs.push_back(0.5);
  for (int i = 0; i + 2 < n; ++i) f.terms.push_back({i, i + 1, i + 2});
  for (auto _ : state) {
    auto p = ExactDnfProbability(f);
    benchmark::DoNotOptimize(*p);
  }
}
BENCHMARK(BM_ExactWmcLadder)->Arg(16)->Arg(64);

void BM_NaiveMc(benchmark::State& state) {
  Dnf f;
  for (int i = 0; i < 64; ++i) f.probs.push_back(0.3);
  for (int i = 0; i + 2 < 64; ++i) f.terms.push_back({i, i + 1, i + 2});
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveDnfEstimate(f, 1000, &rng));
  }
}
BENCHMARK(BM_NaiveMc);

void BM_PropagationChain4(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database* db = ChainDb(4, n);
  ConjunctiveQuery q = MakeChainQuery(4);
  EngineOptions eo;
  eo.plan_cache_capacity = 0;  // a one-shot engine compiles every time
  for (auto _ : state) {
    QueryEngine engine = QueryEngine::Borrow(*db, eo);
    auto prepared = engine.Prepare(q);
    auto res = engine.Execute(*prepared);
    benchmark::DoNotOptimize(res->answers.size());
  }
}
BENCHMARK(BM_PropagationChain4)->Arg(1000)->Arg(10000);

void BM_EngineCachedQuery(benchmark::State& state) {
  // Steady-state facade path: parse + plan-cache hit + vectorized eval.
  size_t n = static_cast<size_t>(state.range(0));
  Database* db = ChainDb(4, n);
  QueryEngine engine = QueryEngine::Borrow(*db);
  ConjunctiveQuery q = MakeChainQuery(4);
  for (auto _ : state) {
    auto prepared = engine.Prepare(q);
    auto res = engine.Execute(*prepared);
    benchmark::DoNotOptimize(res->answers.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineCachedQuery)->Arg(1000)->Arg(10000);

/// One timed operator pass over a size-n 2-chain database, shared by the
/// JSON capture cases below.
double MeasureScanMs(size_t n) {
  Database* db = ChainDb(2, n);
  const Snapshot snap = db->snapshot();
  ConjunctiveQuery q = MakeChainQuery(2);
  return TimeMs([&] {
    auto rel = ScanAtom(snap, q, 0);
    benchmark::DoNotOptimize(rel->NumRows());
  });
}

double TimeJoinMs(size_t n, int64_t domain) {
  Database* db = ChainDb(2, n, domain);
  const Snapshot snap = db->snapshot();
  ConjunctiveQuery q = MakeChainQuery(2);
  auto left = ScanAtom(snap, q, 0);
  auto right = ScanAtom(snap, q, 1);
  return TimeMs([&] {
    Rel out = HashJoin(*left, *right);
    benchmark::DoNotOptimize(out.NumRows());
  });
}

double TimeProjectMs(size_t n, int64_t domain) {
  Database* db = ChainDb(2, n, domain);
  const Snapshot snap = db->snapshot();
  ConjunctiveQuery q = MakeChainQuery(2);
  auto rel = ScanAtom(snap, q, 0);
  VarMask keep = MaskOf(q.FindVar("x0"));
  return TimeMs([&] {
    Rel out = ProjectIndependent(*rel, keep);
    benchmark::DoNotOptimize(out.NumRows());
  });
}

double MeasureJoinMs(size_t n) { return TimeJoinMs(n, 0); }
double MeasureProjectMs(size_t n) { return TimeProjectMs(n, 0); }

// Keys over [1, n/4]: the join key and the grouping key pass the dense
// rule, so these time the head-array join and the direct-address grouping.
// The join emits about 4n rows.
double MeasureDenseJoinMs(size_t n) {
  return TimeJoinMs(n, static_cast<int64_t>(n / 4));
}
double MeasureDenseProjectMs(size_t n) {
  return TimeProjectMs(n, static_cast<int64_t>(n / 4));
}

double MeasureSemiJoinMs(size_t n) {
  // A 3-chain reduces every table against its neighbors; at this size the
  // build sides clear the Bloom threshold, so this times the filtered path.
  Database* db = ChainDb(3, n);
  const Snapshot snap = db->snapshot();
  ConjunctiveQuery q = MakeChainQuery(3);
  return TimeMs([&] {
    auto reduced = SemiJoinReduce(snap, q);
    benchmark::DoNotOptimize(reduced->size());
  });
}

double MeasureProjectBooleanMs(size_t n) {
  // Empty keep-mask: every row folds into one group — the fused
  // complement-product accumulator's fast path.
  Database* db = ChainDb(2, n);
  const Snapshot snap = db->snapshot();
  ConjunctiveQuery q = MakeChainQuery(2);
  auto rel = ScanAtom(snap, q, 0);
  return TimeMs([&] {
    Rel out = ProjectIndependent(*rel, 0);
    benchmark::DoNotOptimize(out.NumRows());
  });
}

/// Machine-readable capture of the headline operators (BENCH_*.json): the
/// numbers the perf trajectory is tracked by across PRs.
void CaptureJson() {
  struct OpCase {
    const char* op;
    size_t rows;
    double (*measure_ms)(size_t);
  };
  for (OpCase oc : {OpCase{"scan_atom", 1000000, MeasureScanMs},
                    OpCase{"hash_join", 1000000, MeasureJoinMs},
                    OpCase{"project_independent", 1000000, MeasureProjectMs},
                    OpCase{"hash_join", 100000, MeasureJoinMs},
                    OpCase{"project_independent", 100000, MeasureProjectMs},
                    OpCase{"hash_join_dense", 1000000, MeasureDenseJoinMs},
                    OpCase{"hash_join_dense", 100000, MeasureDenseJoinMs},
                    OpCase{"project_independent_dense", 1000000,
                           MeasureDenseProjectMs},
                    OpCase{"project_independent_dense", 100000,
                           MeasureDenseProjectMs},
                    OpCase{"semijoin_reduce", 100000, MeasureSemiJoinMs},
                    OpCase{"project_boolean", 1000000,
                           MeasureProjectBooleanMs}}) {
    double ms = oc.measure_ms(oc.rows);
    BenchJsonRecord(oc.op, oc.rows, ms * 1e6 / static_cast<double>(oc.rows));
  }
  {
    // Facade steady state at 10k rows (chain-4 propagation query).
    const size_t n = 10000;
    Database* db = ChainDb(4, n);
    QueryEngine engine = QueryEngine::Borrow(*db);
    ConjunctiveQuery q = MakeChainQuery(4);
    double ms = TimeMs([&] {
      auto prepared = engine.Prepare(q);
      auto res = engine.Execute(*prepared);
      benchmark::DoNotOptimize(res->answers.size());
    });
    BenchJsonRecord("engine_cached_query_chain4", n,
                    ms * 1e6 / static_cast<double>(n));
  }
  {
    // Opt. 3 under the paper's selective bindings: TPC-H at scale 0.1 with
    // a one-colour Part selection ($2) and half the suppliers ($1). The
    // reduction should prune Partsupp through both selections before it
    // indexes it, so a schedule that indexes the whole Partsupp shows up
    // here. Rows are Partsupp's.
    TpchOptions topts;
    topts.scale = 0.1;
    Database db = MakeTpchDatabase(topts);
    const Snapshot snap = db.snapshot();
    const int64_t half =
        static_cast<int64_t>((*snap.GetTable("Supplier"))->NumRows() / 2);
    auto sel = MakeTpchSelections(db, half, "%red%");
    const size_t n = (*snap.GetTable("Partsupp"))->NumRows();
    ConjunctiveQuery q = TpchQuery();
    double ms = TimeMs([&] {
      auto reduced = SemiJoinReduce(snap, q, (*sel)->overrides);
      benchmark::DoNotOptimize(reduced->size());
    });
    BenchJsonRecord("semijoin_reduce_selective", n,
                    ms * 1e6 / static_cast<double>(n));
  }
  BenchJsonWrite("micro_operators");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  CaptureJson();
  return 0;
}
