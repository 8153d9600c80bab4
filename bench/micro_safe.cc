// Safe-plan compile benchmark: the engine's one Opt. 1 compile path (the
// lifted compiler, src/lift/) against the paper's Algorithm 1 route
// (PropagationOptions::opt1_single_plan = false), and the cost of a cold
// Prepare on unsafe queries.
//
// Workload 1: nested-containment chains
//   q() :- R1(x1), R2(x1,x2), ..., Rk(x1,...,xk)
// These are hierarchical (at-sets form a chain under containment), so the
// lifted compiler resolves every level with the separator rule in one
// linear walk. Algorithm 1 reaches the same single minimal plan by
// Gosper-enumerating all 2^|evars| candidate cut-sets per level and walking
// the dissociation lattice, so its compile cost grows exponentially in k
// while the lifted cost stays linear. Both routes evaluate one plan with
// the same score, which the benchmark asserts bit for bit.
//
// Workload 2: boolean k-chains q() :- R1(x0,x1), ..., Rk(x_{k-1},xk), which
// are unsafe with Catalan(k-1) minimal plans. A cold Prepare compiles one
// min-plan and never enumerates those plans.
//
// Measurements (BENCH_micro_safe.json):
//   - compile_safe_k{4,8,12}         ns per lifted compile
//   - compile_alg1_k{4,8,12}         ns per Algorithm 1 enumeration
//   - serve_safe_k12                 ns per cold Prepare+Execute, Opt. 1
//   - serve_alg1_k12                 ns per cold Prepare+Execute, Opt. 1 off
//   - compile_speedup_k12            ratio (skipped by compare_bench)
//   - prepare_unsafe_chain_k{3,8,12} ns per cold QueryEngine::Prepare of a
//                                    boolean k-chain, plan cache off
//
// Unconditional acceptance gates:
//   - both routes return bit-identical rankings on every chain and flag
//     them exact,
//   - cold end-to-end latency (Prepare+Execute) through the lifted route is
//     strictly below the Algorithm 1 route at k=12,
//   - a cold Prepare of the unsafe 12-chain stays within 3x of a bare
//     lift::CompileSafePlan on the same query (no plan enumeration).
//
//   $ ./micro_safe
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace dissodb;         // NOLINT: bench brevity
using namespace dissodb::bench;  // NOLINT

namespace {

/// q() :- R1(x1), R2(x1,x2), ..., Rk(x1..xk).
std::string ChainOfContainmentQuery(int k) {
  std::string text = "q() :- ";
  for (int j = 1; j <= k; ++j) {
    if (j > 1) text += ", ";
    text += "R" + std::to_string(j) + "(";
    for (int v = 1; v <= j; ++v) {
      if (v > 1) text += ",";
      text += "x" + std::to_string(v);
    }
    text += ")";
  }
  return text;
}

/// q() :- R1(x0,x1), R2(x1,x2), ..., Rk(x_{k-1},xk).
std::string BooleanChainQuery(int k) {
  std::string text = "q() :- ";
  for (int j = 1; j <= k; ++j) {
    if (j > 1) text += ", ";
    text += "R" + std::to_string(j) + "(x" + std::to_string(j - 1) + ",x" +
            std::to_string(j) + ")";
  }
  return text;
}

/// Tables R1..Rk with `rows` distinct random rows each over a small domain,
/// so joins produce work without blowing up the answer set.
Database ChainDatabase(int k, size_t rows, uint64_t seed) {
  Rng rng(seed);
  Database db;
  for (int j = 1; j <= k; ++j) {
    Table t(RelationSchema::AllInt64("R" + std::to_string(j), j));
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Value> row;
      row.reserve(j);
      for (int v = 0; v < j; ++v) row.push_back(Value::Int64(rng.NextInt(0, 2)));
      t.AddRow(row, 0.05 + 0.9 * rng.NextDouble());
    }
    if (!db.AddTable(std::move(t)).ok()) std::abort();
  }
  return db;
}

EngineOptions RouteOptions(bool lifted) {
  EngineOptions o;
  o.propagation.opt1_single_plan = lifted;
  return o;
}

/// Compile cost at the library level (no engine construction, no plan
/// cache): what one cold Prepare pays on each route.
double LiftedCompileNs(const ConjunctiveQuery& q) {
  SchemaKnowledge none = SchemaKnowledge::None(q);
  return TimeMs(
             [&] {
               auto r = lift::CompileSafePlan(q, none);
               if (!r.ok() || !r->exact) std::abort();
             },
             20.0, 2000, 3) *
         1e6;
}

double Alg1CompileNs(const ConjunctiveQuery& q) {
  // With Opt. 1 off, Prepare enumerates the minimal plans (Algorithm 1);
  // execution then evaluates each one and min-merges them.
  SchemaKnowledge none = SchemaKnowledge::None(q);
  return TimeMs(
             [&] {
               auto plans = EnumerateMinimalPlans(q, none);
               if (!plans.ok() || plans->size() != 1) std::abort();
             },
             20.0, 2000, 3) *
         1e6;
}

double ColdServeNs(Database& db, const ConjunctiveQuery& q, bool lifted) {
  return TimeMs([&] {
           QueryEngine engine = QueryEngine::Borrow(db, RouteOptions(lifted));
           auto prepared = engine.Prepare(q);
           if (!prepared.ok() || !engine.Execute(*prepared).ok()) std::abort();
         }) *
         1e6;
}

}  // namespace

int main() {
  StringPool pool;
  const size_t rows = static_cast<size_t>(64 * BenchScale());

  // -- Bit-identity + exactness gates across the workload -----------------
  for (int k : {4, 8, 12}) {
    auto q = ParseQuery(ChainOfContainmentQuery(k), &pool);
    if (!q.ok()) std::abort();
    Database db = ChainDatabase(k, rows, 1000 + k);
    QueryEngine lifted = QueryEngine::Borrow(db, RouteOptions(true));
    QueryEngine alg1 = QueryEngine::Borrow(db, RouteOptions(false));
    auto lifted_q = lifted.Prepare(*q);
    auto alg1_q = alg1.Prepare(*q);
    if (!lifted_q.ok() || !alg1_q.ok()) {
      std::printf("FAIL: k=%d prepare failed\n", k);
      return 1;
    }
    auto a = lifted.Execute(*lifted_q);
    auto b = alg1.Execute(*alg1_q);
    if (!a.ok() || !b.ok()) {
      std::printf("FAIL: k=%d run failed\n", k);
      return 1;
    }
    if (!a->exact || !b->exact) {
      std::printf("FAIL: k=%d not flagged exact on both routes\n", k);
      return 1;
    }
    if (a->answers.size() != b->answers.size()) {
      std::printf("FAIL: k=%d answer count diverges across routes\n", k);
      return 1;
    }
    for (size_t i = 0; i < a->answers.size(); ++i) {
      if (!(a->answers[i].tuple == b->answers[i].tuple) ||
          a->answers[i].score != b->answers[i].score) {
        std::printf("FAIL: k=%d rankings diverge across routes\n", k);
        return 1;
      }
    }
  }
  std::printf("bit-identity: lifted == Algorithm 1 rankings (k=4,8,12), "
              "exact=true on both routes\n\n");

  // -- Compile cost: lifted linear walk vs Gosper + lattice ---------------
  PrintHeader({"k", "lifted ns", "alg1 ns", "speedup"});
  double safe12 = 0, alg1_12 = 0;
  for (int k : {4, 8, 12}) {
    auto q = ParseQuery(ChainOfContainmentQuery(k), &pool);
    if (!q.ok()) std::abort();
    const double safe_ns = LiftedCompileNs(*q);
    const double alg1_ns = Alg1CompileNs(*q);
    if (k == 12) {
      safe12 = safe_ns;
      alg1_12 = alg1_ns;
    }
    BenchJsonRecord("compile_safe_k" + std::to_string(k), rows, safe_ns);
    BenchJsonRecord("compile_alg1_k" + std::to_string(k), rows, alg1_ns);
    PrintRow({std::to_string(k), Fmt(safe_ns), Fmt(alg1_ns),
              Fmt(alg1_ns / safe_ns)});
  }
  BenchJsonRecord("compile_speedup_k12", rows, alg1_12 / safe12);

  // -- End-to-end: cold Prepare+Execute at k=12 ---------------------------
  auto q12 = ParseQuery(ChainOfContainmentQuery(12), &pool);
  if (!q12.ok()) std::abort();
  Database db12 = ChainDatabase(12, rows, 2012);
  const double serve_safe = ColdServeNs(db12, *q12, true);
  const double serve_alg1 = ColdServeNs(db12, *q12, false);
  BenchJsonRecord("serve_safe_k12", rows, serve_safe);
  BenchJsonRecord("serve_alg1_k12", rows, serve_alg1);
  std::printf("\nend-to-end k=12 cold query: lifted %s, Algorithm 1 %s "
              "(%.1fx)\n",
              FmtMs(serve_safe / 1e6).c_str(), FmtMs(serve_alg1 / 1e6).c_str(),
              serve_alg1 / serve_safe);

  // The acceptance gate: exact routing must be a strict latency win on the
  // hierarchical workload, not just a semantics win.
  if (serve_safe >= serve_alg1) {
    std::printf("FAIL: lifted latency (%.0f ns) not below Algorithm 1 "
                "(%.0f ns)\n",
                serve_safe, serve_alg1);
    return 1;
  }

  // -- Unsafe chains: a cold Prepare compiles, it does not enumerate ------
  std::printf("\n");
  PrintHeader({"chain k", "prepare ns", "compile ns", "ratio"});
  for (int k : {3, 8, 12}) {
    auto q = ParseQuery(BooleanChainQuery(k), &pool);
    if (!q.ok()) std::abort();
    ChainSpec spec;
    spec.k = k;
    spec.n = rows;
    spec.seed = 3000 + k;
    Database db = MakeChainDatabase(spec);
    EngineOptions opts;
    opts.plan_cache_capacity = 0;  // every Prepare compiles
    QueryEngine engine = QueryEngine::Borrow(db, opts);
    const double prepare_ns =
        TimeMs(
            [&] {
              auto p = engine.Prepare(*q);
              if (!p.ok() || p->exact()) std::abort();
            },
            20.0, 2000, 3) *
        1e6;
    auto sk = SchemaKnowledge::FromSnapshot(*q, db.snapshot());
    if (!sk.ok()) std::abort();
    const double compile_ns =
        TimeMs(
            [&] {
              auto r = lift::CompileSafePlan(*q, *sk);
              if (!r.ok() || r->exact) std::abort();
            },
            20.0, 2000, 3) *
        1e6;
    BenchJsonRecord("prepare_unsafe_chain_k" + std::to_string(k), rows,
                    prepare_ns);
    PrintRow({std::to_string(k), Fmt(prepare_ns), Fmt(compile_ns),
              Fmt(prepare_ns / compile_ns)});
    if (k == 12 && prepare_ns > 3 * compile_ns) {
      std::printf("FAIL: cold Prepare of the unsafe 12-chain (%.0f ns) is "
                  "over 3x a bare CompileSafePlan (%.0f ns)\n",
                  prepare_ns, compile_ns);
      return 1;
    }
  }

  BenchJsonWrite("micro_safe");
  std::printf("\nOK\n");
  return 0;
}
