// Prepared-query benchmark: plan-handle amortization and canonicalized
// sharing.
//
// Three measurements over one shared chain database:
//   1. prepare-once-execute-many: N executions of one PreparedQuery handle
//      vs N Prepare(text) + Execute calls (parse + canonicalize +
//      plan-cache lookup every time).
//   2. isomorphic batch: 64 pairwise variable-renamed chain queries, each
//      prepared, through ExecuteBatch; canonicalization collapses their
//      handles to one plan-cache entry and shared ResultCache
//      fingerprints.
//   3. opt3 batch: the same workload with semi-join reduction enabled —
//      reductions are fingerprinted and cached, so (unlike PR 3, where
//      opt3 disabled all sharing) the batch still gets result-cache hits.
//
//   $ ./micro_prepared
//   $ DISSODB_BENCH_SCALE=5 ./micro_prepared
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "bench/bench_common.h"

using namespace dissodb;         // NOLINT: bench brevity
using namespace dissodb::bench;  // NOLINT

namespace {

ConjunctiveQuery PermuteVars(const ConjunctiveQuery& q,
                             const std::vector<int>& order,
                             const std::string& prefix) {
  ConjunctiveQuery out;
  out.SetName(q.name());
  std::vector<VarId> newid(q.num_vars(), -1);
  for (int old : order) newid[old] = out.AddVar(prefix + q.var_name(old));
  for (VarId h : q.head_vars()) (void)out.AddHeadVar(newid[h]);
  for (int i = 0; i < q.num_atoms(); ++i) {
    Atom atom = q.atom(i);
    for (Term& t : atom.terms) {
      if (t.is_var) t.var = newid[t.var];
    }
    (void)out.AddAtom(std::move(atom));
  }
  return out;
}

std::vector<int> RandomOrder(Rng* rng, int n) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    int j = static_cast<int>(rng->NextBounded(i + 1));
    std::swap(order[i], order[j]);
  }
  return order;
}

EngineOptions BatchOptions() {
  const unsigned hw = std::thread::hardware_concurrency();
  EngineOptions opts;
  opts.num_threads = static_cast<int>(std::min(hw ? hw : 1u, 8u));
  return opts;
}

}  // namespace

int main() {
  constexpr int kBatchSize = 64;
  ChainSpec spec;
  spec.k = 4;
  spec.n = static_cast<size_t>(8000 * BenchScale());
  spec.seed = 3;
  Database db = MakeChainDatabase(spec);
  ConjunctiveQuery base = MakeChainQuery(4);

  std::printf("micro_prepared: chain-4 database with n=%zu rows/relation\n\n",
              spec.n);

  // -------------------------------------------------------------------------
  // 1. prepare-once-execute-many. The point-lookup workload (a small
  // database) isolates the per-call overhead a prepared handle amortizes
  // away (parse + canonicalize + plan-cache lookup); the large workload
  // shows the overhead disappearing into evaluation time.
  // -------------------------------------------------------------------------
  ChainSpec small_spec = spec;
  small_spec.n = 64;
  Database small_db = MakeChainDatabase(small_spec);

  const std::string text = base.ToString();
  auto time_pair = [&](Database* target, int execs, double* run_ms,
                       double* exec_ms) -> bool {
    *run_ms = 1e300;
    *exec_ms = 1e300;
    size_t checksum_run = 0, checksum_exec = 0;
    for (int rep = 0; rep < 3; ++rep) {
      QueryEngine engine = QueryEngine::Borrow(*target);
      // Warm the plan cache: both paths compile once.
      (void)engine.Prepare(text);
      Timer t;
      checksum_run = 0;
      for (int i = 0; i < execs; ++i) {
        auto prepared = engine.Prepare(text);
        if (!prepared.ok()) continue;
        auto r = engine.Execute(*prepared);
        if (r.ok()) checksum_run += r->answers.size();
      }
      *run_ms = std::min(*run_ms, t.ElapsedMillis());
    }
    for (int rep = 0; rep < 3; ++rep) {
      QueryEngine engine = QueryEngine::Borrow(*target);
      auto prepared = engine.Prepare(text);
      if (!prepared.ok()) {
        std::printf("Prepare failed: %s\n",
                    prepared.status().ToString().c_str());
        return false;
      }
      Timer t;
      checksum_exec = 0;
      for (int i = 0; i < execs; ++i) {
        auto r = engine.Execute(*prepared);
        if (r.ok()) checksum_exec += r->answers.size();
      }
      *exec_ms = std::min(*exec_ms, t.ElapsedMillis());
    }
    if (checksum_run != checksum_exec) {
      std::printf("answer mismatch: Prepare+Execute %zu vs Execute %zu\n",
                  checksum_run, checksum_exec);
      return false;
    }
    return true;
  };

  constexpr int kExecs = 200;
  constexpr int kSmallExecs = 2000;
  double run_ms, exec_ms, small_run_ms, small_exec_ms;
  if (!time_pair(&db, kExecs, &run_ms, &exec_ms)) return 1;
  if (!time_pair(&small_db, kSmallExecs, &small_run_ms, &small_exec_ms)) {
    return 1;
  }
  const double amortization = small_run_ms / small_exec_ms;
  PrintHeader({"path", "wall_ms", "per_query", "speedup"});
  PrintRow({"small Prepare+Execute", FmtMs(small_run_ms),
            FmtMs(small_run_ms / kSmallExecs), "1.00"});
  PrintRow({"small Execute(prep)", FmtMs(small_exec_ms),
            FmtMs(small_exec_ms / kSmallExecs), Fmt(amortization)});
  PrintRow({"large Prepare+Execute", FmtMs(run_ms), FmtMs(run_ms / kExecs),
            "1.00"});
  PrintRow({"large Execute(prep)", FmtMs(exec_ms), FmtMs(exec_ms / kExecs),
            Fmt(run_ms / exec_ms)});

  // -------------------------------------------------------------------------
  // 2. isomorphic batch (canonicalized), plain and with Opt. 3
  // -------------------------------------------------------------------------
  Rng rng(33);
  std::vector<ConjunctiveQuery> workload;
  workload.reserve(kBatchSize);
  for (int i = 0; i < kBatchSize; ++i) {
    workload.push_back(PermuteVars(base, RandomOrder(&rng, base.num_vars()),
                                   "n" + std::to_string(i) + "_"));
  }

  auto run_batch = [&](bool opt3, double* best_ms,
                       EngineStats* best_stats) -> bool {
    *best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      EngineOptions opts = BatchOptions();
      opts.propagation.opt3_semijoin_reduction = opt3;
      QueryEngine engine = QueryEngine::Borrow(db, opts);
      Timer t;
      std::vector<PreparedQuery> prepared;
      for (const auto& q : workload) {
        auto p = engine.Prepare(q);
        if (!p.ok()) {
          std::printf("Prepare failed: %s\n", p.status().ToString().c_str());
          return false;
        }
        prepared.push_back(std::move(*p));
      }
      auto results = engine.ExecuteBatch(prepared);
      double ms = t.ElapsedMillis();
      for (const auto& r : results) {
        if (!r.ok()) {
          std::printf("ExecuteBatch failed: %s\n",
                      r.status().ToString().c_str());
          return false;
        }
      }
      if (ms < *best_ms) {
        *best_ms = ms;
        *best_stats = engine.stats();
      }
    }
    return true;
  };

  double canon_ms, opt3_ms;
  EngineStats canon_stats, opt3_stats;
  if (!run_batch(false, &canon_ms, &canon_stats)) return 1;
  if (!run_batch(true, &opt3_ms, &opt3_stats)) return 1;

  auto served = [](const EngineStats& s) {
    return s.result_cache_hits + s.result_cache_in_flight_waits;
  };
  std::printf(
      "\n64 pairwise variable-renamed chain-4 queries (ExecuteBatch):\n");
  PrintHeader({"engine", "wall_ms", "rc_served", "plan_miss"});
  PrintRow({"canonical", FmtMs(canon_ms), std::to_string(served(canon_stats)),
            std::to_string(canon_stats.plan_cache_misses)});
  PrintRow({"canonical+opt3", FmtMs(opt3_ms),
            std::to_string(served(opt3_stats)),
            std::to_string(opt3_stats.plan_cache_misses)});
  std::printf("canonical remap plan-cache hits: %zu; opt3 reductions: "
              "%zu cached / %zu computed\n",
              canon_stats.canonical_remap_hits, opt3_stats.reduction_cache_hits,
              opt3_stats.reduction_cache_misses);

  BenchJsonRecord("run_text", kExecs, run_ms * 1e6 / kExecs);
  BenchJsonRecord("execute_prepared", kExecs, exec_ms * 1e6 / kExecs);
  BenchJsonRecord("small_run_text", kSmallExecs,
                  small_run_ms * 1e6 / kSmallExecs);
  BenchJsonRecord("small_execute_prepared", kSmallExecs,
                  small_exec_ms * 1e6 / kSmallExecs);
  BenchJsonRecord("isomorphic_batch_canonical", kBatchSize,
                  canon_ms * 1e6 / kBatchSize);
  BenchJsonRecord("opt3_batch", kBatchSize, opt3_ms * 1e6 / kBatchSize);
  // Non-time records (compare_bench skips by name): sharing counters.
  BenchJsonRecord("prepared_amortization_speedup", kExecs, amortization);
  BenchJsonRecord("isomorphic_rc_served", served(canon_stats),
                  static_cast<double>(served(canon_stats)));
  BenchJsonRecord("opt3_rc_served", served(opt3_stats),
                  static_cast<double>(served(opt3_stats)));
  BenchJsonWrite("micro_prepared");

  // Acceptance gates (unconditional: these are correctness-of-sharing, not
  // machine-speed, properties).
  if (served(canon_stats) == 0) {
    std::printf("FAIL: canonicalized isomorphic batch shared nothing\n");
    return 1;
  }
  if (served(opt3_stats) == 0) {
    std::printf("FAIL: opt3 batch shared nothing (reduction taint back?)\n");
    return 1;
  }
  if (canon_stats.plan_cache_misses != 1) {
    std::printf("FAIL: 64 isomorphic queries should compile exactly once, "
                "got %zu compiles\n", canon_stats.plan_cache_misses);
    return 1;
  }
  // Optional speed gate for CI: prepared executions must amortize the
  // per-call parse+canonicalize+lookup overhead away.
  if (const char* req = std::getenv("DISSODB_REQUIRE_PREPARED_SPEEDUP")) {
    const double required = std::atof(req);
    if (required > 0 && amortization < required) {
      std::printf("FAIL: prepare-once amortization %.2fx below required "
                  "%.2fx\n", amortization, required);
      return 1;
    }
  }
  return 0;
}
