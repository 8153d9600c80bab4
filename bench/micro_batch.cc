// Batch serving benchmark: 64 overlapping chain queries through
// QueryEngine::ExecuteBatch versus a loop of single Prepare + Execute
// calls.
//
// The workload cycles chain queries of length 2..7 over one shared chain-7
// database, so the batch contains many repeated shapes — the serving
// layer's result cache computes each distinct subplan once and the thread
// pool runs the residual work concurrently. Reports wall-clock speedup and
// the result-cache hit rate, in the standard BENCH_*.json format.
//
//   $ ./micro_batch                     # default sizes
//   $ DISSODB_BENCH_SCALE=5 ./micro_batch
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_common.h"

using namespace dissodb;         // NOLINT: bench brevity
using namespace dissodb::bench;  // NOLINT

int main() {
  constexpr int kBatchSize = 64;
  ChainSpec spec;
  spec.k = 7;
  spec.n = static_cast<size_t>(8000 * BenchScale());
  spec.seed = 3;
  Database db = MakeChainDatabase(spec);

  std::vector<ConjunctiveQuery> workload;
  workload.reserve(kBatchSize);
  for (int i = 0; i < kBatchSize; ++i) {
    workload.push_back(MakeChainQuery(2 + (i % 6)));
  }

  std::printf("micro_batch: %d chain queries (k=2..7, ~%d repeats each) "
              "over a chain-7 database with n=%zu rows/relation\n\n",
              kBatchSize, kBatchSize / 6, spec.n);

  // Prepares every workload query on `engine`; false (after printing the
  // error) if one fails.
  auto prepare_all = [&workload](QueryEngine& engine,
                                 std::vector<PreparedQuery>* out) {
    for (const auto& q : workload) {
      auto p = engine.Prepare(q);
      if (!p.ok()) {
        std::printf("Prepare failed: %s\n", p.status().ToString().c_str());
        return false;
      }
      out->push_back(std::move(*p));
    }
    return true;
  };

  // Sequential baseline: one engine, Prepare + Execute per query. The plan
  // cache is active (both paths compile each shape once); the result cache
  // is not — Execute measures evaluation, which is exactly the pre-serving
  // behavior.
  double seq_ms = 1e300;
  size_t seq_answers = 0;
  for (int rep = 0; rep < 3; ++rep) {
    QueryEngine engine = QueryEngine::Borrow(db);
    Timer t;
    for (const auto& q : workload) {
      auto prepared = engine.Prepare(q);
      if (!prepared.ok()) continue;
      auto r = engine.Execute(*prepared);
      if (r.ok()) seq_answers += r->answers.size();
    }
    seq_ms = std::min(seq_ms, t.ElapsedMillis());
  }

  // Batch path: fresh engine per rep so the first ExecuteBatch's hit rate is
  // the honest cold-cache number. Concurrent duplicates cannot compute
  // twice — the cache's in-flight dedup hands one requester the lead and
  // parks the rest on its future — but the pool stays capped at 8 threads
  // so the measured speedup is comparable across machines.
  double batch_ms = 1e300;
  EngineStats batch_stats;
  size_t batch_answers = 0;
  const unsigned hw = std::thread::hardware_concurrency();
  EngineOptions batch_opts;
  batch_opts.num_threads = static_cast<int>(std::min(hw ? hw : 1u, 8u));
  for (int rep = 0; rep < 3; ++rep) {
    QueryEngine engine = QueryEngine::Borrow(db, batch_opts);
    Timer t;
    std::vector<PreparedQuery> prepared;
    if (!prepare_all(engine, &prepared)) return 1;
    auto results = engine.ExecuteBatch(prepared);
    double ms = t.ElapsedMillis();
    batch_answers = 0;
    for (const auto& r : results) {
      if (!r.ok()) {
        std::printf("ExecuteBatch failed: %s\n",
                    r.status().ToString().c_str());
        return 1;
      }
      batch_answers += r->answers.size();
    }
    if (ms < batch_ms) {
      batch_ms = ms;
      batch_stats = engine.stats();
    }
  }

  if (batch_answers * 3 != seq_answers) {
    std::printf("answer mismatch: batch %zu vs sequential %zu (x3)\n",
                batch_answers, seq_answers / 3);
    return 1;
  }

  const double speedup = seq_ms / batch_ms;
  // A lookup is served without computing either by a plain hit or by
  // waiting on a concurrent in-flight computation of the same subplan.
  const size_t served = batch_stats.result_cache_hits +
                        batch_stats.result_cache_in_flight_waits;
  const size_t lookups = served + batch_stats.result_cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(served) / lookups : 0.0;

  PrintHeader({"path", "wall_ms", "per_query", "speedup"});
  PrintRow({"sequential", FmtMs(seq_ms), FmtMs(seq_ms / kBatchSize), "1.00"});
  PrintRow({"ExecuteBatch", FmtMs(batch_ms), FmtMs(batch_ms / kBatchSize),
            Fmt(speedup)});
  std::printf("\nresult cache: %zu served (%zu hits + %zu in-flight waits) "
              "/ %zu lookups (%.1f%%), %zu entries, %zu evictions\n",
              served, batch_stats.result_cache_hits,
              batch_stats.result_cache_in_flight_waits, lookups,
              100.0 * hit_rate, batch_stats.result_cache_entries,
              batch_stats.result_cache_evictions);
  std::printf("scheduler: %zu tasks executed; plan cache: %zu hits / %zu "
              "misses\n",
              batch_stats.tasks_executed, batch_stats.plan_cache_hits,
              batch_stats.plan_cache_misses);

  BenchJsonRecord("sequential_64", kBatchSize,
                  seq_ms * 1e6 / kBatchSize);
  BenchJsonRecord("batch_64", kBatchSize, batch_ms * 1e6 / kBatchSize);
  // Same JSON shape, different units: `ns_per_row` carries the ratio for
  // `batch_speedup` and the hit fraction for `result_cache_hit_rate`
  // (rows = absolute hit count). compare_bench.py skips these by name.
  BenchJsonRecord("batch_speedup", kBatchSize, speedup);
  BenchJsonRecord("result_cache_hit_rate", served, hit_rate);
  BenchJsonWrite("micro_batch");

  if (served == 0) {
    std::printf("FAIL: expected result-cache sharing in the overlapping "
                "workload\n");
    return 1;
  }
  // CI acceptance gate (opt-in so loaded dev machines don't fail runs):
  // DISSODB_REQUIRE_SPEEDUP=2 demands ExecuteBatch beat the sequential loop
  // 2x.
  if (const char* req = std::getenv("DISSODB_REQUIRE_SPEEDUP")) {
    const double required = std::atof(req);
    if (required > 0 && speedup < required) {
      std::printf("FAIL: speedup %.2fx below required %.2fx\n", speedup,
                  required);
      return 1;
    }
  }

  // Trace export (CI smoke): DISSODB_TRACE_EXPORT=<path> re-runs the batch
  // with every execution traced (trace_sample_every = 1) and writes one
  // execution's Chrome trace-event JSON to <path> — Perfetto-loadable, and
  // schema-checked by bench/check_trace.py.
  if (const char* path = std::getenv("DISSODB_TRACE_EXPORT")) {
    EngineOptions traced_opts = batch_opts;
    traced_opts.trace_sample_every = 1;
    QueryEngine engine = QueryEngine::Borrow(db, traced_opts);
    std::vector<PreparedQuery> prepared;
    if (!prepare_all(engine, &prepared)) return 1;
    auto results = engine.ExecuteBatch(prepared);
    if (results.empty() || !results[0].ok() ||
        results[0]->trace == nullptr) {
      std::printf("FAIL: traced batch produced no trace\n");
      return 1;
    }
    if (engine.stats().traces_recorded != workload.size()) {
      std::printf("FAIL: sampling=1 must trace every execution (%zu/%zu)\n",
                  engine.stats().traces_recorded, workload.size());
      return 1;
    }
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::printf("FAIL: cannot open %s\n", path);
      return 1;
    }
    const std::string json = results[0]->trace->ToChromeJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("trace export: %zu traced executions, wrote %zu bytes of "
                "Chrome trace JSON to %s\n",
                engine.stats().traces_recorded, json.size(), path);
    std::printf("span tree of the exported execution:\n%s",
                results[0]->trace->ToText().c_str());
  }
  return 0;
}
