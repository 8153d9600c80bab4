// Concurrent read/write serving with snapshot isolation.
//
// A writer thread continuously re-weights and extends a small knowledge
// base through Database::Writer transactions while the main thread serves
// the same ranking query three ways:
//   - pinned:  against one Snapshot held from before the writer started —
//              scores never move, bit-for-bit,
//   - live:    against a fresh snapshot per request — scores track commits,
//   - async:   through Submit() with a pinned snapshot — pooled execution
//              sharing subplans in the version-stamped result cache.
//
// Build & run:  ./live_serving
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "src/dissodb.h"

using namespace dissodb;  // NOLINT: example brevity

int main() {
  Database db;
  {
    Table likes(RelationSchema::AllInt64("Likes", 2));
    likes.AddRow({Value::Int64(1), Value::Int64(100)}, 0.9);
    likes.AddRow({Value::Int64(2), Value::Int64(100)}, 0.8);
    likes.AddRow({Value::Int64(2), Value::Int64(200)}, 0.7);
    likes.AddRow({Value::Int64(3), Value::Int64(200)}, 0.6);
    if (!db.AddTable(std::move(likes)).ok()) return 1;
    Table trendy(RelationSchema::AllInt64("Trendy", 1));
    trendy.AddRow({Value::Int64(100)}, 0.95);
    trendy.AddRow({Value::Int64(200)}, 0.5);
    if (!db.AddTable(std::move(trendy)).ok()) return 1;
  }

  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(u) :- Likes(u,i), Trendy(i)");
  if (!prepared.ok()) return 1;

  const Snapshot pinned = db.snapshot();
  std::printf("pinned snapshot at version %llu\n",
              static_cast<unsigned long long>(pinned.version()));

  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop] {
    int64_t next_user = 10;
    while (!stop.load(std::memory_order_acquire)) {
      Database::Writer w = db.BeginWrite();
      // Decay all engagement slightly, add a new user liking item 100.
      w.ScaleProbabilities(0.97);
      w.AppendRow(0, std::vector<Value>{Value::Int64(next_user++),
                                        Value::Int64(100)},
                  0.85);
      w.Commit();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int round = 0; round < 5; ++round) {
    // Round 0 runs traced: the span tree shows where a serving request
    // spends its time while the writer churns underneath.
    if (round == 0) {
      auto traced = engine.Execute(*prepared, Bindings().EnableTrace());
      if (traced.ok() && traced->trace != nullptr) {
        std::printf("traced serving request:\n%s",
                    traced->trace->ToText().c_str());
      }
    }
    auto pin = engine.Execute(*prepared, {}, pinned);
    auto live = engine.Execute(*prepared);
    auto fut = engine.Submit(*prepared, {}, pinned);
    auto async = fut.get();
    if (!pin.ok() || !live.ok() || !async.ok()) return 1;
    const Snapshot now = db.snapshot();
    std::printf(
        "round %d | pinned top: u=%" PRId64 " %.6f (stable) | live@v%llu "
        "top: u=%" PRId64 " %.6f (%zu answers)\n",
        round, pin->answers[0].tuple[0].AsInt64(), pin->answers[0].score,
        static_cast<unsigned long long>(now.version()),
        live->answers[0].tuple[0].AsInt64(), live->answers[0].score,
        live->answers.size());
    if (async->answers[0].score != pin->answers[0].score) {
      std::printf("ERROR: async pinned execution diverged\n");
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  EngineStats s = engine.stats();
  std::printf(
      "\nafter serving: version %llu, result cache %zu entries "
      "(%zu delta-maintained across append-only commits, %zu swept), "
      "oldest live snapshot v%llu\n",
      static_cast<unsigned long long>(db.version()),
      s.result_cache_entries, s.result_cache_delta_maintained,
      s.result_cache_swept,
      static_cast<unsigned long long>(db.OldestLiveSnapshotVersion()));
  // Scheduler telemetry: queue-wait and run-time histograms per task class
  // ("query" = pooled executions), the raw data for tail-latency work.
  auto wait =
      engine.metrics().histogram("scheduler.queue_wait_ns.query")->Snapshot();
  auto run = engine.metrics().histogram("scheduler.run_ns.query")->Snapshot();
  std::printf("scheduler query tasks: %llu | queue wait p50=%.0fns "
              "p95=%.0fns p99=%.0fns | run p50=%.0fns p95=%.0fns\n",
              static_cast<unsigned long long>(wait.count), wait.p50(),
              wait.p95(), wait.p99(), run.p50(), run.p95());
  std::printf("Prometheus exposition: engine.metrics().PrometheusText() "
              "(%zu bytes) — scrape-ready counters + le-bucket histograms\n",
              engine.metrics().PrometheusText().size());
  return 0;
}
