// Chunked-scan benchmark: filtered and unfiltered ScanAtom over large
// tables, sequential vs chunk-parallel, plus zone-map pruning on a
// clustered constant predicate.
//
// Table R(a, b) with n rows: column a is clustered (64 runs of n/64
// consecutive rows share one value), column b is uniform random in
// [0, 64). Three scans per size:
//   - unfiltered      q(x,y) :- R(x,y)   zero-copy column sharing
//   - filtered        q(x)   :- R(x, 5)  predicate on the random column
//                                        (no pruning possible: every chunk
//                                        spans the full value range)
//   - zonemap         q(x)   :- R(17, x) predicate on the clustered column
//                                        (zone maps skip ~63/64 chunks)
//
// Every parallel result is verified bit-identical to the sequential one,
// and the zone-map prune rate is asserted >= 90%. Results land in
// BENCH_micro_scan.json; speedup/prune-rate entries are ratios, not
// timings (compare_bench.py skips them via --skip).
//
//   $ ./micro_scan
//   $ DISSODB_REQUIRE_SCAN_SPEEDUP=3 ./micro_scan   # CI acceptance gate
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_common.h"

using namespace dissodb;         // NOLINT: bench brevity
using namespace dissodb::bench;  // NOLINT

namespace {

constexpr int64_t kValues = 64;  // distinct values per column

Database MakeScanDatabase(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Database db;
  Table t(RelationSchema::AllInt64("R", 2));
  t.Reserve(rows);
  const size_t run = std::max<size_t>(1, rows / kValues);
  for (size_t i = 0; i < rows; ++i) {
    t.AddRow({Value::Int64(static_cast<int64_t>(i / run)),
              Value::Int64(rng.NextInt(0, kValues - 1))},
             0.05 + 0.9 * rng.NextDouble());
  }
  auto r = db.AddTable(std::move(t));
  if (!r.ok()) std::abort();
  return db;
}

bool BitIdentical(const Rel& a, const Rel& b) {
  if (a.NumRows() != b.NumRows() || a.arity() != b.arity()) return false;
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (int c = 0; c < a.arity(); ++c) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
    if (a.Score(r) != b.Score(r)) return false;
  }
  return true;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(std::min(hw ? hw : 1u, 8u));
  Scheduler pool(threads);

  StringPool qpool;
  auto q_unfiltered = ParseQuery("q(x,y) :- R(x,y)", &qpool);
  auto q_filtered = ParseQuery("q(x) :- R(x, 5)", &qpool);
  auto q_zonemap = ParseQuery("q(x) :- R(17, x)", &qpool);
  if (!q_unfiltered.ok() || !q_filtered.ok() || !q_zonemap.ok()) return 1;

  const std::vector<size_t> sizes = {
      static_cast<size_t>(1'000'000 * BenchScale()),
      static_cast<size_t>(10'000'000 * BenchScale())};

  std::printf("micro_scan: ScanAtom over R(a,b), %d-thread pool, chunk "
              "capacity %zu\n\n",
              threads, Column::default_chunk_capacity());
  PrintHeader({"op", "rows", "ns_row_1t", "ns_row_nt", "speedup"});

  double min_filtered_speedup = 1e300;
  double min_prune_rate = 1.0;
  for (size_t n : sizes) {
    Database db = MakeScanDatabase(n, 12345);
    const Snapshot snap = db.snapshot();

    struct Case {
      const char* name;
      const ConjunctiveQuery* q;
      bool parallel_path;  // whether the N-thread variant is measured
    };
    const Case cases[] = {{"scan_unfiltered", &*q_unfiltered, false},
                          {"scan_filtered", &*q_filtered, true},
                          {"scan_zonemap", &*q_zonemap, true}};
    for (const Case& c : cases) {
      ChunkedScanStats seq_stats;
      auto seq = ScanAtom(snap, *c.q, 0, nullptr, nullptr, &seq_stats);
      if (!seq.ok()) {
        std::printf("scan failed: %s\n", seq.status().ToString().c_str());
        return 1;
      }
      const double seq_ms = TimeMs([&] {
        auto r = ScanAtom(snap, *c.q, 0, nullptr, nullptr, nullptr);
        if (!r.ok()) std::abort();
      });
      double par_ms = seq_ms;
      if (c.parallel_path) {
        ChunkedScanStats par_stats;
        auto par = ScanAtom(snap, *c.q, 0, nullptr, &pool, &par_stats);
        if (!par.ok() || !BitIdentical(*seq, *par)) {
          std::printf("FAIL: %s parallel result differs from sequential\n",
                      c.name);
          return 1;
        }
        par_ms = TimeMs([&] {
          auto r = ScanAtom(snap, *c.q, 0, nullptr, &pool, nullptr);
          if (!r.ok()) std::abort();
        });
      }
      const double speedup = seq_ms / par_ms;
      PrintRow({c.name, std::to_string(n), Fmt(seq_ms * 1e6 / n),
                Fmt(par_ms * 1e6 / n),
                c.parallel_path ? Fmt(speedup) : "--"});
      BenchJsonRecord(std::string(c.name) + "_seq", n, seq_ms * 1e6 / n);
      if (c.parallel_path) {
        BenchJsonRecord(std::string(c.name) + "_par", n, par_ms * 1e6 / n);
        BenchJsonRecord(std::string(c.name) + "_speedup", n, speedup);
      }

      if (c.q == &*q_filtered) {
        min_filtered_speedup = std::min(min_filtered_speedup, speedup);
      }
      if (c.q == &*q_zonemap) {
        const size_t total = seq_stats.chunks_scanned + seq_stats.chunks_pruned;
        const double prune_rate =
            total > 0 ? static_cast<double>(seq_stats.chunks_pruned) / total
                      : 0.0;
        min_prune_rate = std::min(min_prune_rate, prune_rate);
        std::printf("  zone maps @%zu rows: %zu/%zu chunks pruned (%.1f%%), "
                    "%zu rows selected\n",
                    n, seq_stats.chunks_pruned, total, 100.0 * prune_rate,
                    seq_stats.rows_selected);
        BenchJsonRecord("zone_prune_rate", n, prune_rate);
      }
    }
  }

  std::printf("\nmin filtered speedup %.2fx @%d threads, min zone prune "
              "rate %.1f%%\n",
              min_filtered_speedup, threads, 100.0 * min_prune_rate);
  BenchJsonWrite("micro_scan");

  // Zone-map acceptance: the clustered constant predicate must skip >= 90%
  // of the chunks. Deterministic (data-dependent, not load-dependent), so
  // always enforced.
  if (min_prune_rate < 0.9) {
    std::printf("FAIL: zone-map prune rate %.1f%% below 90%%\n",
                100.0 * min_prune_rate);
    return 1;
  }
  // Parallel-scan acceptance gate (opt-in so loaded dev machines don't
  // fail runs): DISSODB_REQUIRE_SCAN_SPEEDUP=3 demands the chunk-parallel
  // filtered scan beat the sequential path 3x. The criterion is defined
  // for 4+ threads; on narrower machines parallel fan-out cannot win, so
  // the gate reports and skips instead of failing spuriously.
  if (const char* req = std::getenv("DISSODB_REQUIRE_SCAN_SPEEDUP")) {
    const double required = std::atof(req);
    if (threads < 4) {
      std::printf("speedup gate skipped: only %d pool threads (< 4)\n",
                  threads);
    } else if (required > 0 && min_filtered_speedup < required) {
      std::printf("FAIL: filtered-scan speedup %.2fx below required %.2fx\n",
                  min_filtered_speedup, required);
      return 1;
    }
  }
  return 0;
}
