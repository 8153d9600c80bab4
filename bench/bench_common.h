// Shared harness for the Figure 2 / Figure 5 reproduction benchmarks.
//
// Every binary prints the paper-shaped table for its figure. Sizes default
// to laptop-friendly values and scale with the environment variable
// DISSODB_BENCH_SCALE (e.g. DISSODB_BENCH_SCALE=10 for a 10x larger run).
#ifndef DISSODB_BENCH_BENCH_COMMON_H_
#define DISSODB_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "src/dissodb.h"

namespace dissodb {
namespace bench {

/// Multiplier from DISSODB_BENCH_SCALE (default 1.0).
double BenchScale();

/// Wall-clock milliseconds of `fn`, reporting the minimum over repeated
/// timed runs. One untimed warm-up run precedes measurement (first-touch
/// page faults, cold caches, lazy thread-local scratch), then `fn` is
/// repeated until `min_ms` of timed work has accumulated — but always at
/// least `min_reps` and at most `max_reps` timed runs, so even slow cases
/// report a min-of-K rather than a single sample.
double TimeMs(const std::function<void()>& fn, double min_ms = 50.0,
              int max_reps = 7, int min_reps = 3);

/// Fixed-width table printing.
void PrintHeader(const std::vector<std::string>& cols, int width = 12);
void PrintRow(const std::vector<std::string>& cells, int width = 12);
std::string Fmt(double v);
std::string FmtMs(double ms);

// ---------------------------------------------------------------------------
// Machine-readable results: every bench binary can record (op, rows,
// ns/row) tuples and flush them to BENCH_<name>.json, so the perf
// trajectory is tracked across PRs by diffing JSON, not console logs.
// ---------------------------------------------------------------------------

/// Records one measurement (op name, input rows, nanoseconds per row).
void BenchJsonRecord(const std::string& op, size_t rows, double ns_per_row);

/// Writes all recorded measurements to `BENCH_<bench_name>.json` in the
/// current directory and clears the record buffer. Format:
///   {"bench": "<name>", "results": [{"op": ..., "rows": N, "ns_per_row": X}]}
void BenchJsonWrite(const std::string& bench_name);

// ---------------------------------------------------------------------------
// Evaluation strategies for the runtime figures (5a-5d).
// ---------------------------------------------------------------------------

struct MethodTiming {
  double all_plans_ms = -1;
  double opt1_ms = -1;
  double opt12_ms = -1;
  double opt123_ms = -1;
  double standard_sql_ms = -1;
  size_t num_answers = 0;
  size_t num_plans = 0;
};

/// Times every strategy of Section 4 on (db, q). Skips the all-plans
/// baseline when `skip_all_plans` (it dominates the runtime for large k).
MethodTiming TimeAllMethods(const Database& db, const ConjunctiveQuery& q,
                            bool skip_all_plans = false);

// ---------------------------------------------------------------------------
// TPC-H harness (5e-5h).
// ---------------------------------------------------------------------------

struct TpchRun {
  int64_t dollar1;
  std::string dollar2;
  double diss_ms = -1;
  double diss_opt3_ms = -1;
  double exact_ms = -1;    ///< -1 = infeasible within budget
  double mc1k_ms = -1;
  double lineage_ms = -1;
  double sql_ms = -1;
  size_t max_lineage = 0;
  size_t answers = 0;
};

/// Prepare + Execute of `q` on `engine` with the TPC-H selections bound
/// (untagged) in place of their atoms' tables: the paper's query with its
/// WHERE clauses.
Result<QueryResult> ExecuteWithSelections(QueryEngine& engine,
                                          const ConjunctiveQuery& q,
                                          const TpchSelections& sel);

/// Runs all Section 5 methods for one ($1, $2) setting.
TpchRun RunTpchMethods(const Database& db, const ConjunctiveQuery& q,
                       int64_t dollar1, const std::string& dollar2,
                       size_t wmc_budget = 2'000'000);

// ---------------------------------------------------------------------------
// Controlled-dissociation workload (5l-5p).
//
// A 3-chain q(a) :- A(a,x), B(x,y), C(y) where each x has exactly `fanout`
// y-partners: the plan that dissociates C copies each C-tuple `fanout`
// times, so avg[d] ~= fanout is directly controllable.
// ---------------------------------------------------------------------------

struct FanoutSpec {
  int num_answers = 25;
  /// Mean x-values per answer; the actual count varies uniformly in
  /// [1, 2*mean-1] so answers have different lineage sizes (otherwise
  /// ranking by lineage size would be exactly the random baseline).
  int suppliers_per_answer = 4;
  int fanout = 3;                ///< y-values per x
  int64_t y_domain = 40;         ///< distinct y values to draw from
  double pi_max = 0.5;           ///< probabilities ~ U[0, pi_max]
  bool const_pi = false;         ///< use pi = pi_max for every tuple
  uint64_t seed = 1;
};

/// Builds the fanout database; the query is Q3Chain() below.
Database MakeFanoutDatabase(const FanoutSpec& spec);
ConjunctiveQuery Q3Chain();

/// Mean number of dissociated copies per tuple of atom `atom_idx` over the
/// top-10 answers (the paper's avg[d]).
double MeanDissociationDegree(const LineageResult& lineage, int atom_idx,
                              size_t top_answers = 10);

/// AP@10 of `scores` against exact ground truth; both aligned to `exact`.
double ApAgainst(const std::vector<RankedAnswer>& exact,
                 const std::vector<RankedAnswer>& scores);

}  // namespace bench
}  // namespace dissodb

#endif  // DISSODB_BENCH_BENCH_COMMON_H_
