// The end-to-end benchmark's only view of the library.
//
// Every dissodb call the benchmark makes lives in adapter.cc, so a change
// to the library's API is absorbed in that one file: the workloads, the
// span recorder and main.cc see only the plain types below. The adapter
// sticks to the surfaces the library keeps — QueryEngine::Prepare /
// Execute / ExecuteBatch / RunWithGuarantees, Database::BeginWrite /
// Writer::Commit / snapshot(), the src/workload generators, and the
// public layer functions the compile probe times.
#ifndef DISSODB_BENCH_E2E_ADAPTER_H_
#define DISSODB_BENCH_E2E_ADAPTER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dissodb {
class Bindings;
class Database;
class PreparedQuery;
class QueryEngine;
class Table;
}  // namespace dissodb

namespace e2e {

/// Monotonic nanoseconds on the clock the engine stamps its spans with, so
/// benchmark spans and engine spans nest on one time line.
uint64_t NowNs();

/// One span of a trace the engine recorded (ids 1-based, parent 0 = root).
struct EngineSpan {
  uint32_t id = 0;
  uint32_t parent = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  unsigned thread = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Answer tuples of the benchmark's queries hold integers only.
using Tuple = std::vector<int64_t>;

struct Answer {
  Tuple tuple;
  double score = 0;
};

/// A table bound in place of one query atom (a per-request selection).
class Selection {
 private:
  friend class Db;
  friend class Engine;
  std::shared_ptr<const dissodb::Table> table_;
};

/// Timestamps of one writer transaction: staged from `stage_start` to
/// `commit_start`, published (commit hooks included) at `commit_end`.
struct CommitTimes {
  uint64_t stage_start = 0;
  uint64_t commit_start = 0;
  uint64_t commit_end = 0;
  std::string error;
};

/// Shape of the controlled-fanout 3-chain q(a) :- A(a,x), B(x,y), C(y)
/// (the Figure 5l-5p workload): answers cycle through 1..2*xs_per_answer-1
/// x-values each, each x has `fanout` distinct y-partners out of
/// `y_domain`.
struct FanoutShape {
  int answers = 2000;
  int xs_per_answer = 5;
  int fanout = 20;
  int64_t y_domain = 4000;
  double pi_max = 0.2;
};

/// A probabilistic database shared by engines and writer threads.
class Db {
 public:
  /// TPC-H-style Supplier / Partsupp / Part (src/workload/tpch.h).
  static Db Tpch(double scale, uint64_t seed);
  /// Chain relations R1..R`max_chain` (src/workload/synthetic.h) plus star
  /// petals U1..U`petals` and one hub H`k`(x1..xk) per k in
  /// 2..`max_star`; every relation holds `rows` tuples.
  static Db ChainsAndStars(size_t rows, int max_chain, int petals,
                           int max_star, uint64_t seed);
  /// R(a,b) with about `rows` distinct tuples, b in [0, keys) and
  /// a in [0, 4 * rows / keys); S(b) with one tuple per key.
  static Db Serve(size_t rows, int64_t keys, uint64_t seed);
  static Db Fanout(const FanoutShape& shape, uint64_t seed);

  size_t Rows(const std::string& table) const;

  /// The generator's $1 selection: Supplier rows with s_suppkey <= dollar1.
  Selection SupplierUpTo(int64_t dollar1) const;
  /// The generator's $2 selection: Part rows whose p_name matches `pattern`
  /// (SQL LIKE).
  Selection PartLike(const std::string& pattern) const;
  /// Rows of `table` whose column `col` is congruent to `rem` mod `mod`.
  Selection RowsModulo(const std::string& table, int col, int64_t mod,
                       int64_t rem) const;

  /// One writer transaction appending `rows` (probability `probs[i]`).
  CommitTimes Append(const std::string& table, const std::vector<Tuple>& rows,
                     const std::vector<double>& probs);
  /// One writer transaction scaling every probability by `f`.
  CommitTimes ScaleProbabilities(double f);
  /// Nanoseconds one snapshot acquisition takes.
  uint64_t TimeSnapshot() const;

 private:
  friend class Engine;
  friend class CompileProbe;
  friend bool ExactProbabilities(const Db& db, const std::string& query,
                                 std::map<Tuple, double>* out,
                                 std::string* error);
  static Db Wrap(dissodb::Database&& db);
  static Selection Select(std::shared_ptr<const dissodb::Table> table);
  std::shared_ptr<const dissodb::Table> CatalogTable(
      const std::string& name) const;

  std::shared_ptr<dissodb::Database> db_;
};

/// The 92 TPC-H colour words the Part names are built from.
std::vector<std::string> TpchColorWords();
/// Text of the paper's TPC-H query (atoms 0 = Supplier, 2 = Part).
std::string TpchQueryText();

/// Exact P(q = a) for every answer by grounding + weighted model counting.
/// False (with `error`) when the query fails or a lineage exceeds the
/// model-counting budget.
bool ExactProbabilities(const Db& db, const std::string& query,
                        std::map<Tuple, double>* out, std::string* error);

struct EngineConfig {
  bool opt3 = false;  ///< Opt. 3 semi-join reduction
  int threads = 1;    ///< pool threads for batches and anytime refinement
};

/// Per-execution inputs: parameter values and tagged atom selections.
struct Bind {
  struct Atom {
    int atom;
    const Selection* table;
    std::string tag;
  };
  std::vector<std::pair<int, int64_t>> params;
  std::vector<Atom> atoms;
  bool trace = false;  ///< ask the engine for its span tree
};

/// When a library call ran: the engine's own time, without the adapter's
/// conversions.
struct CallTime {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

struct ExecResult {
  CallTime call;      ///< a batch's results all carry the batch call's
  std::string error;  ///< empty on success
  std::vector<Answer> answers;
  bool exact = false;
  size_t nodes_evaluated = 0;
  std::vector<EngineSpan> trace;
};

/// What RunWithGuarantees must achieve (no target = bounds only).
struct Guarantee {
  double epsilon = std::numeric_limits<double>::infinity();
  size_t top_k = 0;
};

struct Interval {
  Tuple tuple;
  double lower = 0;
  double upper = 0;
  bool sampled = false;  ///< refined by Monte Carlo (a statistical interval)
};

struct AnytimeResult {
  CallTime call;
  std::string error;
  std::vector<Interval> answers;  ///< by descending point score
  bool certified = false;         ///< every requested guarantee was met
  size_t certified_prefix = 0;
  size_t refined_answers = 0;
  size_t refine_rounds = 0;
  size_t mc_samples = 0;
  std::vector<EngineSpan> trace;
};

class Prepared {
 public:
  bool valid() const { return query_ != nullptr; }

  CallTime call;  ///< when Prepare ran

 private:
  friend class Engine;
  std::shared_ptr<const dissodb::PreparedQuery> query_;
};

/// Engine-side counters since the engine was built.
struct EngineCounters {
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  size_t reduction_cache_hits = 0;
  size_t reduction_cache_misses = 0;
  size_t result_cache_hits = 0;
  size_t result_cache_misses = 0;
  size_t delta_maintained = 0;
  size_t swept = 0;
  size_t rows_scanned = 0;
  size_t chunks_scanned = 0;
  size_t chunks_pruned = 0;
  /// Scheduler histograms for the "query" task class, in ns.
  double queue_wait_p50_ns = 0;
  double queue_wait_p95_ns = 0;
  double run_p50_ns = 0;
};

class Engine {
 public:
  Engine(const Db& db, const EngineConfig& config);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Prepared Prepare(const std::string& text, std::string* error);
  ExecResult Execute(const Prepared& query, const Bind& bind);
  std::vector<ExecResult> ExecuteBatch(const Prepared& query,
                                       const std::vector<Bind>& binds);
  AnytimeResult RunWithGuarantees(const Prepared& query, const Bind& bind,
                                  const Guarantee& guarantee);
  EngineCounters Counters() const;

 private:
  static dissodb::Bindings ToBindings(const Bind& b);

  std::unique_ptr<dissodb::QueryEngine> engine_;
};

/// The compile pipeline's public layer functions, called one at a time so
/// the caller can time each: parse -> canonicalize -> schema knowledge ->
/// lifted compile -> minimal-plan enumeration. These give each layer's cost
/// on the benchmark's traffic; Engine::Prepare makes its own calls. A step
/// returns false (see error()) when it or an earlier step failed.
class CompileProbe {
 public:
  CompileProbe(const Db& db, std::string text);
  ~CompileProbe();
  CompileProbe(const CompileProbe&) = delete;
  CompileProbe& operator=(const CompileProbe&) = delete;

  bool Parse();
  bool Canonicalize();
  bool Schema();
  bool Lift();
  bool Enumerate();

  bool lift_exact() const;
  size_t minimal_plans() const;
  const std::string& error() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace e2e

#endif  // DISSODB_BENCH_E2E_ADAPTER_H_
