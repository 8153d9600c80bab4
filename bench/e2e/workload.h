// The interface between main.cc and the four workloads, plus
// the small helpers they share.
#ifndef DISSODB_BENCH_E2E_WORKLOAD_H_
#define DISSODB_BENCH_E2E_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/adapter.h"
#include "bench/e2e/spans.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;  ///< hardware threads; a workload starts at most this many
};

/// What one pass of a workload's timed loop produced.
struct PassStats {
  std::vector<double> latency_ms;  ///< one per request, in issue order
  size_t units = 0;  ///< what throughput counts (queries for batches)
  size_t attempted = 0;
  size_t errors = 0;
  double elapsed_s = 0;
};

/// One writer transaction of an open-loop writer, due at `due_ns`.
struct CommitRecord {
  uint64_t due_ns = 0;
  CommitTimes times;
};

/// What a traced pass counted beside its spans.
struct LayerCounts {
  EngineCounters engine;
  size_t probes = 0;  ///< compile probes run (one per Prepare)
  size_t probes_lift_exact = 0;
  size_t minimal_plans = 0;  ///< summed over probes
  size_t executions = 0;     ///< engine executions (batch members count)
  size_t answers = 0;
  size_t nodes_evaluated = 0;
  size_t anytime_runs = 0;
  size_t anytime_with_targets = 0;
  size_t anytime_certified = 0;  ///< of the runs with targets
  size_t anytime_answers = 0;
  size_t refined_answers = 0;
  size_t refine_rounds = 0;
  size_t mc_samples = 0;
  std::vector<CommitRecord> commits;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs and a ready engine: database, selections, engine,
  /// Prepare, warm-up. Replaces any earlier state; setup_s times this.
  virtual void Setup() = 0;

  /// Replaces the engine with a fresh, warmed-up one over the same inputs
  /// (rebuilt from the seed where a pass wrote to them), so a traced pass
  /// starts from the state the untraced pass did.
  virtual void Restart() = 0;

  /// Runs the closed loop from request 0 until `seconds` have passed or
  /// `max_requests` requests were issued. With `log`, the requests it
  /// samples are traced (and any writer's commits). Answers are kept for
  /// Check().
  virtual PassStats Run(double seconds, size_t max_requests,
                        SpanLog* log) = 0;

  /// Checks the answers kept so far against the workload's oracle; returns
  /// the number of mismatches and appends one note per mismatch.
  virtual size_t Check(std::vector<std::string>* notes) = 0;

  /// Counters of the current engine and of the passes since the last
  /// Setup()/Restart().
  virtual LayerCounts Counts() const = 0;
};

std::unique_ptr<Workload> MakeTpchParams(const Options& opts);
std::unique_ptr<Workload> MakeAdhocQueries(const Options& opts);
std::unique_ptr<Workload> MakeServeUnderWrites(const Options& opts);
std::unique_ptr<Workload> MakeAnytimeTopk(const Options& opts);

/// splitmix64: the request streams' own seeded generator (the engine sees
/// only what it produces).
class Rand {
 public:
  explicit Rand(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t s_;
};

/// Per-workload generator seed: one run seed fans out to independent
/// streams for data, requests and writer.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rand(seed * 0x100000001b3ULL + stream).Next();
}

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Counts a failed request, printing the first few to stderr.
inline void NoteError(PassStats* st, const std::string& what) {
  if (st->errors++ < 5) std::fprintf(stderr, "e2e: request failed: %s\n", what.c_str());
}

/// True when the loop that started at `start_ns` may issue request `i`.
inline bool KeepGoing(uint64_t start_ns, double seconds, size_t i,
                      size_t max_requests) {
  return i < max_requests &&
         static_cast<double>(NowNs() - start_ns) < seconds * 1e9;
}

/// FNV-1a over every answer's tuple and score bits: equal digests mean
/// bit-identical rankings (up to a 2^-64 collision).
inline uint64_t AnswerDigest(const std::vector<Answer>& answers) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  mix(answers.size());
  for (const Answer& a : answers) {
    for (int64_t v : a.tuple) mix(static_cast<uint64_t>(v));
    uint64_t bits;
    std::memcpy(&bits, &a.score, sizeof(bits));
    mix(bits);
  }
  return h;
}

/// Bit-identical rankings: same tuples in the same order, equal score bits.
inline bool SameAnswers(const std::vector<Answer>& a,
                        const std::vector<Answer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tuple != b[i].tuple || a[i].score != b[i].score) return false;
  }
  return true;
}

}  // namespace e2e

#endif  // DISSODB_BENCH_E2E_WORKLOAD_H_
