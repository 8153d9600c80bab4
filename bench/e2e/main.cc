// End-to-end benchmark: one workload per process.
//
//   e2e_bench --workload W --seed N --seconds S --trace 0|1
//
// --trace 0 (end-to-end run): sets the workload up several times (setup_s
// is the median), runs its closed loop for S seconds untraced, and checks
// every kept answer against the workload's oracle. --trace 1 (layer run):
// sets up once, runs S/2 seconds untraced, then replays exactly those
// requests on a fresh engine (over a rebuilt database where the pass
// wrote to it), tracing a deterministic sample of them:
// every layer call wrapped in a span, the engine's own span trees grafted
// in. The per-layer metrics come from the spans and the engine's
// counters, the difference between the passes on the traced requests is
// the tracing overhead, and the spans are written as Chrome trace JSON
// to e2e_trace_W.json in the working directory.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// samples, notes and metrics ({name: {value, unit}}). bench/e2e/run.py
// builds this binary and turns that line into the benchmark's output.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/workload.h"

namespace e2e {
namespace {

// setup_s is the median of the set-ups of two windows, one before the
// timed loop and one after the oracles. Each window holds at least
// kMinSetups set-ups, and more while it is shorter than
// kSetupWindowSeconds, so cheap set-ups are sampled often, and a burst of
// load on the machine during one window moves the median less.
constexpr size_t kMinSetups = 2;
constexpr double kSetupWindowSeconds = 2.0;
/// The traced pass records spans for at most this many requests, a
/// deterministic 1-in-k sample, so trace files stay loadable.
constexpr size_t kMaxTraced = 1000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Returns freed heap memory to the system and restarts the kernel's
/// peak-RSS count at the current RSS.
void ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One window of set-ups; appends each one's duration in seconds.
void TimeSetups(Workload* w, std::vector<double>* setups) {
  double window = 0;
  for (size_t n = 0; n < kMinSetups || window < kSetupWindowSeconds; ++n) {
    const uint64_t t0 = NowNs();
    w->Setup();
    setups->push_back(Ms(NowNs() - t0) / 1e3);
    window += setups->back();
  }
}

/// p50 over the requests that spent time in `cls` (self time for plan
/// operators, span duration for calls).
double RequestP50(const std::vector<RequestTotals>& totals,
                  const std::string& cls, bool self) {
  std::vector<double> v;
  for (const RequestTotals& t : totals) {
    const auto& m = self ? t.self_ms : t.total_ms;
    auto it = m.find(cls);
    if (it != m.end()) v.push_back(it->second);
  }
  return Quantile(v, 0.5);
}

std::vector<Metric> LayerMetrics(const std::vector<RequestTotals>& totals,
                                 const LayerCounts& c,
                                 const PassStats& untraced,
                                 const PassStats& traced,
                                 const SpanLog& spans) {
  const EngineCounters& e = c.engine;
  auto call_us = [&](const char* cls) { return RequestP50(totals, cls, false) * 1e3; };
  auto op_ms = [&](const char* cls) { return RequestP50(totals, cls, true); };

  std::vector<double> stage, commit, from_due;
  double lag_max = 0;
  for (const CommitRecord& r : c.commits) {
    const CommitTimes& t = r.times;
    if (!t.error.empty()) continue;
    stage.push_back(Ms(t.commit_start - t.stage_start));
    commit.push_back(Ms(t.commit_end - t.commit_start));
    from_due.push_back(Ms(t.commit_end - r.due_ns));
    lag_max = std::max(lag_max, t.stage_start > r.due_ns ? Ms(t.stage_start - r.due_ns) : 0.0);
  }

  double engine_ms = 0, attributed_ms = 0;
  for (const RequestTotals& t : totals) {
    engine_ms += t.engine_ms;
    attributed_ms += t.attributed_ms;
  }
  // Overhead on the same requests: the traced ones, and the same request
  // indices of the untraced pass.
  std::vector<double> base, with_spans;
  for (size_t i = 0; i < traced.latency_ms.size(); ++i) {
    if (!spans.Samples(i) || i >= untraced.latency_ms.size()) continue;
    base.push_back(untraced.latency_ms[i]);
    with_spans.push_back(traced.latency_ms[i]);
  }
  const double p50_base = Quantile(base, 0.5);

  const double commits = static_cast<double>(c.commits.size());
  return {
      {"engine.prepare_us.p50", call_us("engine.prepare"), "us"},
      {"engine.plan_cache_hit_rate",
       Ratio(e.plan_cache_hits, e.plan_cache_hits + e.plan_cache_misses), "ratio"},
      {"query.parse_us.p50", call_us("query.parse"), "us"},
      {"query.canonicalize_us.p50", call_us("query.canonicalize"), "us"},
      {"query.schema_us.p50", call_us("query.schema"), "us"},
      {"lift.compile_us.p50", call_us("lift.compile"), "us"},
      {"lift.exact_fraction", Ratio(c.probes_lift_exact, c.probes), "ratio"},
      {"dissociation.enumerate_us.p50", call_us("dissociation.enumerate"), "us"},
      {"dissociation.minimal_plans.mean", Ratio(c.minimal_plans, c.probes), "count"},
      {"exec.scan_ms.p50", op_ms("exec.scan"), "ms"},
      {"exec.join_ms.p50", op_ms("exec.join"), "ms"},
      {"exec.project_ms.p50", op_ms("exec.project"), "ms"},
      {"exec.min_ms.p50", op_ms("exec.min"), "ms"},
      {"exec.semijoin_ms.p50", op_ms("exec.semijoin"), "ms"},
      {"exec.rank_ms.p50", op_ms("exec.rank"), "ms"},
      {"exec.reduction_cache_hit_rate",
       Ratio(e.reduction_cache_hits, e.reduction_cache_hits + e.reduction_cache_misses),
       "ratio"},
      {"exec.rows_scanned_per_answer", Ratio(e.rows_scanned, c.answers), "count"},
      {"exec.chunks_pruned_fraction",
       Ratio(e.chunks_pruned, e.chunks_pruned + e.chunks_scanned), "ratio"},
      {"exec.nodes_evaluated.mean", Ratio(c.nodes_evaluated, c.executions), "count"},
      {"serve.queue_wait_ms.p50", e.queue_wait_p50_ns / 1e6, "ms"},
      {"serve.queue_wait_ms.p95", e.queue_wait_p95_ns / 1e6, "ms"},
      {"serve.run_ms.p50", e.run_p50_ns / 1e6, "ms"},
      {"serve.result_cache_hit_rate",
       Ratio(e.result_cache_hits, e.result_cache_hits + e.result_cache_misses), "ratio"},
      {"serve.delta_maintained_per_commit", Ratio(e.delta_maintained, commits), "count"},
      {"serve.swept_per_commit", Ratio(e.swept, commits), "count"},
      {"storage.snapshot_us.p50", call_us("storage.snapshot"), "us"},
      {"storage.stage_ms.p50", Quantile(stage, 0.5), "ms"},
      {"storage.commit_ms.p50", Quantile(commit, 0.5), "ms"},
      {"storage.commit_ms.p95", Quantile(commit, 0.95), "ms"},
      {"storage.commit_from_due_ms.p50", Quantile(from_due, 0.5), "ms"},
      {"storage.writer_lag_ms.max", lag_max, "ms"},
      {"anytime.bounds_ms.p50", RequestP50(totals, "anytime.bounds", false), "ms"},
      {"anytime.refine_ms.p50", RequestP50(totals, "anytime.refine", false), "ms"},
      {"anytime.refined_fraction", Ratio(c.refined_answers, c.anytime_answers), "ratio"},
      {"anytime.refine_rounds.mean", Ratio(c.refine_rounds, c.anytime_runs), "count"},
      {"anytime.mc_samples.mean", Ratio(c.mc_samples, c.anytime_runs), "count"},
      {"anytime.certified_fraction",
       Ratio(c.anytime_certified, c.anytime_with_targets), "ratio"},
      {"trace.overhead_fraction",
       p50_base > 0 ? Quantile(with_spans, 0.5) / p50_base - 1 : 0, "ratio"},
      {"trace.attributed_fraction", Ratio(attributed_ms, engine_ms), "ratio"},
  };
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintResult(size_t attempted, size_t failed, size_t samples,
                 const std::vector<std::string>& notes,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"samples\": " + std::to_string(samples);
  json += ", \"notes\": [";
  for (size_t i = 0; i < notes.size() && i < 20; ++i) {
    json += (i ? ", \"" : "\"") + Escape(notes[i]) + "\"";
  }
  json += "], \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opts.trace = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  opts.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const std::string trace_out = "e2e_trace_" + opts.workload + ".json";

  const std::map<std::string, std::function<std::unique_ptr<Workload>(const Options&)>>
      factories = {{"tpch_params", MakeTpchParams},
                   {"adhoc_queries", MakeAdhocQueries},
                   {"serve_under_writes", MakeServeUnderWrites},
                   {"anytime_topk", MakeAnytimeTopk}};
  auto it = factories.find(opts.workload);
  if (it == factories.end() || opts.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload tpch_params|adhoc_queries|"
                 "serve_under_writes|anytime_topk --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const std::unique_ptr<Workload> w = it->second(opts);
  std::vector<std::string> notes;

  if (!opts.trace) {
    std::vector<double> setups;
    TimeSetups(w.get(), &setups);
    // peak_rss_mb is the memory of serving: the set-ups' garbage is
    // returned first, and the oracles run after it is read.
    ResetPeakRss();
    const PassStats pass = w->Run(opts.seconds, SIZE_MAX, nullptr);
    const double rss = PeakRssMb();
    // Throughput over the time spent inside engine calls, so the
    // benchmark's own work between calls (building bindings, converting
    // answers) is not counted against the engine.
    const double busy_s =
        std::accumulate(pass.latency_ms.begin(), pass.latency_ms.end(), 0.0) / 1e3;
    const size_t mismatches = w->Check(&notes);
    TimeSetups(w.get(), &setups);
    const size_t failed = pass.errors + mismatches;
    std::fprintf(stderr, "%s seed %llu: %zu requests in %.2f s, %zu errors, "
                 "%zu oracle mismatches\n",
                 opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
                 pass.latency_ms.size(), pass.elapsed_s, pass.errors, mismatches);
    PrintResult(pass.attempted, failed, pass.latency_ms.size(), notes,
                {{"setup_s", Quantile(setups, 0.5), "s"},
                 {"latency_p50_ms", Quantile(pass.latency_ms, 0.50), "ms"},
                 {"latency_p95_ms", Quantile(pass.latency_ms, 0.95), "ms"},
                 {"throughput_rps", Ratio(pass.units, busy_s), "1/s"},
                 {"peak_rss_mb", rss, "MB"}});
    return failed == 0 ? 0 : 1;
  }

  w->Setup();
  const PassStats untraced = w->Run(opts.seconds / 2, SIZE_MAX, nullptr);
  w->Restart();
  SpanLog spans((untraced.latency_ms.size() + kMaxTraced - 1) / kMaxTraced);
  const PassStats traced = w->Run(opts.seconds, untraced.latency_ms.size(), &spans);
  const LayerCounts counts = w->Counts();
  const size_t mismatches = w->Check(&notes);
  {
    std::ofstream out(trace_out);
    out << spans.ChromeJson("e2e " + opts.workload + " seed " +
                            std::to_string(opts.seed));
    if (!out) notes.push_back("cannot write " + trace_out);
  }
  std::fprintf(stderr, "%s seed %llu: %zu untraced + %zu traced requests, "
               "%zu spans -> %s\n",
               opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
               untraced.latency_ms.size(), traced.latency_ms.size(), spans.size(), trace_out.c_str());
  const size_t failed = untraced.errors + traced.errors + mismatches;
  const std::vector<RequestTotals> totals = spans.LayerTotals();
  PrintResult(untraced.attempted + traced.attempted, failed, totals.size(), notes,
              LayerMetrics(totals, counts, untraced, traced, spans));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
