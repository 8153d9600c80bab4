// In-memory span recorder for the traced run.
//
// Benchmark code opens a span around every call it makes into a layer;
// the engine's own span trees (Bind::trace) are grafted under the span of
// the call that produced them. Nothing is written until the run ends:
// ChromeJson() then renders every span as a complete event, and
// LayerTotals() folds the spans into per-request self times by layer.
#ifndef DISSODB_BENCH_E2E_SPANS_H_
#define DISSODB_BENCH_E2E_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/adapter.h"

namespace e2e {

struct Span {
  uint32_t id = 0;      ///< 1-based
  uint32_t parent = 0;  ///< 0 = the run root
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  unsigned thread = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Self time (duration minus the part of it that child spans cover) summed
/// per span name class, for one request.
struct RequestTotals {
  std::map<std::string, double> self_ms;   ///< by layer class
  std::map<std::string, double> total_ms;  ///< span durations by class
  /// Summed duration of the request's engine-call spans, and the part of
  /// it attributed to named layer spans (operators, reductions, ranking,
  /// refinement) rather than engine or benchmark bookkeeping.
  double engine_ms = 0;
  double attributed_ms = 0;
};

class SpanLog {
 public:
  /// Records requests 0, k, 2k, ... (see Samples).
  explicit SpanLog(size_t every = 1) : every_(every > 0 ? every : 1) {}

  /// Whether request `i` of a pass is one the log records.
  bool Samples(size_t i) const { return i % every_ == 0; }

  /// Opens a span now; `parent` 0 hangs it under the run root.
  uint32_t Begin(std::string name, uint32_t parent);
  void End(uint32_t id);
  void Arg(uint32_t id, std::string key, std::string value);
  /// Records an already-finished span.
  uint32_t Add(std::string name, uint32_t parent, uint64_t start_ns,
               uint64_t end_ns);
  /// Copies an engine span tree under `parent`, keeping its structure.
  void Graft(uint32_t parent, const std::vector<EngineSpan>& spans);

  /// Chrome trace-event JSON: one root for the run (`run_name`), every
  /// request, commit and engine span below it, ids renumbered in start
  /// order so a parent always precedes its children.
  std::string ChromeJson(const std::string& run_name) const;

  /// Per-request layer totals, one entry per span named "request".
  std::vector<RequestTotals> LayerTotals() const;

  size_t size() const;

 private:
  const size_t every_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint32_t parent)
      : log_(log), id_(log ? log->Begin(std::move(name), parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

}  // namespace e2e

#endif  // DISSODB_BENCH_E2E_SPANS_H_
