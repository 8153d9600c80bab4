#include "bench/e2e/spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>

namespace e2e {

namespace {

// Chrome tracks of benchmark threads, numbered apart from the engine's own
// thread slots so the two never share a track.
unsigned BenchThread() {
  static std::atomic<unsigned> next{1000};
  thread_local const unsigned id = next.fetch_add(1);
  return id;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

void AppendEscaped(const std::string& in, std::string* out) {
  for (char c : in) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

/// Engine-call spans: their subtree is one call into the engine.
bool IsEngineCall(const std::string& cls) {
  return cls == "engine.execute" || cls == "engine.execute_batch" ||
         cls == "engine.run_with_guarantees";
}

/// Classes whose self time is work of a named layer.
bool IsAttributed(const std::string& cls) {
  return StartsWith(cls, "exec.") || StartsWith(cls, "anytime.");
}

/// The layer class of a span name: benchmark spans are named
/// "<layer>.<call>", engine spans by stage or plan operator ("scan R",
/// "join", "semijoin-reduce", "anytime-bounds", ...).
std::string SpanClass(const std::string& name) {
  if (StartsWith(name, "scan")) return "exec.scan";
  if (name == "join") return "exec.join";
  if (name == "project") return "exec.project";
  if (name == "min" || name == "min-merge") return "exec.min";
  if (name == "semijoin-reduce") return "exec.semijoin";
  if (name == "rank") return "exec.rank";
  if (name == "anytime-bounds") return "anytime.bounds";
  if (name == "anytime-refine") return "anytime.refine";
  if (name.find('.') != std::string::npos || name == "request" ||
      name == "commit") {
    return name;  // a benchmark span, already named by layer
  }
  // Engine roots ("execute q...", "anytime q..."), "evaluate", "plan N".
  return "engine.internal";
}

}  // namespace

uint32_t SpanLog::Begin(std::string name, uint32_t parent) {
  const uint64_t now = NowNs();
  const unsigned thread = BenchThread();
  std::lock_guard lock(mu_);
  Span& s = spans_.emplace_back();
  s.id = static_cast<uint32_t>(spans_.size());
  s.parent = parent;
  s.name = std::move(name);
  s.start_ns = now;
  s.thread = thread;
  return s.id;
}

void SpanLog::End(uint32_t id) {
  const uint64_t now = NowNs();
  std::lock_guard lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = now;
}

void SpanLog::Arg(uint32_t id, std::string key, std::string value) {
  std::lock_guard lock(mu_);
  if (id >= 1 && id <= spans_.size()) {
    spans_[id - 1].args.emplace_back(std::move(key), std::move(value));
  }
}

uint32_t SpanLog::Add(std::string name, uint32_t parent, uint64_t start_ns,
                      uint64_t end_ns) {
  const unsigned thread = BenchThread();
  std::lock_guard lock(mu_);
  Span& s = spans_.emplace_back();
  s.id = static_cast<uint32_t>(spans_.size());
  s.parent = parent;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.thread = thread;
  return s.id;
}

void SpanLog::Graft(uint32_t parent, const std::vector<EngineSpan>& spans) {
  std::lock_guard lock(mu_);
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (const EngineSpan& e : spans) {
    Span& s = spans_.emplace_back();
    s.id = base + e.id;
    s.parent = e.parent == 0 ? parent : base + e.parent;
    s.name = e.name;
    s.start_ns = e.start_ns;
    s.end_ns = e.end_ns;
    s.thread = e.thread;
    s.args = e.args;
  }
}

size_t SpanLog::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::string SpanLog::ChromeJson(const std::string& run_name) const {
  std::lock_guard lock(mu_);
  const size_t n = spans_.size();
  uint64_t t0 = ~uint64_t{0};
  uint64_t t1 = 0;
  for (const Span& s : spans_) {
    t0 = std::min(t0, s.start_ns);
    t1 = std::max(t1, s.end_ns);
  }
  if (n == 0) t0 = t1 = 0;

  // New ids in start order (ties: shallower first), the run root being 1.
  std::vector<uint32_t> depth(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = spans_[i].parent;
    depth[i] = p == 0 ? 1 : depth[p - 1] + 1;  // parents are recorded first
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans_[a].start_ns != spans_[b].start_ns) {
      return spans_[a].start_ns < spans_[b].start_ns;
    }
    return depth[a] < depth[b];
  });
  std::vector<uint32_t> new_id(n + 1, 1);
  for (size_t k = 0; k < n; ++k) new_id[order[k] + 1] = static_cast<uint32_t>(k + 2);

  std::string out = "{\"traceEvents\":[";
  auto event = [&](const std::string& name, uint64_t start, uint64_t end,
                   unsigned tid, uint32_t id, uint32_t parent,
                   const std::vector<std::pair<std::string, std::string>>& args) {
    out += "{\"name\":\"";
    AppendEscaped(name, &out);
    char num[128];
    std::snprintf(num, sizeof(num),
                  "\",\"cat\":\"e2e\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u",
                  (start - t0) / 1e3, (end - start) / 1e3, tid);
    out += num;
    out += ",\"args\":{\"span_id\":" + std::to_string(id) +
           ",\"parent_id\":" + std::to_string(parent);
    for (const auto& [k, v] : args) {
      out += ",\"";
      AppendEscaped(k, &out);
      out += "\":\"";
      AppendEscaped(v, &out);
      out += "\"";
    }
    out += "}}";
  };
  event(run_name, t0, t1, 0, 1, 0, {});
  for (size_t k = 0; k < n; ++k) {
    const Span& s = spans_[order[k]];
    out += ",";
    event(s.name, s.start_ns, std::max(s.end_ns, s.start_ns), s.thread,
          new_id[order[k] + 1], new_id[s.parent], s.args);
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

std::vector<RequestTotals> SpanLog::LayerTotals() const {
  std::lock_guard lock(mu_);
  const size_t n = spans_.size();
  std::vector<std::vector<uint32_t>> children(n + 1);
  for (const Span& s : spans_) children[s.parent].push_back(s.id);

  // Self time: duration minus the union of child intervals clipped to it
  // (children of a batch run concurrently, so they may overlap).
  std::vector<double> self_ms(n + 1, 0.0);
  std::vector<std::string> cls(n + 1);
  for (const Span& s : spans_) {
    cls[s.id] = SpanClass(s.name);
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (uint32_t c : children[s.id]) {
      const Span& k = spans_[c - 1];
      const uint64_t a = std::max(k.start_ns, s.start_ns);
      const uint64_t b = std::min(k.end_ns, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (cur_b <= a) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    self_ms[s.id] = (dur - std::min(dur, covered)) / 1e6;
  }

  auto subtree = [&](uint32_t root, auto&& visit) {
    std::vector<uint32_t> stack{root};
    while (!stack.empty()) {
      const uint32_t id = stack.back();
      stack.pop_back();
      visit(id);
      for (uint32_t c : children[id]) stack.push_back(c);
    }
  };

  std::vector<RequestTotals> out;
  for (const Span& root : spans_) {
    if (root.name != "request") continue;
    RequestTotals t;
    subtree(root.id, [&](uint32_t id) {
      const Span& s = spans_[id - 1];
      t.self_ms[cls[id]] += self_ms[id];
      t.total_ms[cls[id]] += (s.end_ns - s.start_ns) / 1e6;
      if (IsEngineCall(cls[id])) {
        // Time inside the engine: the call's wall time, or the summed
        // engine executions when a batch ran several at once.
        double inside_ms = 0;
        for (uint32_t c : children[id]) {
          inside_ms += (spans_[c - 1].end_ns - spans_[c - 1].start_ns) / 1e6;
        }
        t.engine_ms += std::max(inside_ms, (s.end_ns - s.start_ns) / 1e6);
        subtree(id, [&](uint32_t d) {
          if (IsAttributed(cls[d])) t.attributed_ms += self_ms[d];
        });
      }
    });
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace e2e
