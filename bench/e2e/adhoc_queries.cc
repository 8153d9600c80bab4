// adhoc_queries: fresh query text on every request (Section 5, Setup 2:
// the k-chain and k-star queries of Fig. 2 / Fig. 5a-d), each one
// Prepare + Execute by one closed-loop client over 500-row relations.
//
// Why: request time is compile-bound — query (parse, canonicalize), lift
// (safe-plan compiler) and dissociation (minimal-plan enumeration) —
// while execution over 500 rows does little. A fresh query draws its
// relations as well as its head: a k-chain joins k distinct relations of
// R1..R10 in a random order, a k-star puts k distinct petals of U1..U64 on
// its hub's columns. Every shape so has thousands of distinct queries (the
// smallest, the 2-star, 64 * 63 petal pairs x 4 heads), far more than a
// run issues of it, so a fresh query almost never finds its plan in the
// engine's 1024-entry cache: the workload runs larger than the program's
// own cache. The 30% respellings of a recent query (variables renamed,
// atoms permuted) are what exercises the canonicalizing plan-cache hit
// path. No batch, writer or anytime path is touched.
//
// Stream (seeded): in every 10 requests, 3 are respellings of one of the
// last 64 requests and 7 are fresh queries whose shapes come from a
// reshuffled deck of the 13 shapes (chains k = 3..10, stars k = 2..6), so
// every seed sees the same shape mix. Each variable is a head variable
// with probability 1/4, which keeps long unsafe stretches (thousands of
// minimal plans at k = 10) in the tail.
//
// Oracles: a respelling must return answers bit-identical to its
// original's; and on a 20-row copy of the catalog, a seeded sample of the
// distinct queries (a few per shape) must score at least the exact
// probability from grounding + model counting, and equal it when the
// engine reports the result exact.
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <set>

#include "bench/e2e/workload.h"

namespace e2e {
namespace {

constexpr size_t kRows = 500;
constexpr size_t kOracleRows = 20;
constexpr int kMinChain = 3;
constexpr int kMaxChain = 10;
constexpr int kMinStar = 2;
constexpr int kMaxStar = 6;
constexpr int kPetals = 64;
constexpr double kHeadProb = 0.25;
constexpr size_t kRecent = 64;
constexpr int kRespellingsPer10 = 3;
/// Distinct queries per shape the exact oracle checks, drawn from the
/// first kOracleCandidates of the shape each pass issued.
constexpr size_t kOraclePerShape = 4;
constexpr size_t kOracleCandidates = 16;

/// A chain or star query: its shape, its relations and which variables are
/// in the head.
struct QueryShape {
  bool star = false;
  int k = 0;
  std::vector<bool> head;  ///< chain: x0..xk; star: x1..xk
  /// chain: atom a is R<rel[a]>(x_a, x_a+1); star: U<rel[a]> holds x_a+1.
  std::vector<int> rel;

  int shape_id() const {
    return star ? (kMaxChain - kMinChain + 1) + (k - kMinStar) : k - kMinChain;
  }
  int num_vars() const { return star ? k : k + 1; }

  /// Renders the query with variable v named `names[v]` and the body atoms
  /// listed in `atom_order`.
  std::string Render(const std::vector<std::string>& names,
                     const std::vector<int>& atom_order) const {
    std::string text = "q(";
    bool first = true;
    for (int v = 0; v < num_vars(); ++v) {
      if (!head[v]) continue;
      if (!first) text += ",";
      text += names[v];
      first = false;
    }
    text += ") :- ";
    for (size_t j = 0; j < atom_order.size(); ++j) {
      if (j > 0) text += ", ";
      text += Atom(atom_order[j], names);
    }
    return text;
  }

  int num_atoms() const { return star ? k + 1 : k; }

 private:
  std::string Atom(int a, const std::vector<std::string>& names) const {
    if (!star) {
      return "R" + std::to_string(rel[a]) + "(" + names[a] + "," +
             names[a + 1] + ")";
    }
    if (a < k) return "U" + std::to_string(rel[a]) + "(" + names[a] + ")";
    std::string hub = "H" + std::to_string(k) + "(";
    for (int v = 0; v < k; ++v) hub += (v > 0 ? "," : "") + names[v];
    return hub + ")";
  }
};

constexpr int kShapes =
    (kMaxChain - kMinChain + 1) + (kMaxStar - kMinStar + 1);

struct Request {
  std::string text;
  int shape = 0;
  long respelling_of = -1;  ///< index of the original request, or -1
};

/// The seeded request stream: request i depends only on the seed and i.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}

  Request Next() {
    const size_t i = issued_++;
    if (i % 10 == 0) {  // place this block's respellings
      respell_slots_.assign(10, false);
      std::vector<int> slots{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
      rng_.Shuffle(&slots);
      for (int j = 0; j < kRespellingsPer10; ++j) respell_slots_[slots[j]] = true;
    }
    Request r;
    QueryShape q;
    if (respell_slots_[i % 10] && !recent_.empty()) {
      const auto& [pick, original] = recent_[rng_.Below(recent_.size())];
      q = original;
      std::vector<std::string> names(q.num_vars());
      std::set<std::string> used;
      for (int v = 0; v < q.num_vars(); ++v) {
        do {
          names[v] = "v" + std::to_string(rng_.Below(1000));
        } while (!used.insert(names[v]).second);
      }
      std::vector<int> order(q.num_atoms());
      for (int a = 0; a < q.num_atoms(); ++a) order[a] = a;
      rng_.Shuffle(&order);
      r.text = q.Render(names, order);
      r.respelling_of = static_cast<long>(pick);
    } else {
      if (deck_.empty()) {
        for (int s = 0; s < kShapes; ++s) deck_.push_back(s);
        rng_.Shuffle(&deck_);
      }
      const int s = deck_.back();
      deck_.pop_back();
      q.star = s > kMaxChain - kMinChain;
      q.k = q.star ? s - (kMaxChain - kMinChain + 1) + kMinStar : s + kMinChain;
      q.head.resize(q.num_vars());
      for (int v = 0; v < q.num_vars(); ++v) q.head[v] = rng_.Uniform() < kHeadProb;
      std::vector<int> pool(q.star ? kPetals : kMaxChain);
      for (size_t j = 0; j < pool.size(); ++j) pool[j] = static_cast<int>(j) + 1;
      rng_.Shuffle(&pool);
      q.rel.assign(pool.begin(), pool.begin() + q.k);
      std::vector<std::string> names(q.num_vars());
      for (int v = 0; v < q.num_vars(); ++v) {
        names[v] = "x" + std::to_string(q.star ? v + 1 : v);
      }
      std::vector<int> order(q.num_atoms());
      for (int a = 0; a < q.num_atoms(); ++a) order[a] = a;
      r.text = q.Render(names, order);
    }
    r.shape = q.shape_id();
    recent_.emplace_back(i, std::move(q));
    if (recent_.size() > kRecent) recent_.pop_front();
    return r;
  }

 private:
  Rand rng_;
  size_t issued_ = 0;
  std::vector<bool> respell_slots_;
  std::vector<int> deck_;
  std::deque<std::pair<size_t, QueryShape>> recent_;  ///< (index, shape)
};

class AdhocQueries final : public Workload {
 public:
  explicit AdhocQueries(const Options& opts) : opts_(opts) {}

  void Setup() override {
    engine_.reset();
    db_.reset();
    db_ = std::make_unique<Db>(Db::ChainsAndStars(kRows, kMaxChain, kPetals,
                                                  kMaxStar, SubSeed(opts_.seed, 1)));
    Restart();
  }

  void Restart() override {
    engine_.reset();
    engine_ = std::make_unique<Engine>(*db_, EngineConfig{false, 1});
    // Warm-up with a 1-chain, a shape the stream never issues, so the plan
    // cache starts without any of the stream's entries.
    std::string error;
    const Prepared p = engine_->Prepare("w(x) :- R1(x,y)", &error);
    if (!p.valid()) {
      std::fprintf(stderr, "adhoc_queries: warm-up failed: %s\n", error.c_str());
      std::abort();
    }
    (void)engine_->Execute(p, Bind{});
    counts_ = LayerCounts{};
  }

  PassStats Run(double seconds, size_t max_requests, SpanLog* log) override {
    PassStats st;
    Pass& pass = passes_.emplace_back();
    pass.fresh.resize(kShapes);
    Stream stream(SubSeed(opts_.seed, 2));
    const uint64_t start = NowNs();
    for (size_t i = 0; KeepGoing(start, seconds, i, max_requests); ++i) {
      SpanLog* const spans = log != nullptr && log->Samples(i) ? log : nullptr;
      Request req = stream.Next();
      uint32_t root = 0;
      if (spans != nullptr) {
        root = spans->Begin("request", 0);
        spans->Arg(root, "request_id", std::to_string(i));
        spans->Arg(root, "kind", req.respelling_of >= 0 ? "respelling" : "fresh");
        Probe(req.text, spans, root);
      }

      std::string error;
      ExecResult r;
      Bind bind;
      bind.trace = spans != nullptr;
      const Prepared p = engine_->Prepare(req.text, &error);
      if (p.valid()) {
        r = engine_->Execute(p, bind);
      } else {
        r.error = error;
      }
      if (spans != nullptr) {
        spans->Add("engine.prepare", root, p.call.start_ns, p.call.end_ns);
        if (p.valid()) {
          spans->Graft(spans->Add("engine.execute", root, r.call.start_ns,
                                  r.call.end_ns),
                       r.trace);
        }
        spans->End(root);
      }

      st.latency_ms.push_back(p.call.ms() + r.call.ms());
      ++st.attempted;
      if (!r.error.empty()) {
        NoteError(&st, req.text + ": " + r.error);
      } else {
        ++counts_.executions;
        counts_.answers += r.answers.size();
        counts_.nodes_evaluated += r.nodes_evaluated;
      }
      pass.outcomes.push_back(
          {req.respelling_of, r.error.empty(), AnswerDigest(r.answers)});
      std::vector<std::string>& candidates = pass.fresh[req.shape];
      if (req.respelling_of < 0 && candidates.size() < kOracleCandidates &&
          std::find(candidates.begin(), candidates.end(), req.text) ==
              candidates.end()) {
        candidates.push_back(std::move(req.text));
      }
    }
    st.elapsed_s = Ms(NowNs() - start) / 1e3;
    st.units = st.latency_ms.size();
    return st;
  }

  size_t Check(std::vector<std::string>* notes) override {
    size_t mismatches = 0;
    // Respellings: bit-identical to the original's answers.
    for (const Pass& pass : passes_) {
      for (size_t i = 0; i < pass.outcomes.size(); ++i) {
        const Outcome& r = pass.outcomes[i];
        if (r.respelling_of < 0) continue;
        const Outcome& original = pass.outcomes[r.respelling_of];
        if (r.ok && original.ok && r.digest != original.digest) {
          ++mismatches;
          notes->push_back("adhoc_queries: request " + std::to_string(i) +
                           " answers differently from request " +
                           std::to_string(r.respelling_of) +
                           ", which it respells");
        }
      }
    }

    // Exact oracle on a 20-row copy of the catalog.
    const Db small = Db::ChainsAndStars(kOracleRows, kMaxChain, kPetals,
                                        kMaxStar, SubSeed(opts_.seed, 3));
    Engine engine(small, EngineConfig{false, 1});
    std::set<std::string> texts;  // a seeded sample of each shape's queries
    Rand rng(SubSeed(opts_.seed, 4));
    for (int shape = 0; shape < kShapes; ++shape) {
      std::vector<std::string> pool;
      for (const Pass& pass : passes_) {
        pool.insert(pool.end(), pass.fresh[shape].begin(), pass.fresh[shape].end());
      }
      rng.Shuffle(&pool);
      for (size_t j = 0; j < pool.size() && j < kOraclePerShape; ++j) {
        texts.insert(pool[j]);
      }
    }
    for (const std::string& text : texts) {
      std::string error;
      std::map<Tuple, double> exact;
      if (!ExactProbabilities(small, text, &exact, &error)) {
        notes->push_back("adhoc_queries: exact oracle skipped '" + text +
                         "': " + error);
        continue;
      }
      const Prepared p = engine.Prepare(text, &error);
      const ExecResult got = p.valid() ? engine.Execute(p, Bind{}) : ExecResult{};
      std::string why;
      if (!p.valid() || !got.error.empty()) {
        why = "engine failed: " + (p.valid() ? got.error : error);
      } else if (got.answers.size() != exact.size()) {
        why = "answer count " + std::to_string(got.answers.size()) + " vs " +
              std::to_string(exact.size());
      } else {
        for (const Answer& a : got.answers) {
          auto it = exact.find(a.tuple);
          if (it == exact.end() || a.score < it->second - 1e-9 ||
              (got.exact && std::abs(a.score - it->second) > 1e-9)) {
            why = got.exact ? "exact score differs from P(q)"
                            : "score below P(q)";
            break;
          }
        }
      }
      if (!why.empty()) {
        ++mismatches;
        notes->push_back("adhoc_queries: '" + text + "' on 20 rows: " + why);
      }
    }
    return mismatches;
  }

  LayerCounts Counts() const override {
    LayerCounts c = counts_;
    c.engine = engine_->Counters();
    return c;
  }

 private:
  /// What the oracles need of one request.
  struct Outcome {
    long respelling_of;
    bool ok;
    uint64_t digest;  ///< AnswerDigest of its answers
  };
  struct Pass {
    std::vector<Outcome> outcomes;  ///< by request index
    /// Per shape, the first kOracleCandidates distinct fresh query texts.
    std::vector<std::vector<std::string>> fresh;
  };

  /// Times each compile layer on this request's text, outside the
  /// request's latency.
  void Probe(const std::string& text, SpanLog* spans, uint32_t root) {
    ScopedSpan probe(spans, "probe.compile", root);
    CompileProbe c(*db_, text);
    bool ok;
    {
      ScopedSpan s(spans, "query.parse", probe.id());
      ok = c.Parse();
    }
    {
      ScopedSpan s(spans, "query.canonicalize", probe.id());
      ok = ok && c.Canonicalize();
    }
    {
      ScopedSpan s(spans, "query.schema", probe.id());
      ok = ok && c.Schema();
    }
    {
      ScopedSpan s(spans, "lift.compile", probe.id());
      ok = ok && c.Lift();
    }
    {
      ScopedSpan s(spans, "dissociation.enumerate", probe.id());
      ok = ok && c.Enumerate();
    }
    if (!ok) return;
    ++counts_.probes;
    counts_.probes_lift_exact += c.lift_exact() ? 1 : 0;
    counts_.minimal_plans += c.minimal_plans();
  }

  const Options opts_;
  std::unique_ptr<Db> db_;
  std::unique_ptr<Engine> engine_;
  std::vector<Pass> passes_;
  LayerCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeAdhocQueries(const Options& opts) {
  return std::make_unique<AdhocQueries>(opts);
}

}  // namespace e2e
