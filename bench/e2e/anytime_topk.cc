// anytime_topk: RunWithGuarantees on the controlled-fanout 3-chain
//   q(a) :- A(a,x), B(x,y), C(y)
// (the Fig. 5l-p shape, ~200k B rows). Every answer needs lineage work for
// an exact probability, and A is cut into 8 tagged slices by answer, one
// bound per request. One closed-loop client; the engine pool has nproc - 1
// threads. Requests are 40% bounds-only, 40% certified top-10 and 20% with
// an interval-width target epsilon = 0.02; every block of 40 holds each
// slice exactly 2 + 2 + 1 times, in seeded order, so every seed sees the
// same mix.
//
// Why: the only workload that reaches anytime (bounds, interval ranking,
// refinement) and, inside refinement, lineage and infer. Bounds-only
// requests isolate the two dissociation evaluations (upper, and the
// oblivious lower bound); certified requests add refinement of just the
// answers that contest a rank boundary.
//
// Oracle: exact probabilities computed once on the full database (slicing
// A by answer keeps each answer's lineage whole); every returned interval
// must bracket its answer's, and every certified top-k prefix must be
// dominant.
#include <cstdio>
#include <map>

#include "bench/e2e/workload.h"

namespace e2e {
namespace {

constexpr int kSlices = 8;
constexpr char kQuery[] = "q(a) :- A(a,x), B(x,y), C(y)";

enum Mode { kBounds, kTop10, kEpsilon };
const char* kModeNames[] = {"bounds", "top10", "epsilon"};
/// One slice's share of a block.
constexpr Mode kModesPerSlice[5] = {kBounds, kBounds, kTop10, kTop10, kEpsilon};
constexpr size_t kBlock = kSlices * 5;

Guarantee ForMode(Mode m) {
  Guarantee g;
  if (m == kTop10) g.top_k = 10;
  if (m == kEpsilon) g.epsilon = 0.02;
  return g;
}

class AnytimeTopk final : public Workload {
 public:
  explicit AnytimeTopk(const Options& opts) : opts_(opts) {}

  void Setup() override {
    engine_.reset();
    slices_.clear();
    db_.reset();
    db_ = std::make_unique<Db>(Db::Fanout(FanoutShape{}, SubSeed(opts_.seed, 1)));
    for (int s = 0; s < kSlices; ++s) {
      slices_.push_back(db_->RowsModulo("A", 0, kSlices, s));
    }
    Restart();
  }

  void Restart() override {
    engine_.reset();
    engine_ = std::make_unique<Engine>(
        *db_, EngineConfig{false, std::max(1, opts_.nproc - 1)});
    std::string error;
    prepared_ = engine_->Prepare(kQuery, &error);
    if (!prepared_.valid()) {
      std::fprintf(stderr, "anytime_topk: prepare failed: %s\n", error.c_str());
      std::abort();
    }
    for (Mode m : {kBounds, kTop10, kEpsilon}) {
      (void)engine_->RunWithGuarantees(prepared_, MakeBind(0), ForMode(m));
    }
    counts_ = LayerCounts{};
  }

  PassStats Run(double seconds, size_t max_requests, SpanLog* log) override {
    PassStats st;
    Rand rng(SubSeed(opts_.seed, 2));
    std::vector<std::pair<int, Mode>> block;
    const uint64_t start = NowNs();
    for (size_t i = 0; KeepGoing(start, seconds, i, max_requests); ++i) {
      SpanLog* const spans = log != nullptr && log->Samples(i) ? log : nullptr;
      if (i % kBlock == 0) {
        block.clear();
        for (int s = 0; s < kSlices; ++s) {
          for (Mode m : kModesPerSlice) block.emplace_back(s, m);
        }
        rng.Shuffle(&block);
      }
      const auto [slice, mode] = block[i % kBlock];
      Bind bind = MakeBind(slice);
      bind.trace = spans != nullptr;

      uint32_t req = 0;
      if (spans != nullptr) {
        req = spans->Begin("request", 0);
        spans->Arg(req, "request_id", std::to_string(i));
        spans->Arg(req, "kind", kModeNames[mode]);
      }
      AnytimeResult r = engine_->RunWithGuarantees(prepared_, bind, ForMode(mode));
      if (spans != nullptr) {
        spans->Graft(spans->Add("engine.run_with_guarantees", req,
                                r.call.start_ns, r.call.end_ns),
                     r.trace);
        spans->End(req);
      }

      st.latency_ms.push_back(r.call.ms());
      ++st.attempted;
      if (!r.error.empty()) {
        NoteError(&st, r.error);
        continue;
      }
      ++counts_.anytime_runs;
      if (mode != kBounds) {
        ++counts_.anytime_with_targets;
        counts_.anytime_certified += r.certified ? 1 : 0;
      }
      counts_.anytime_answers += r.answers.size();
      counts_.refined_answers += r.refined_answers;
      counts_.refine_rounds += r.refine_rounds;
      counts_.mc_samples += r.mc_samples;
      Kept& kept = kept_.emplace_back();
      kept.certified_prefix = r.certified_prefix;
      for (const Interval& a : r.answers) {
        kept.answer.push_back(a.tuple[0]);
        kept.lower.push_back(a.lower);
        kept.upper.push_back(a.upper);
        kept.sampled.push_back(a.sampled);
      }
    }
    st.elapsed_s = Ms(NowNs() - start) / 1e3;
    st.units = st.latency_ms.size();
    return st;
  }

  size_t Check(std::vector<std::string>* notes) override {
    std::map<Tuple, double> exact;
    std::string error;
    if (!ExactProbabilities(*db_, kQuery, &exact, &error)) {
      notes->push_back("anytime_topk: exact oracle failed: " + error);
      return 1;
    }
    size_t mismatches = 0;
    for (const Kept& r : kept_) {
      std::string why;
      std::vector<double> p(r.answer.size(), 0.0);
      for (size_t i = 0; i < r.answer.size() && why.empty(); ++i) {
        auto it = exact.find(Tuple{r.answer[i]});
        if (it == exact.end()) {
          why = "answer without lineage";
          break;
        }
        p[i] = it->second;
        if (r.lower[i] > p[i] + 1e-9 || r.upper[i] < p[i] - 1e-9) {
          why = std::string(r.sampled[i] ? "sampled " : "") +
                "interval misses P(q = a)";
        }
      }
      for (size_t i = 0; i < r.certified_prefix && why.empty(); ++i) {
        for (size_t j = i + 1; j < p.size(); ++j) {
          if (p[i] < p[j] - 1e-9) {
            why = "certified position " + std::to_string(i) + " not dominant";
            break;
          }
        }
      }
      if (!why.empty()) {
        ++mismatches;
        notes->push_back("anytime_topk: " + why);
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
  Bind MakeBind(int slice) const {
    Bind b;
    b.atoms.push_back({0, &slices_[slice], "A%8=" + std::to_string(slice)});
    return b;
  }

  const Options opts_;
  std::unique_ptr<Db> db_;
  std::vector<Selection> slices_;
  std::unique_ptr<Engine> engine_;
  Prepared prepared_;
  /// Each answered request's intervals, compactly: q(a) answers are one
  /// value, and a run keeps tens of thousands of them.
  struct Kept {
    std::vector<int64_t> answer;
    std::vector<double> lower, upper;
    std::vector<bool> sampled;
    size_t certified_prefix = 0;
  };
  std::vector<Kept> kept_;
  LayerCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnytimeTopk(const Options& opts) {
  return std::make_unique<AnytimeTopk>(opts);
}

}  // namespace e2e
