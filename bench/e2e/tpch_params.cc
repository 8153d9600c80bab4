// tpch_params: the paper's own query (Section 5, Setup 1, Fig. 5e-h),
//   Q(a) :- Supplier(s,a), Partsupp(s,u), Part(u,m)
// with s_suppkey <= $1 and p_name LIKE $2, over the scale-1 TPC-H-style
// database (1.01M rows), prepared once with Opt. 3 on and executed by one
// closed-loop client.
//
// Why: prepare is amortised, so request time sits in exec (semi-join
// reduction, scan, join, project, min-merge, rank). The scheduler, result
// cache, writers and anytime are never touched, so a serve, storage or
// compile-path change must leave this workload flat. The '%' requests
// defeat the semi-join, so the tail is pure operator cost.
//
// Inputs, all built before the timer starts: a pool of 33 Part selections
// ($2: 15 two-colour '%c1%c2%', 15 one-colour '%c%', 3 '%') and 400
// Supplier selections whose $1 values follow a golden-ratio sequence over
// the suppliers. Request i binds Part selection order[i mod 33], a seeded
// permutation, so every 33 requests hold the class mix exactly; the n-th
// request of a class binds Supplier selection (class offset + n) mod 400,
// so each class's $1 values spread evenly over the suppliers however long
// the run, and every seed sees the same latency mix. A (Supplier, Part)
// pair recurs only after 1200 requests of its class, so the engine's
// Opt. 3 reduction cache never serves a repeat.
//
// Oracle: a seeded sample of the distinct requests (every class in it) is
// re-executed on a second engine with Opt. 3 off; every score must agree
// within 1e-9.
#include <cmath>
#include <cstdio>
#include <map>

#include "bench/e2e/workload.h"

namespace e2e {
namespace {

constexpr double kScale = 1.0;
constexpr int kTwoColour = 15;
constexpr int kOneColour = 15;
constexpr int kAllParts = 3;
constexpr int kPartPool = kTwoColour + kOneColour + kAllParts;
constexpr int kSupplierPool = 400;
/// Requests the oracle re-executes per class (two-colour, one-colour, '%').
constexpr int kOraclePerClass[3] = {10, 10, 4};

const char* kClassNames[3] = {"two-colour", "one-colour", "all"};

class TpchParams final : public Workload {
 public:
  explicit TpchParams(const Options& opts) : opts_(opts) {}

  void Setup() override {
    engine_.reset();
    suppliers_.clear();
    parts_.clear();
    db_.reset();
    db_ = std::make_unique<Db>(Db::Tpch(kScale, SubSeed(opts_.seed, 1)));

    Rand rng(SubSeed(opts_.seed, 2));
    const std::vector<std::string> colours = TpchColorWords();
    patterns_.clear();
    part_class_.clear();
    for (int i = 0; i < kPartPool; ++i) {
      const std::string c1 = colours[rng.Below(colours.size())];
      std::string c2 = c1;
      while (c2 == c1) c2 = colours[rng.Below(colours.size())];
      const int cls = i < kTwoColour ? 0 : i < kTwoColour + kOneColour ? 1 : 2;
      patterns_.push_back(cls == 0   ? "%" + c1 + "%" + c2 + "%"
                          : cls == 1 ? "%" + c1 + "%"
                                     : "%");
      part_class_.push_back(cls);
      parts_.push_back(db_->PartLike(patterns_.back()));
    }
    part_order_.resize(kPartPool);
    for (int i = 0; i < kPartPool; ++i) part_order_[i] = i;
    rng.Shuffle(&part_order_);

    const double suppliers = static_cast<double>(db_->Rows("Supplier"));
    double u = rng.Uniform();
    dollar1_.clear();
    for (int j = 0; j < kSupplierPool; ++j) {
      u += 0.6180339887498949;  // golden-ratio step: evenly spread $1
      u -= static_cast<int>(u);
      dollar1_.push_back(1 + static_cast<int64_t>(u * suppliers));
      suppliers_.push_back(db_->SupplierUpTo(dollar1_.back()));
    }
    Restart();
  }

  void Restart() override {
    engine_.reset();
    engine_ = std::make_unique<Engine>(*db_, EngineConfig{true, 1});
    std::string error;
    prepared_ = engine_->Prepare(TpchQueryText(), &error);
    if (!prepared_.valid()) {
      std::fprintf(stderr, "tpch_params: prepare failed: %s\n", error.c_str());
      std::abort();
    }
    // Warm-up: one request per class under tags the stream never uses, so
    // no reduction they leave in the cache is ever hit.
    for (int p : {0, kTwoColour, kPartPool - 1}) {
      Bind b = MakeBind(0, p);
      for (Bind::Atom& a : b.atoms) a.tag = "warm-up " + a.tag;
      (void)engine_->Execute(prepared_, b);
    }
    counts_ = LayerCounts{};
  }

  PassStats Run(double seconds, size_t max_requests, SpanLog* log) override {
    PassStats st;
    size_t issued[3] = {0, 0, 0};  // requests per class
    const uint64_t start = NowNs();
    for (size_t i = 0; KeepGoing(start, seconds, i, max_requests); ++i) {
      SpanLog* const spans = log != nullptr && log->Samples(i) ? log : nullptr;
      const int p = part_order_[i % kPartPool];
      const int cls = part_class_[p];
      const int s = static_cast<int>((kSupplierPool * cls / 3 + issued[cls]++) %
                                     kSupplierPool);
      Bind bind = MakeBind(s, p);
      bind.trace = spans != nullptr;

      uint32_t req = 0;
      if (spans != nullptr) {
        req = spans->Begin("request", 0);
        spans->Arg(req, "request_id", std::to_string(i));
        spans->Arg(req, "kind", kClassNames[cls]);
      }
      ExecResult r = engine_->Execute(prepared_, bind);
      if (spans != nullptr) {
        spans->Graft(spans->Add("engine.execute", req, r.call.start_ns,
                                r.call.end_ns),
                     r.trace);
        spans->End(req);
      }

      st.latency_ms.push_back(r.call.ms());
      ++st.attempted;
      if (!r.error.empty()) {
        NoteError(&st, patterns_[p] + ": " + r.error);
        continue;
      }
      ++counts_.executions;
      counts_.answers += r.answers.size();
      counts_.nodes_evaluated += r.nodes_evaluated;
      answers_.emplace(std::make_pair(s, p), std::move(r.answers));
    }
    st.elapsed_s = Ms(NowNs() - start) / 1e3;
    st.units = st.latency_ms.size();
    return st;
  }

  size_t Check(std::vector<std::string>* notes) override {
    Engine oracle(*db_, EngineConfig{false, 1});
    std::string error;
    const Prepared q = oracle.Prepare(TpchQueryText(), &error);
    if (!q.valid()) {
      notes->push_back("oracle prepare failed: " + error);
      return 1;
    }
    // A seeded, class-stratified sample of the distinct requests.
    std::vector<std::pair<int, int>> keys;
    for (const auto& [key, answers] : answers_) keys.push_back(key);
    Rand rng(SubSeed(opts_.seed, 3));
    rng.Shuffle(&keys);
    int taken[3] = {0, 0, 0};
    size_t mismatches = 0;
    for (const auto& [s, p] : keys) {
      const int cls = part_class_[p];
      if (taken[cls] >= kOraclePerClass[cls]) continue;
      ++taken[cls];
      const ExecResult ref = oracle.Execute(q, MakeBind(s, p));
      const std::vector<Answer>& got = answers_.at({s, p});
      std::string why;
      if (!ref.error.empty()) {
        why = "oracle failed: " + ref.error;
      } else if (ref.answers.size() != got.size()) {
        why = "answer count " + std::to_string(got.size()) + " vs " +
              std::to_string(ref.answers.size());
      } else {
        std::map<Tuple, double> expect;
        for (const Answer& a : ref.answers) expect[a.tuple] = a.score;
        for (const Answer& a : got) {
          auto it = expect.find(a.tuple);
          if (it == expect.end() || std::abs(it->second - a.score) > 1e-9) {
            why = "score differs from the Opt. 3-off engine";
            break;
          }
        }
      }
      if (!why.empty()) {
        ++mismatches;
        notes->push_back("tpch_params $1=" + std::to_string(dollar1_[s]) +
                         " $2=" + patterns_[p] + ": " + why);
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
  Bind MakeBind(int s, int p) const {
    Bind b;
    b.atoms.push_back({0, &suppliers_[s], "$1=" + std::to_string(dollar1_[s])});
    b.atoms.push_back({2, &parts_[p], "$2=" + patterns_[p]});
    return b;
  }

  const Options opts_;
  std::unique_ptr<Db> db_;
  std::vector<std::string> patterns_;
  std::vector<int> part_class_;
  std::vector<Selection> parts_;
  std::vector<int> part_order_;
  std::vector<int64_t> dollar1_;
  std::vector<Selection> suppliers_;
  std::unique_ptr<Engine> engine_;
  Prepared prepared_;
  /// First answers of every distinct (supplier, part) request.
  std::map<std::pair<int, int>, std::vector<Answer>> answers_;
  LayerCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpchParams(const Options& opts) {
  return std::make_unique<TpchParams>(opts);
}

}  // namespace e2e
