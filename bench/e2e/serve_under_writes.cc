// serve_under_writes: batched serving beside a writer. One closed-loop
// client issues ExecuteBatch calls of 16 bindings of
//   q(x) :- R(x,$0), S($0)
// over a 1M-row R(a,b) (1024 keys b, ~977 rows each) and S(b), with $0
// skewed (Zipf, s = 1) over a seeded hot set of 64 keys, while an
// open-loop writer thread commits 50 transactions per second: 9 in every
// 10 append 256 fresh rows to R (keys uniform), 1 scales every probability
// (a non-append commit, which sweeps the result cache instead of
// delta-maintaining it). The engine pool has nproc - 2 threads, so client,
// writer and pool together use nproc.
//
// Why: the same exec operators as tpch_params, used another way — writes
// beside reads. This stresses serve (queue wait, the result cache, which
// fits here with 64 hot keys, delta maintenance vs sweep) and
// storage commits; a read-path gain that costs writes, or the reverse,
// shows here and nowhere else. Commits are timed from their due time, so
// a stalled writer counts the wait it imposes on later commits.
//
// Oracle: after the writer stops, a batch over every value must be
// bit-identical to sequential Execute calls.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/e2e/workload.h"

namespace e2e {
namespace {

constexpr size_t kRows = 1'000'000;
constexpr int64_t kKeys = 1024;
constexpr int64_t kHotKeys = 64;
constexpr int kBatch = 16;
constexpr double kZipfExponent = 1.0;
constexpr uint64_t kCommitIntervalNs = 20'000'000;  // 50 commits/s
constexpr size_t kAppendRows = 256;
constexpr double kScaleFactor = 0.98;
constexpr char kQuery[] = "q(x) :- R(x,$0), S($0)";

class ServeUnderWrites final : public Workload {
 public:
  explicit ServeUnderWrites(const Options& opts) : opts_(opts) {}

  void Setup() override {
    // Zipf popularity over a seeded hot set of keys.
    Rand rng(SubSeed(opts_.seed, 2));
    std::vector<int64_t> keys(kKeys);
    for (int64_t k = 0; k < kKeys; ++k) keys[k] = k;
    rng.Shuffle(&keys);
    key_by_rank_.assign(keys.begin(), keys.begin() + kHotKeys);
    cdf_.clear();
    double total = 0;
    for (int64_t r = 0; r < kHotKeys; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    Restart();
  }

  // The writer of an earlier pass changed the database, so a restart
  // rebuilds it from the seed as well.
  void Restart() override {
    engine_.reset();
    db_.reset();
    db_ = std::make_unique<Db>(Db::Serve(kRows, kKeys, SubSeed(opts_.seed, 1)));
    next_fresh_a_ = 4 * static_cast<int64_t>(kRows) / kKeys;
    engine_ = std::make_unique<Engine>(
        *db_, EngineConfig{false, std::max(1, opts_.nproc - 2)});
    std::string error;
    prepared_ = engine_->Prepare(kQuery, &error);
    if (!prepared_.valid()) {
      std::fprintf(stderr, "serve_under_writes: prepare failed: %s\n",
                   error.c_str());
      std::abort();
    }
    (void)engine_->ExecuteBatch(prepared_, AllValues());  // warm the cache
    counts_ = LayerCounts{};
  }

  PassStats Run(double seconds, size_t max_requests, SpanLog* log) override {
    PassStats st;
    std::atomic<bool> stop{false};
    std::vector<CommitRecord> commits;
    std::thread writer([&] { WriterLoop(&stop, &commits, log); });

    Rand rng(SubSeed(opts_.seed, 3));
    const uint64_t start = NowNs();
    for (size_t i = 0; KeepGoing(start, seconds, i, max_requests); ++i) {
      SpanLog* const spans = log != nullptr && log->Samples(i) ? log : nullptr;
      std::vector<Bind> binds(kBatch);
      for (Bind& b : binds) {
        const double u = rng.Uniform();
        const size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
        b.params.emplace_back(0, key_by_rank_[std::min<size_t>(rank, kHotKeys - 1)]);
        b.trace = spans != nullptr;
      }

      uint32_t req = 0;
      if (spans != nullptr) {
        req = spans->Begin("request", 0);
        spans->Arg(req, "request_id", std::to_string(i));
        spans->Arg(req, "kind", "batch");
        // How long a reader waits to pin a version while commits publish.
        const uint64_t t = NowNs();
        const uint64_t took = db_->TimeSnapshot();
        spans->Add("storage.snapshot", req, t, t + took);
      }
      std::vector<ExecResult> results = engine_->ExecuteBatch(prepared_, binds);
      const CallTime call = results.front().call;
      if (spans != nullptr) {
        const uint32_t id = spans->Add("engine.execute_batch", req,
                                       call.start_ns, call.end_ns);
        for (const ExecResult& r : results) spans->Graft(id, r.trace);
        spans->End(req);
      }

      st.latency_ms.push_back(call.ms());
      st.units += results.size();
      st.attempted += results.size();
      for (const ExecResult& r : results) {
        if (!r.error.empty()) {
          NoteError(&st, r.error);
          continue;
        }
        ++counts_.executions;
        counts_.answers += r.answers.size();
        counts_.nodes_evaluated += r.nodes_evaluated;
      }
    }
    st.elapsed_s = Ms(NowNs() - start) / 1e3;
    stop.store(true, std::memory_order_release);
    writer.join();

    for (const CommitRecord& c : commits) {
      ++st.attempted;
      if (!c.times.error.empty()) NoteError(&st, "commit: " + c.times.error);
    }
    counts_.commits.insert(counts_.commits.end(), commits.begin(), commits.end());
    return st;
  }

  size_t Check(std::vector<std::string>* notes) override {
    const std::vector<Bind> binds = AllValues();
    const std::vector<ExecResult> batch = engine_->ExecuteBatch(prepared_, binds);
    size_t mismatches = 0;
    for (size_t i = 0; i < binds.size(); ++i) {
      const ExecResult seq = engine_->Execute(prepared_, binds[i]);
      if (!batch[i].error.empty() || !seq.error.empty() ||
          !SameAnswers(batch[i].answers, seq.answers)) {
        ++mismatches;
        notes->push_back("serve_under_writes: batch result for $0=" +
                         std::to_string(binds[i].params[0].second) +
                         " differs from sequential Execute");
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
  /// One binding per hot key.
  std::vector<Bind> AllValues() const {
    std::vector<Bind> binds(kHotKeys);
    for (int64_t r = 0; r < kHotKeys; ++r) {
      binds[r].params.emplace_back(0, key_by_rank_[r]);
    }
    return binds;
  }

  /// Open loop: commit j is due at start + j * 20 ms whatever happened to
  /// commit j-1; in every block of 10, one seeded slot is a rescale.
  void WriterLoop(const std::atomic<bool>* stop,
                  std::vector<CommitRecord>* commits, SpanLog* spans) {
    Rand rng(SubSeed(opts_.seed, 4));
    const uint64_t start = NowNs();
    size_t scale_slot = 0;
    bool scale_down = true;
    int64_t next_a = next_fresh_a_;
    for (uint64_t j = 0;; ++j) {
      const uint64_t due = start + j * kCommitIntervalNs;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      if (stop->load(std::memory_order_acquire)) return;
      if (j % 10 == 0) scale_slot = rng.Below(10);

      CommitRecord rec;
      rec.due_ns = due;
      if (j % 10 == scale_slot) {
        rec.times = db_->ScaleProbabilities(scale_down ? kScaleFactor
                                                       : 1 / kScaleFactor);
        scale_down = !scale_down;
      } else {
        // Fresh a-values keep R a set: no appended tuple repeats one.
        std::vector<Tuple> rows(kAppendRows);
        std::vector<double> probs(kAppendRows);
        for (size_t r = 0; r < kAppendRows; ++r) {
          rows[r] = {next_a++, static_cast<int64_t>(rng.Below(kKeys))};
          probs[r] = 0.05 + 0.9 * rng.Uniform();
        }
        rec.times = db_->Append("R", rows, probs);
      }
      if (spans != nullptr) {
        const CommitTimes& t = rec.times;
        const uint32_t c = spans->Add("commit", 0, t.stage_start, t.commit_end);
        spans->Arg(c, "commit_id", std::to_string(j));
        spans->Add("storage.stage", c, t.stage_start, t.commit_start);
        spans->Add("storage.commit", c, t.commit_start, t.commit_end);
      }
      commits->push_back(rec);
      next_fresh_a_ = next_a;
    }
  }

  const Options opts_;
  std::unique_ptr<Db> db_;
  std::vector<int64_t> key_by_rank_;
  /// Above every a-value in R: where the next append starts.
  int64_t next_fresh_a_ = 0;
  std::vector<double> cdf_;
  std::unique_ptr<Engine> engine_;
  Prepared prepared_;
  LayerCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeUnderWrites(const Options& opts) {
  return std::make_unique<ServeUnderWrites>(opts);
}

}  // namespace e2e
