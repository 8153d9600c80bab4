// Fixed thread pool with a shared work queue, used by the serving layer for
// two kinds of parallelism:
//   - inter-query: independent plan evaluations of a batch run concurrently
//     (QueryEngine::Submit / ExecuteBatch submit one task per query), and
//   - intra-operator: the hot vectorized operators split their row ranges
//     into morsels and fan them out (ParallelFor), so one large join or
//     grouping uses all cores.
//
// ParallelFor is *work-sharing*: the calling thread claims morsels from the
// same atomic cursor as the pool threads, so nested calls (a pooled query
// task invoking a morsel-parallel operator on the same scheduler) can never
// deadlock — the caller always makes progress even if every pool thread is
// busy elsewhere.
//
// Telemetry: every queue task records its enqueue->start wait and its run
// time into per-task-class histograms on the attached MetricsRegistry
// (scheduler.queue_wait_ns.<class> / scheduler.run_ns.<class>), alongside
// a busy-worker gauge and a ParallelFor morsel counter — the raw data for
// tail-latency work on the serve-under-writer path. Task classes are
// caller-chosen labels (the engine submits query tasks as "query"; the
// internal morsel drain helpers are "helper").
#ifndef DISSODB_SERVE_SCHEDULER_H_
#define DISSODB_SERVE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"

namespace dissodb {

/// \brief Cooperative cancellation handle shared between a controller and
/// the tasks it schedules (the anytime refinement rounds are the first
/// user: a deadline must abort cleanly mid-refinement). A token trips
/// either explicitly (Cancel) or implicitly once `deadline_ns` (absolute,
/// obs::NowNanos clock) passes. Checking is lock-free; tasks poll it
/// between work batches, and the Scheduler skips queued tasks whose token
/// is already tripped when they would start.
class CancelToken {
 public:
  CancelToken() = default;
  /// Auto-cancels once NowNanos() >= deadline_ns; 0 = no deadline.
  explicit CancelToken(uint64_t deadline_ns) : deadline_ns_(deadline_ns) {}

  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    return deadline_ns_ != 0 && obs::NowNanos() >= deadline_ns_;
  }

 private:
  std::atomic<bool> cancelled_{false};
  uint64_t deadline_ns_ = 0;
};

class Scheduler {
 public:
  /// Starts `num_threads` workers; 0 means std::thread::hardware_concurrency.
  /// Telemetry lands on `metrics` (nullptr = the process-global registry).
  explicit Scheduler(int num_threads = 0,
                     obs::MetricsRegistry* metrics = nullptr);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Total tasks executed (queue tasks + morsels) by *this* pool, for
  /// serving stats. Kept per-instance (the registry counter with the same
  /// meaning aggregates across every pool sharing the registry).
  size_t tasks_executed() const {
    return local_tasks_.load(std::memory_order_relaxed);
  }

  /// Enqueues `fn` for execution on some pool thread. `task_class` labels
  /// the queue-wait / run-time histograms the task records into; reuse a
  /// small set of stable names ("query", "helper", default "task").
  ///
  /// With a `token`, `fn` is skipped (never invoked) when the token is
  /// already cancelled at the moment the task would start — counted in
  /// scheduler.tasks_cancelled instead of the run histogram. `done`, when
  /// non-null, is invoked exactly once either way (after `fn` returns and
  /// the task's run time and count are recorded, or at skip time), so a
  /// controller can join on a round of cancellable tasks without futures
  /// that a skip would leave unresolved, and a caller woken by `done` sees
  /// the task in the telemetry.
  void Submit(std::function<void()> fn, const char* task_class = "task",
              std::shared_ptr<const CancelToken> token = nullptr,
              std::function<void()> done = nullptr);

  /// Tasks skipped because their token was cancelled before they started.
  size_t tasks_cancelled() const {
    return local_cancelled_.load(std::memory_order_relaxed);
  }

  /// Runs one queued task on the calling thread, if any is pending; returns
  /// whether a task ran. Lets a thread that is about to block on an
  /// external completion (e.g. a QueryEngine::Submit future) help drain the
  /// queue instead of idling — the work-sharing idea of ParallelFor applied
  /// to whole queue tasks.
  bool TryRunOne();

  /// Runs all of `fns` and returns when every one has finished. The calling
  /// thread participates, so this works even with zero pool threads.
  void RunAll(std::vector<std::function<void()>> fns);

  /// Splits [begin, end) into morsels of at most `grain` rows and runs
  /// `fn(lo, hi)` for each, in parallel, returning when all morsels are
  /// done. Morsel index k covers [begin + k*grain, ...); callers that need
  /// deterministic output collect per-morsel buffers indexed by
  /// (lo - begin) / grain and concatenate in index order.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  /// Cached per-class metric handles (one histogram pair per task class).
  struct ClassMetrics {
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* run = nullptr;
  };

  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
    ClassMetrics* cm = nullptr;
    /// Non-null for cancellable tasks (Submit with a CancelToken).
    std::shared_ptr<const CancelToken> token;
    /// Completion callback; invoked whether the task ran or was skipped.
    std::function<void()> done;
  };

  void WorkerLoop();
  /// Dequeued-task body shared by WorkerLoop and TryRunOne: records the
  /// queue wait, runs, records the run time, counts the task.
  void RunTask(QueuedTask task);
  /// Handle lookup (under mu_) with a per-scheduler cache.
  ClassMetrics* MetricsFor(const char* task_class);

  /// Counts a finished task into both the per-instance total and the
  /// registry counter.
  void CountTask() {
    local_tasks_.fetch_add(1, std::memory_order_relaxed);
    tasks_executed_->Add(1);
  }

  obs::MetricsRegistry* metrics_;
  std::atomic<size_t> local_tasks_{0};
  std::atomic<size_t> local_cancelled_{0};
  obs::Counter* tasks_executed_;
  obs::Counter* tasks_cancelled_;
  obs::Counter* morsels_;
  obs::Gauge* busy_workers_;
  obs::Gauge* pool_threads_;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  std::unordered_map<std::string, ClassMetrics> class_metrics_;
  bool shutdown_ = false;
};

}  // namespace dissodb

#endif  // DISSODB_SERVE_SCHEDULER_H_
