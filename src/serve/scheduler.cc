#include "src/serve/scheduler.h"

#include <algorithm>
#include <memory>

namespace dissodb {

Scheduler::Scheduler(int num_threads, obs::MetricsRegistry* metrics)
    : metrics_(metrics != nullptr ? metrics : &obs::MetricsRegistry::Global()),
      tasks_executed_(metrics_->counter("scheduler.tasks_executed")),
      tasks_cancelled_(metrics_->counter("scheduler.tasks_cancelled")),
      morsels_(metrics_->counter("scheduler.morsels")),
      busy_workers_(metrics_->gauge("scheduler.busy_workers")),
      pool_threads_(metrics_->gauge("scheduler.pool_threads")) {
  if (num_threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  pool_threads_->Set(num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

Scheduler::ClassMetrics* Scheduler::MetricsFor(const char* task_class) {
  // Caller holds mu_. The per-scheduler cache keeps the registry's map
  // lookup off the Submit path after a class's first use.
  auto it = class_metrics_.find(task_class);
  if (it != class_metrics_.end()) return &it->second;
  ClassMetrics cm;
  cm.queue_wait = metrics_->histogram(std::string("scheduler.queue_wait_ns.") +
                                      task_class);
  cm.run = metrics_->histogram(std::string("scheduler.run_ns.") + task_class);
  return &class_metrics_.emplace(task_class, cm).first->second;
}

void Scheduler::RunTask(QueuedTask task) {
  if (task.token != nullptr && task.token->cancelled()) {
    // Skip without running: record the queue wait (the task did wait), but
    // not a run time — it never started.
    task.cm->queue_wait->Record(obs::NowNanos() - task.enqueue_ns);
    local_cancelled_.fetch_add(1, std::memory_order_relaxed);
    tasks_cancelled_->Add(1);
    if (task.done) task.done();
    return;
  }
  const uint64_t start = obs::NowNanos();
  task.cm->queue_wait->Record(start - task.enqueue_ns);
  busy_workers_->Add(1);
  task.fn();
  busy_workers_->Add(-1);
  task.cm->run->Record(obs::NowNanos() - start);
  CountTask();
  if (task.done) task.done();
}

void Scheduler::WorkerLoop() {
  while (true) {
    QueuedTask task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(std::move(task));
  }
}

void Scheduler::Submit(std::function<void()> fn, const char* task_class,
                       std::shared_ptr<const CancelToken> token,
                       std::function<void()> done) {
  const uint64_t now = obs::NowNanos();
  {
    std::lock_guard lock(mu_);
    queue_.push_back(QueuedTask{std::move(fn), now, MetricsFor(task_class),
                                std::move(token), std::move(done)});
  }
  cv_.notify_one();
}

bool Scheduler::TryRunOne() {
  QueuedTask task;
  {
    std::lock_guard lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  RunTask(std::move(task));
  return true;
}

namespace {

/// Completion state shared between a blocking caller and its pool tasks.
struct WaitGroup {
  std::mutex mu;
  std::condition_variable cv;
  size_t pending;

  explicit WaitGroup(size_t n) : pending(n) {}

  void Done(size_t n = 1) {
    std::lock_guard lock(mu);
    pending -= n;
    if (pending == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock lock(mu);
    cv.wait(lock, [this] { return pending == 0; });
  }
};

}  // namespace

void Scheduler::RunAll(std::vector<std::function<void()>> fns) {
  if (fns.empty()) return;
  if (fns.size() == 1) {
    fns[0]();
    CountTask();
    return;
  }
  // Shared cursor: pool threads and the caller claim tasks from the same
  // counter, so the caller always makes progress (no deadlock if the pool
  // is saturated by other work, including the caller's own parent task).
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto wg = std::make_shared<WaitGroup>(fns.size());
  auto tasks = std::make_shared<std::vector<std::function<void()>>>(
      std::move(fns));
  const size_t n = tasks->size();

  auto drain = [this, next, wg, tasks, n] {
    size_t i;
    while ((i = next->fetch_add(1, std::memory_order_relaxed)) < n) {
      (*tasks)[i]();
      CountTask();
      wg->Done();
    }
  };
  const size_t helpers =
      std::min(n - 1, static_cast<size_t>(num_threads()));
  for (size_t i = 0; i < helpers; ++i) Submit(drain, "helper");
  drain();
  wg->Wait();
}

void Scheduler::ParallelFor(size_t begin, size_t end, size_t grain,
                            const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t num_morsels = (n + grain - 1) / grain;
  if (num_morsels <= 1 || num_threads() == 0) {
    fn(begin, end);
    CountTask();
    morsels_->Add(1);
    return;
  }

  // Pool helpers may still be queued (or racing the cursor) after the last
  // morsel finishes, so everything they touch — cursor, wait group, and a
  // copy of `fn` — lives in shared state rather than the caller's frame.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto wg = std::make_shared<WaitGroup>(num_morsels);
  auto shared_fn = std::make_shared<std::function<void(size_t, size_t)>>(fn);
  auto drain = [this, next, wg, shared_fn, begin, end, grain, num_morsels] {
    size_t k;
    while ((k = next->fetch_add(1, std::memory_order_relaxed)) < num_morsels) {
      const size_t lo = begin + k * grain;
      const size_t hi = std::min(lo + grain, end);
      (*shared_fn)(lo, hi);
      CountTask();
      wg->Done();
    }
  };
  morsels_->Add(num_morsels);
  const size_t helpers =
      std::min(num_morsels - 1, static_cast<size_t>(num_threads()));
  for (size_t i = 0; i < helpers; ++i) Submit(drain, "helper");
  drain();
  wg->Wait();
}

}  // namespace dissodb
