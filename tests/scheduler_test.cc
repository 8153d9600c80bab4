// Serving-layer scheduler: morsel coverage, work-sharing, and nesting.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "src/serve/scheduler.h"

namespace dissodb {
namespace {

TEST(SchedulerTest, ParallelForCoversEveryIndexExactlyOnce) {
  Scheduler pool(4);
  constexpr size_t kN = 100'000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(0, kN, 1024, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(SchedulerTest, ParallelForMorselIndexIsDerivableFromRange) {
  // Operators rely on lo being begin + k*grain to address per-morsel
  // buffers; verify the contract.
  Scheduler pool(3);
  constexpr size_t kN = 10'000;
  constexpr size_t kGrain = 256;
  const size_t num_morsels = (kN + kGrain - 1) / kGrain;
  std::vector<std::atomic<int>> seen(num_morsels);
  pool.ParallelFor(0, kN, kGrain, [&](size_t lo, size_t hi) {
    ASSERT_EQ(lo % kGrain, 0u);
    ASSERT_LE(hi, kN);
    seen[lo / kGrain].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t k = 0; k < num_morsels; ++k) EXPECT_EQ(seen[k].load(), 1);
}

TEST(SchedulerTest, ParallelForSmallRangeRunsInline) {
  Scheduler pool(2);
  int calls = 0;
  pool.ParallelFor(5, 9, 100, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 5u);
    EXPECT_EQ(hi, 9u);
  });
  EXPECT_EQ(calls, 1);
  pool.ParallelFor(7, 7, 8, [&](size_t, size_t) { FAIL(); });
}

TEST(SchedulerTest, RunAllExecutesEveryTask) {
  Scheduler pool(4);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> ran(kTasks);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&ran, i] { ran[i].fetch_add(1); });
  }
  pool.RunAll(std::move(tasks));
  for (int i = 0; i < kTasks; ++i) ASSERT_EQ(ran[i].load(), 1) << i;
  EXPECT_GE(pool.tasks_executed(), static_cast<size_t>(kTasks));
}

TEST(SchedulerTest, NestedParallelForInsideRunAllDoesNotDeadlock) {
  // The ExecuteBatch shape: query tasks saturate the pool, each fanning out
  // morsels on the same pool. Work-sharing (callers claim morsels too)
  // must keep this live even with a single pool thread.
  Scheduler pool(1);
  std::atomic<size_t> total{0};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < 8; ++t) {
    tasks.push_back([&] {
      pool.ParallelFor(0, 50'000, 1000, [&](size_t lo, size_t hi) {
        total.fetch_add(hi - lo, std::memory_order_relaxed);
      });
    });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(total.load(), 8u * 50'000);
}

TEST(SchedulerTest, SubmitRunsDetachedWork) {
  // cv/mu declared before the pool: the pool's destructor joins its
  // workers, so no task can outlive what it captures.
  std::mutex mu;
  std::condition_variable cv;
  int ran = 0;
  Scheduler pool(2);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] {
      std::lock_guard lock(mu);
      if (++ran == 10) cv.notify_one();
    });
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return ran == 10; });
  EXPECT_EQ(ran, 10);
}

TEST(SchedulerTest, CancelledTasksAreSkippedButAlwaysCompleted) {
  // The anytime refinement barrier depends on this: every cancellable
  // task invokes its `done` callback exactly once whether it ran or was
  // skipped, so a WaitGroup-style join never hangs after a cancel.
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  std::atomic<int> bodies_run{0};
  constexpr int kTasks = 64;

  auto token = std::make_shared<CancelToken>();
  Scheduler pool(3);
  for (int i = 0; i < kTasks; ++i) {
    if (i == kTasks / 2) token->Cancel();  // mid-submission cancel
    pool.Submit([&] { bodies_run.fetch_add(1, std::memory_order_relaxed); },
                "cancel-test", token, [&] {
                  std::lock_guard lock(mu);
                  if (++completed == kTasks) cv.notify_one();
                });
  }
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return completed == kTasks; });
  }
  EXPECT_EQ(completed, static_cast<size_t>(kTasks));
  // Everything submitted after the cancel is skipped; tasks already
  // dequeued before it may have run.
  EXPECT_LE(bodies_run.load(), kTasks / 2);
  EXPECT_GE(pool.tasks_cancelled(), static_cast<size_t>(kTasks / 2));
}

TEST(SchedulerTest, DeadlineTokenAutoCancels) {
  auto token = std::make_shared<CancelToken>(obs::NowNanos());  // expired
  EXPECT_TRUE(token->cancelled());
  std::atomic<int> bodies_run{0};
  std::mutex mu;
  std::condition_variable cv;
  bool completed = false;
  Scheduler pool(2);
  pool.Submit([&] { bodies_run.fetch_add(1); }, "deadline-test", token, [&] {
    std::lock_guard lock(mu);
    completed = true;
    cv.notify_one();
  });
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return completed; });
  EXPECT_EQ(bodies_run.load(), 0);
}

}  // namespace
}  // namespace dissodb
