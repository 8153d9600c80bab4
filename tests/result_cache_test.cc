// Workload-shared subplan result cache: hits, version invalidation, LRU.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/result_cache.h"

namespace dissodb {
namespace {

std::shared_ptr<const Rel> OneRowRel(double score) {
  Rel r(std::vector<VarId>{0});
  std::vector<Value> row = {Value::Int64(1)};
  r.AddRow(row, score);
  return std::make_shared<const Rel>(std::move(r));
}

TEST(ResultCacheTest, PutThenGetSameVersionHits) {
  ResultCache cache(8);
  cache.Put("k", 1, OneRowRel(0.5));
  auto hit = cache.Get("k", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->Score(0), 0.5);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheTest, VersionMismatchIsAMissButOldVersionStaysServable) {
  ResultCache cache(8);
  cache.Put("k", 1, OneRowRel(0.5));
  EXPECT_EQ(cache.Get("k", 2), nullptr);  // newer snapshot: its own miss
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  // Entries are (key, version)-scoped: executions pinned to the older
  // snapshot keep hitting their own entry.
  EXPECT_NE(cache.Get("k", 1), nullptr);
}

TEST(ResultCacheTest, EvictOlderThanSweepsDeadVersionsOnly) {
  ResultCache cache(8);
  cache.Put("a", 1, OneRowRel(0.1));
  cache.Put("b", 2, OneRowRel(0.2));
  cache.Put("c", 3, OneRowRel(0.3));
  // Oldest live snapshot pins version 3: versions 1 and 2 are dead.
  EXPECT_EQ(cache.EvictOlderThan(3), 2u);
  auto s = cache.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(cache.Get("a", 1), nullptr);
  EXPECT_EQ(cache.Get("b", 2), nullptr);
  EXPECT_NE(cache.Get("c", 3), nullptr);
  // Idempotent once swept.
  EXPECT_EQ(cache.EvictOlderThan(3), 0u);
}

TEST(ResultCacheTest, LruEvictionKeepsRecentlyUsedEntries) {
  ResultCache cache(2);
  cache.Put("a", 1, OneRowRel(0.1));
  cache.Put("b", 1, OneRowRel(0.2));
  ASSERT_NE(cache.Get("a", 1), nullptr);  // refresh a; b is now LRU
  cache.Put("c", 1, OneRowRel(0.3));     // evicts b
  EXPECT_NE(cache.Get("a", 1), nullptr);
  EXPECT_EQ(cache.Get("b", 1), nullptr);
  EXPECT_NE(cache.Get("c", 1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCacheTest, CapacityZeroDisablesStorage) {
  ResultCache cache(0);
  cache.Put("k", 1, OneRowRel(0.5));
  EXPECT_EQ(cache.Get("k", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, PutRefreshesExistingKeyPerVersion) {
  ResultCache cache(4);
  cache.Put("k", 1, OneRowRel(0.5));
  cache.Put("k", 3, OneRowRel(0.7));
  cache.Put("k", 3, OneRowRel(0.9));  // refresh of (k, 3)
  auto hit = cache.Get("k", 3);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->Score(0), 0.9);
  // Two versions coexist until swept.
  EXPECT_EQ(cache.stats().entries, 2u);
  ASSERT_NE(cache.Get("k", 1), nullptr);
  EXPECT_DOUBLE_EQ(cache.Get("k", 1)->Score(0), 0.5);
  cache.EvictOlderThan(3);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// In-flight deduplication: concurrent requesters of one missing key get one
// leader (which computes) and waiters (which block on the leader's future).
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, AcquireHandsOutExactlyOneLeader) {
  ResultCache cache(8);
  auto t1 = cache.Acquire("k", 1);
  EXPECT_TRUE(t1.leader);
  EXPECT_EQ(t1.value, nullptr);
  auto t2 = cache.Acquire("k", 1);
  EXPECT_FALSE(t2.leader);
  EXPECT_EQ(t2.value, nullptr);
  ASSERT_TRUE(t2.pending.valid());

  cache.Complete("k", 1, OneRowRel(0.5));
  auto rel = t2.pending.get();
  ASSERT_NE(rel, nullptr);
  EXPECT_DOUBLE_EQ(rel->Score(0), 0.5);

  // After completion the value is a plain hit.
  auto t3 = cache.Acquire("k", 1);
  ASSERT_NE(t3.value, nullptr);
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);  // only the leader counts as a computation
  EXPECT_EQ(s.in_flight_waits, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(ResultCacheTest, WaiterBlocksUntilLeaderCompletes) {
  ResultCache cache(8);
  auto leader = cache.Acquire("k", 1);
  ASSERT_TRUE(leader.leader);

  std::shared_ptr<const Rel> got;
  std::thread waiter([&cache, &got] {
    auto t = cache.Acquire("k", 1);
    EXPECT_FALSE(t.leader);
    got = t.value ? t.value : t.pending.get();
  });
  cache.Complete("k", 1, OneRowRel(0.7));
  waiter.join();
  ASSERT_NE(got, nullptr);
  EXPECT_DOUBLE_EQ(got->Score(0), 0.7);
}

TEST(ResultCacheTest, AbandonWakesWaitersWithNull) {
  ResultCache cache(8);
  auto leader = cache.Acquire("k", 1);
  ASSERT_TRUE(leader.leader);
  auto waiter = cache.Acquire("k", 1);
  ASSERT_FALSE(waiter.leader);
  cache.Abandon("k", 1);
  EXPECT_EQ(waiter.pending.get(), nullptr);
  // Nothing was stored; the next Acquire leads again.
  auto retry = cache.Acquire("k", 1);
  EXPECT_TRUE(retry.leader);
  cache.Complete("k", 1, OneRowRel(0.9));
  EXPECT_NE(cache.Get("k", 1), nullptr);
}

TEST(ResultCacheTest, InFlightEntriesAreVersionScoped) {
  ResultCache cache(8);
  auto v1 = cache.Acquire("k", 1);
  EXPECT_TRUE(v1.leader);
  // A different database version must not wait on the v1 computation.
  auto v2 = cache.Acquire("k", 2);
  EXPECT_TRUE(v2.leader);
  cache.Complete("k", 1, OneRowRel(0.1));
  cache.Complete("k", 2, OneRowRel(0.2));
  // The second Complete refreshed the entry to version 2.
  auto hit = cache.Get("k", 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->Score(0), 0.2);
}

TEST(ResultCacheTest, ConcurrentAcquireComputesEachKeyOnce) {
  ResultCache cache(64);
  constexpr int kThreads = 8;
  constexpr int kKeys = 20;
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &computes] {
      for (int k = 0; k < kKeys; ++k) {
        const std::string key = "k" + std::to_string(k);
        auto ticket = cache.Acquire(key, 1);
        if (ticket.value) continue;
        if (ticket.leader) {
          computes.fetch_add(1);
          cache.Complete(key, 1, OneRowRel(0.5));
        } else {
          auto rel = ticket.pending.get();
          EXPECT_NE(rel, nullptr);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // The whole point: every key computed exactly once despite 8 concurrent
  // requesters per key.
  EXPECT_EQ(computes.load(), kKeys);
  EXPECT_EQ(cache.stats().misses, static_cast<size_t>(kKeys));
}

TEST(ResultCacheTest, ConcurrentMixedAccessIsSafe) {
  ResultCache cache(64);
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "k" + std::to_string((t + i) % 100);
        if (auto hit = cache.Get(key, 1)) {
          (void)hit->Score(0);
        } else {
          cache.Put(key, 1, OneRowRel(0.5));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<size_t>(kThreads) * kOps);
  EXPECT_LE(s.entries, 64u);
}

}  // namespace
}  // namespace dissodb
