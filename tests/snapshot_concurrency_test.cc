// Concurrent readers-while-writing: the supported serving scenario of the
// snapshot-isolated Database API, run under the CI tsan job.
//
// N reader threads execute (synchronously and via Submit) against
// snapshots while a writer thread commits row appends and probability
// scalings. Assertions:
//   - a pinned snapshot returns bit-identical rankings across commits,
//   - every result observed against a fresh snapshot matches the
//     per-version reference ranking recorded right after the publishing
//     commit — readers never see a half-published state,
//   - the version-stale result-cache sweep runs concurrently with all of
//     the above without disturbing either.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/storage/database.h"
#include "src/storage/snapshot.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;

Value I(int64_t v) { return Value::Int64(v); }

void ExpectBitIdentical(const std::vector<RankedAnswer>& a,
                        const std::vector<RankedAnswer>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple, b[i].tuple) << what << " row " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " row " << i;
  }
}

Database MakeServingDatabase() {
  Database db;
  std::vector<std::pair<std::vector<int64_t>, double>> r_rows;
  for (int64_t x = 0; x < 8; ++x) {
    r_rows.push_back({{x, x % 4}, 0.2 + 0.08 * static_cast<double>(x)});
  }
  AddTable(&db, "R", 2, r_rows);
  AddTable(&db, "S", 1, {{{0}, 0.9}, {{1}, 0.8}, {{2}, 0.7}, {{3}, 0.6}});
  return db;
}

TEST(SnapshotConcurrencyTest, PinnedSnapshotIsBitIdenticalUnderCommits) {
  Database db = MakeServingDatabase();
  EngineOptions opts;
  opts.num_threads = 4;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(x) :- R(x,y), S(y)");
  ASSERT_TRUE(prepared.ok());

  Snapshot pinned = db.snapshot();
  auto baseline = engine.Execute(*prepared, {}, pinned);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->answers.empty());

  constexpr int kReaders = 4;
  constexpr int kCommits = 24;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int k = 0; k < kCommits; ++k) {
      Database::Writer w = db.BeginWrite();
      w.AppendRow(0, std::vector<Value>{I(100 + k), I(k % 4)}, 0.5);
      if (k % 3 == 0) w.ScaleProbabilities(0.995);
      w.Commit();
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      int round = 0;
      while (!stop.load(std::memory_order_acquire) || round < 4) {
        if (t % 2 == 0) {
          auto r = engine.Execute(*prepared, {}, pinned);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ExpectBitIdentical(r->answers, baseline->answers, "sync pinned");
        } else {
          // Async path: pooled execution sharing subplans through the
          // result cache under the pinned snapshot's version stamp.
          auto fut = engine.Submit(*prepared, {}, pinned);
          auto r = fut.get();
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ExpectBitIdentical(r->answers, baseline->answers, "submit pinned");
        }
        ++round;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();

  // The pinned snapshot still reads its original state...
  EXPECT_EQ(pinned.table(0).NumRows(), 8u);
  // ...while a fresh snapshot sees every commit.
  EXPECT_EQ(db.snapshot().table(0).NumRows(), 8u + kCommits);

  // Sweep semantics end-to-end: the Submit readers populated the result
  // cache under the pinned version; while the snapshot is held, commits
  // must not sweep those entries.
  ASSERT_GT(engine.stats().result_cache_entries, 0u);
  db.ScaleProbabilities(0.999);
  EXPECT_EQ(engine.stats().result_cache_swept, 0u);
  EXPECT_GT(engine.stats().result_cache_entries, 0u);

  // Once every handle drops, commits sweep them. Release is *eventual*:
  // a pool worker may still be tearing down the last task's captured
  // snapshot for a moment after its future resolved, so a commit landing
  // inside that window legitimately keeps the version alive — retry.
  pinned = Snapshot();
  bool swept = false;
  for (int i = 0; i < 100 && !swept; ++i) {
    db.ScaleProbabilities(0.999);
    swept = engine.stats().result_cache_entries == 0;
    if (!swept) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(swept) << "stale entries survived 100 commits after the last "
                        "snapshot handle dropped";
  EXPECT_GT(engine.stats().result_cache_swept, 0u);
}

TEST(SnapshotConcurrencyTest, ReadersSeeOnlyFullyPublishedVersions) {
  Database db = MakeServingDatabase();
  EngineOptions opts;
  opts.num_threads = 4;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(x) :- R(x,y), S(y)");
  ASSERT_TRUE(prepared.ok());

  // Reference rankings per published version, recorded by whoever publishes
  // (initially here, then the writer thread after each commit).
  std::mutex ref_mu;
  std::map<uint64_t, std::vector<RankedAnswer>> reference;
  auto record = [&] {
    Snapshot s = db.snapshot();
    auto r = engine.Execute(*prepared, {}, s);
    ASSERT_TRUE(r.ok());
    std::lock_guard lock(ref_mu);
    reference.emplace(s.version(), r->answers);
  };
  record();

  constexpr int kReaders = 4;
  constexpr int kCommits = 16;
  std::atomic<bool> stop{false};
  std::atomic<size_t> verified{0};

  std::thread writer([&] {
    for (int k = 0; k < kCommits; ++k) {
      {
        Database::Writer w = db.BeginWrite();
        w.AppendRow(0, std::vector<Value>{I(200 + k), I(k % 4)}, 0.4);
        if (k % 4 == 1) w.ScaleProbabilities(0.99);
        w.Commit();
      }
      record();
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      int round = 0;
      while (!stop.load(std::memory_order_acquire) || round < 4) {
        Snapshot s = db.snapshot();
        auto r = engine.Execute(*prepared, {}, s);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        std::vector<RankedAnswer> expected;
        bool have = false;
        {
          std::lock_guard lock(ref_mu);
          auto it = reference.find(s.version());
          if (it != reference.end()) {
            expected = it->second;
            have = true;
          }
        }
        // The reference for this version may not be recorded yet (the
        // writer records after Commit returns); when it is, the reader's
        // result must be bit-identical — i.e. the snapshot was a fully
        // published state, never a torn one.
        if (have) {
          ExpectBitIdentical(r->answers, expected, "per-version reference");
          verified.fetch_add(1, std::memory_order_relaxed);
        }
        ++round;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_GT(verified.load(), 0u);
}

TEST(SnapshotConcurrencyTest, ConcurrentWritersSerializeCleanly) {
  Database db = MakeServingDatabase();
  constexpr int kWriters = 4;
  constexpr int kCommitsEach = 8;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&db, t] {
      for (int k = 0; k < kCommitsEach; ++k) {
        Database::Writer w = db.BeginWrite();
        w.AppendRow(0, std::vector<Value>{I(1000 + t * 100 + k), I(k % 4)},
                    0.5);
        w.Commit();
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(db.snapshot().table(0).NumRows(), 8u + kWriters * kCommitsEach);
  // Every commit bumped the version exactly once.
  EXPECT_EQ(db.version(), 2u + kWriters * kCommitsEach);
}

}  // namespace
}  // namespace dissodb
