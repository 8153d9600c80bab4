// Tests for the deterministic semi-join reduction (Opt. 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/dissociation/propagation.h"
#include "src/engine/query_engine.h"
#include "src/exec/bloom.h"
#include "src/exec/semijoin.h"
#include "src/workload/random_instance.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::PrepareAndExecute;
using testing_util::Q;
using testing_util::WideKeyBloomDatabase;

TEST(SemiJoinTest, RemovesDanglingTuples) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}, {{9}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{2, 5}, 0.5}, {{3, 6}, 0.5}});
  AddTable(&db, "T", 1, {{{4}, 0.5}, {{7}, 0.5}});
  SemiJoinStats stats;
  auto reduced = SemiJoinReduce(db.snapshot(), q, {}, &stats);
  ASSERT_TRUE(reduced.ok());
  // Only the path 1 -> 4 survives everywhere.
  EXPECT_EQ((*reduced)[0].NumRows(), 1u);  // R: {1}
  EXPECT_EQ((*reduced)[1].NumRows(), 1u);  // S: {(1,4)}
  EXPECT_EQ((*reduced)[2].NumRows(), 1u);  // T: {4}
  EXPECT_EQ(stats.rows_before[0], 3u);
  EXPECT_GE(stats.semijoins, 1u);
  EXPECT_GT(stats.build_rows, 0u);
}

TEST(SemiJoinTest, FullyJoinableInputUnchanged) {
  auto q = Q("q() :- R(x), S(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  auto reduced = SemiJoinReduce(db.snapshot(), q);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)[0].NumRows(), 2u);
  EXPECT_EQ((*reduced)[1].NumRows(), 2u);
}

TEST(SemiJoinTest, AppliesConstantSelections) {
  auto q = Q("q() :- R(x, 7)");
  Database db;
  AddTable(&db, "R", 2, {{{1, 7}, 0.5}, {{2, 8}, 0.5}});
  auto reduced = SemiJoinReduce(db.snapshot(), q);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)[0].NumRows(), 1u);
}

TEST(SemiJoinTest, CascadingReductionNeedsMultiplePasses) {
  // Chain where dangling tuples cascade backwards: R1 -> R2 -> R3.
  auto q = Q("q() :- R1(x,y), R2(y,z), R3(z,u)");
  Database db;
  AddTable(&db, "R1", 2, {{{1, 2}, 0.5}});
  AddTable(&db, "R2", 2, {{{2, 3}, 0.5}, {{9, 9}, 0.5}});
  AddTable(&db, "R3", 2, {{{4, 5}, 0.5}});  // z=3 has no match!
  auto reduced = SemiJoinReduce(db.snapshot(), q);
  ASSERT_TRUE(reduced.ok());
  // Everything dies: R3 kills R2's (2,3), which kills R1's (1,2).
  EXPECT_EQ((*reduced)[0].NumRows(), 0u);
  EXPECT_EQ((*reduced)[1].NumRows(), 0u);
  EXPECT_EQ((*reduced)[2].NumRows(), 0u);
}

TEST(SemiJoinTest, LongChainCascadeReachesEveryAtom) {
  // R1..R8 each hold the live path (1,1); R1..R7 also hold the path (2,2),
  // which R8 breaks. The break has to cascade from R7 back to R1. A fixed
  // schedule of 4 passes in atom order moves it one atom per pass and
  // leaves the dangling rows in R1..R3; the fixpoint removes them all.
  auto q = Q(
      "q() :- R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x5), R5(x5,x6), "
      "R6(x6,x7), R7(x7,x8), R8(x8,x9)");
  Database db;
  for (int i = 1; i <= 7; ++i) {
    AddTable(&db, "R" + std::to_string(i), 2,
             {{{1, 1}, 0.5}, {{2, 2}, 0.5}});
  }
  AddTable(&db, "R8", 2, {{{1, 1}, 0.5}});
  SemiJoinStats stats;
  auto reduced = SemiJoinReduce(db.snapshot(), q, {}, &stats);
  ASSERT_TRUE(reduced.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ((*reduced)[i].NumRows(), 1u) << "R" << i + 1;
    EXPECT_EQ((*reduced)[i].At(0, 0), Value::Int64(1)) << "R" << i + 1;
    EXPECT_EQ(stats.rows_after[i], 1u);
  }
}

TEST(SemiJoinTest, SelectiveBuildSideRunsFirst) {
  // Big(x,y) is joined to a one-row selection of Small(x) and to the
  // unselective Other(y). Small's surviving fraction (1 of 1000 catalog
  // rows) sends Big ⋉ Small first, so the unreduced Big is never indexed:
  // every index is built over at most the one surviving Big row, or over
  // the selection or Other.
  auto q = Q("q() :- Small(x), Big(x,y), Other(y)");
  Database db;
  std::vector<std::pair<std::vector<int64_t>, double>> small, big, other;
  for (int64_t i = 0; i < 1000; ++i) {
    small.push_back({{i}, 0.5});
    big.push_back({{i, i % 10}, 0.5});
  }
  for (int64_t i = 0; i < 10; ++i) other.push_back({{i}, 0.5});
  AddTable(&db, "Small", 1, small);
  AddTable(&db, "Big", 2, big);
  AddTable(&db, "Other", 1, other);
  Table selection(RelationSchema::AllInt64("Small", 1));
  selection.AddRow({Value::Int64(7)}, 0.5);

  SemiJoinStats stats;
  auto reduced = SemiJoinReduce(db.snapshot(), q, {{0, &selection}}, &stats);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)[0].NumRows(), 1u);
  EXPECT_EQ((*reduced)[1].NumRows(), 1u);
  EXPECT_EQ((*reduced)[2].NumRows(), 1u);
  EXPECT_LT(stats.build_rows, 1000u);
  EXPECT_GE(stats.semijoins, 4u);  // every ordered pair ran at least once
}

TEST(SemiJoinTest, PreservesAnswersAndScoresOnRandomInstances) {
  Rng rng(424242);
  RandomQuerySpec qspec;
  qspec.max_atoms = 4;
  qspec.max_vars = 4;
  for (int trial = 0; trial < 60; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    Database db = RandomDatabaseFor(q, &rng);
    PropagationOptions plain;
    plain.opt3_semijoin_reduction = false;
    PropagationOptions with_sj;
    with_sj.opt3_semijoin_reduction = true;
    QueryEngine plain_engine = QueryEngine::Borrow(db, {.propagation = plain});
    QueryEngine sj_engine = QueryEngine::Borrow(db, {.propagation = with_sj});
    auto a = PrepareAndExecute(plain_engine, q);
    auto b = PrepareAndExecute(sj_engine, q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->answers.size(), b->answers.size()) << q.ToString();
    for (size_t i = 0; i < a->answers.size(); ++i) {
      EXPECT_EQ(a->answers[i].tuple, b->answers[i].tuple) << q.ToString();
      EXPECT_NEAR(a->answers[i].score, b->answers[i].score, 1e-9)
          << q.ToString();
    }
  }
}

TEST(SemiJoinTest, RespectsOverrides) {
  auto q = Q("q() :- R(x), S(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  Table small(RelationSchema::AllInt64("R", 1));
  small.AddRow({Value::Int64(2)}, 0.5);
  auto reduced = SemiJoinReduce(db.snapshot(), q, {{0, &small}});
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)[0].NumRows(), 1u);
  EXPECT_EQ((*reduced)[1].NumRows(), 1u);  // S reduced against override
}

// ---------------------------------------------------------------------------
// Blocked Bloom pre-filter: no false negatives ever, useful rejection on
// disjoint probes, and — consulted or not — identical reductions.
// ---------------------------------------------------------------------------

TEST(BlockedBloomFilterTest, NeverFalseNegative) {
  Rng rng(77);
  std::vector<uint64_t> keys;
  BlockedBloomFilter filter(10'000);
  for (int i = 0; i < 10'000; ++i) {
    keys.push_back(Mix64(rng.Next()));
    filter.Add(keys.back());
  }
  for (uint64_t h : keys) {
    ASSERT_TRUE(filter.MayContain(h));
  }
}

TEST(BlockedBloomFilterTest, RejectsMostDisjointProbes) {
  Rng rng(78);
  std::unordered_set<uint64_t> inserted;
  BlockedBloomFilter filter(10'000);
  while (inserted.size() < 10'000) {
    uint64_t h = Mix64(rng.Next());
    if (inserted.insert(h).second) filter.Add(h);
  }
  size_t passed = 0;
  const size_t probes = 20'000;
  for (size_t i = 0; i < probes;) {
    uint64_t h = Mix64(rng.Next());
    if (inserted.count(h)) continue;  // keep the probe set truly disjoint
    if (filter.MayContain(h)) ++passed;
    ++i;
  }
  // Sized at ~10 bits/key with k=2, the false-positive rate is a few
  // percent; 15% gives wide seed headroom while still proving the filter
  // short-circuits the overwhelming majority of dangling probes.
  EXPECT_LT(passed, probes * 15 / 100);
}

TEST(SemiJoinTest, BloomFiltersReportStats) {
  // Build sides of 5000 rows get filters; half the probes dangle.
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Database db = WideKeyBloomDatabase();
  SemiJoinStats stats;
  auto reduced = SemiJoinReduce(db.snapshot(), q, {}, &stats);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ((*reduced)[0].NumRows(), 1250u);
  EXPECT_EQ((*reduced)[1].NumRows(), 1250u);
  EXPECT_EQ((*reduced)[2].NumRows(), 1250u);
  EXPECT_EQ(stats.dense_semijoins, 0u);
  EXPECT_GT(stats.bloom_filters_built, 0u);
  EXPECT_GT(stats.bloom_probes_skipped, 0u);
}

}  // namespace
}  // namespace dissodb
