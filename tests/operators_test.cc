// Unit tests for the execution operators: scan, hash join, projections, min.
#include <gtest/gtest.h>

#include <span>
#include <utility>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/exec/operators.h"
#include "src/serve/scheduler.h"
#include "tests/reference_ops.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::ChunkCapOverride;
using testing_util::kWideKeyStride;
using testing_util::Q;
using testing_util::Vars;

TEST(ScanTest, EmitsVariablesInAscendingOrder) {
  auto q = Q("q() :- R(y,x)");  // y gets id 0, x gets id 1
  Database db;
  AddTable(&db, "R", 2, {{{7, 8}, 0.5}});
  auto rel = ScanAtom(db.snapshot(), q, 0);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->NumRows(), 1u);
  ASSERT_EQ(rel->arity(), 2);
  // Column order follows VarId order (y=0 then x=1), values from positions.
  EXPECT_EQ(rel->At(0, 0), Value::Int64(7));  // y
  EXPECT_EQ(rel->At(0, 1), Value::Int64(8));  // x
  EXPECT_DOUBLE_EQ(rel->Score(0), 0.5);
}

TEST(ScanTest, ConstantSelection) {
  auto q = Q("q() :- R(x, 5)");
  Database db;
  AddTable(&db, "R", 2, {{{1, 5}, 0.3}, {{2, 6}, 0.4}, {{3, 5}, 0.5}});
  auto rel = ScanAtom(db.snapshot(), q, 0);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 2u);
}

TEST(ScanTest, RepeatedVariableSelection) {
  auto q = Q("q() :- R(x, x)");
  Database db;
  AddTable(&db, "R", 2, {{{1, 1}, 0.3}, {{1, 2}, 0.4}, {{2, 2}, 0.5}});
  auto rel = ScanAtom(db.snapshot(), q, 0);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 2u);
  EXPECT_EQ(rel->arity(), 1);
}

TEST(ScanTest, OverrideTableUsed) {
  auto q = Q("q() :- R(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  Table small(RelationSchema::AllInt64("R", 1));
  small.AddRow({Value::Int64(9)}, 0.9);
  auto rel = ScanAtom(db.snapshot(), q, 0, &small);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->NumRows(), 1u);
  EXPECT_EQ(rel->At(0, 0), Value::Int64(9));
}

TEST(ScanTest, MissingTableFails) {
  auto q = Q("q() :- Nope(x)");
  Database db;
  EXPECT_FALSE(ScanAtom(db.snapshot(), q, 0).ok());
}

TEST(HashJoinTest, ScoresMultiply) {
  auto q = Q("q() :- R(x), S(x,y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.25}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.4}, {{1, 5}, 0.8}, {{3, 6}, 0.9}});
  auto r = ScanAtom(db.snapshot(), q, 0);
  auto s = ScanAtom(db.snapshot(), q, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());
  Rel joined = HashJoin(*r, *s);
  ASSERT_EQ(joined.NumRows(), 2u);  // x=1 matches two S rows; x=2,3 none
  for (size_t i = 0; i < joined.NumRows(); ++i) {
    double expected = joined.At(i, joined.ColIndex(q.FindVar("y"))) ==
                              Value::Int64(4)
                          ? 0.5 * 0.4
                          : 0.5 * 0.8;
    EXPECT_DOUBLE_EQ(joined.Score(i), expected);
  }
}

TEST(HashJoinTest, CartesianWhenNoSharedVars) {
  auto q = Q("q() :- R(x), S(y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "S", 1, {{{7}, 0.5}, {{8}, 0.5}, {{9}, 0.5}});
  auto r = ScanAtom(db.snapshot(), q, 0);
  auto s = ScanAtom(db.snapshot(), q, 1);
  Rel joined = HashJoin(*r, *s);
  EXPECT_EQ(joined.NumRows(), 6u);
}

TEST(HashJoinTest, MultiColumnKeys) {
  auto q = Q("q() :- R(x,y), S(x,y)");
  Database db;
  AddTable(&db, "R", 2, {{{1, 1}, 0.5}, {{1, 2}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 1}, 0.5}, {{2, 2}, 0.5}});
  auto r = ScanAtom(db.snapshot(), q, 0);
  auto s = ScanAtom(db.snapshot(), q, 1);
  Rel joined = HashJoin(*r, *s);
  ASSERT_EQ(joined.NumRows(), 1u);
  EXPECT_EQ(joined.At(0, 0), Value::Int64(1));
  EXPECT_EQ(joined.At(0, 1), Value::Int64(1));
}

TEST(ProjectIndependentTest, CombinesGroupScores) {
  auto q = Q("q() :- S(x,y)");
  Database db;
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{1, 5}, 0.5}, {{2, 6}, 0.25}});
  auto s = ScanAtom(db.snapshot(), q, 0);
  Rel projected = ProjectIndependent(*s, Vars(q, {"x"}));
  ASSERT_EQ(projected.NumRows(), 2u);
  for (size_t i = 0; i < projected.NumRows(); ++i) {
    if (projected.At(i, 0) == Value::Int64(1)) {
      EXPECT_DOUBLE_EQ(projected.Score(i), 1.0 - 0.5 * 0.5);  // 0.75
    } else {
      EXPECT_DOUBLE_EQ(projected.Score(i), 0.25);
    }
  }
}

TEST(ProjectIndependentTest, BooleanProjection) {
  auto q = Q("q() :- R(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  auto r = ScanAtom(db.snapshot(), q, 0);
  Rel b = ProjectIndependent(*r, 0);
  ASSERT_EQ(b.NumRows(), 1u);
  EXPECT_EQ(b.arity(), 0);
  EXPECT_DOUBLE_EQ(b.Score(0), 0.75);
}

TEST(ProjectDistinctTest, DropsScores) {
  auto q = Q("q() :- S(x,y)");
  Database db;
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{1, 5}, 0.5}});
  auto s = ScanAtom(db.snapshot(), q, 0);
  Rel d = ProjectDistinct(*s, Vars(q, {"x"}));
  ASSERT_EQ(d.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(d.Score(0), 1.0);
}

TEST(MinMergeTest, TakesPerRowMinimum) {
  Rel a({0});
  a.AddRow(std::vector<Value>{Value::Int64(1)}, 0.5);
  a.AddRow(std::vector<Value>{Value::Int64(2)}, 0.9);
  Rel b({0});
  b.AddRow(std::vector<Value>{Value::Int64(1)}, 0.3);
  b.AddRow(std::vector<Value>{Value::Int64(2)}, 0.95);
  auto m = MinMerge({a, b});
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->NumRows(), 2u);
  for (size_t i = 0; i < m->NumRows(); ++i) {
    double expect = m->At(i, 0) == Value::Int64(1) ? 0.3 : 0.9;
    EXPECT_DOUBLE_EQ(m->Score(i), expect);
  }
}

TEST(MinMergeTest, MismatchedVarsRejected) {
  Rel a({0});
  Rel b({1});
  EXPECT_FALSE(MinMerge({a, b}).ok());
}

TEST(MinMergeTest, BooleanRelations) {
  Rel a({});
  a.AddRow({}, 0.8);
  Rel b({});
  b.AddRow({}, 0.6);
  auto m = MinMerge({a, b});
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(m->Score(0), 0.6);
}

TEST(RelTest, ColIndexBinarySearch) {
  Rel r({0, 3, 5});
  EXPECT_EQ(r.ColIndex(0), 0);
  EXPECT_EQ(r.ColIndex(3), 1);
  EXPECT_EQ(r.ColIndex(5), 2);
  EXPECT_EQ(r.ColIndex(4), -1);
}

// ---------------------------------------------------------------------------
// Morsel-parallel operator paths must be bit-identical to the sequential
// ones: same rows, same order, same floating-point fold order.
// ---------------------------------------------------------------------------

/// Keys are drawn from [0, domain) and multiplied by `stride`. The draws
/// do not depend on the stride, so two strides give the same relation up
/// to a relabelling of the values.
Rel RandomBinaryRel(VarId a, VarId b, size_t rows, int64_t domain,
                    uint64_t seed, int64_t stride = 1) {
  Rng rng(seed);
  Rel r(std::vector<VarId>{a, b});
  r.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row = {
        Value::Int64(rng.NextInt(0, domain - 1) * stride),
        Value::Int64(rng.NextInt(0, domain - 1) * stride)};
    r.AddRow(row, 0.05 + 0.9 * rng.NextDouble());
  }
  return r;
}

void ExpectBitIdentical(const Rel& a, const Rel& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.vars(), b.vars());
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (int c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.At(r, c), b.At(r, c)) << "row " << r << " col " << c;
    }
    ASSERT_EQ(a.Score(r), b.Score(r)) << "row " << r;
  }
}

/// `dense`, computed over keys v, equals `wide`, computed over the same
/// relations with keys v * kWideKeyStride: the same rows in the same order,
/// with the same score bits.
void ExpectBitIdenticalUpToStride(const Rel& dense, const Rel& wide) {
  ASSERT_EQ(dense.NumRows(), wide.NumRows());
  ASSERT_EQ(dense.vars(), wide.vars());
  for (size_t r = 0; r < dense.NumRows(); ++r) {
    for (int c = 0; c < dense.arity(); ++c) {
      ASSERT_EQ(dense.At(r, c).AsInt64() * kWideKeyStride,
                wide.At(r, c).AsInt64())
          << "row " << r << " col " << c;
    }
    ASSERT_EQ(dense.Score(r), wide.Score(r)) << "row " << r;
  }
}

TEST(ParallelOperatorsTest, HashJoinMatchesSequentialBitForBit) {
  // Large enough for the pool to take the morsel-parallel probe (>= 32Ki
  // probe rows) and the output gathers (>= 32Ki output rows); the build is
  // one hash index either way. Wide keys keep it hashed.
  Rel left = RandomBinaryRel(0, 1, 36'000, 18'000, 41, kWideKeyStride);
  Rel right = RandomBinaryRel(1, 2, 40'000, 18'000, 42, kWideKeyStride);

  JoinPath path;
  Rel sequential = HashJoin(left, right, nullptr, &path);
  EXPECT_FALSE(path.dense_index);
  Scheduler pool(4);
  Rel parallel = HashJoin(left, right, &pool, &path);
  EXPECT_FALSE(path.dense_index);
  EXPECT_GT(sequential.NumRows(), 0u);
  ExpectBitIdentical(sequential, parallel);
  EXPECT_GT(pool.tasks_executed(), 1u);
}

TEST(ParallelOperatorsTest, DenseHashJoinMatchesSequentialAndHashedBitForBit) {
  // The same draws with narrow keys: the build chains rows from a head
  // array and the probe still fans out in morsels. Pairs come out as the
  // hash path emits them over the wide keys.
  Rel left = RandomBinaryRel(0, 1, 36'000, 18'000, 41);
  Rel right = RandomBinaryRel(1, 2, 40'000, 18'000, 42);

  JoinPath path;
  Rel sequential = HashJoin(left, right, nullptr, &path);
  EXPECT_TRUE(path.dense_index);
  Scheduler pool(4);
  Rel parallel = HashJoin(left, right, &pool, &path);
  EXPECT_TRUE(path.dense_index);
  EXPECT_GT(sequential.NumRows(), 0u);
  ExpectBitIdentical(sequential, parallel);
  EXPECT_GT(pool.tasks_executed(), 1u);
  ExpectBitIdenticalUpToStride(
      sequential,
      HashJoin(RandomBinaryRel(0, 1, 36'000, 18'000, 41, kWideKeyStride),
               RandomBinaryRel(1, 2, 40'000, 18'000, 42, kWideKeyStride)));
}

TEST(ParallelOperatorsTest, ProjectIndependentMatchesSequentialBitForBit) {
  // The hash grouping runs one sequential kernel with or without a pool;
  // the batch hashing and the key gathers fan out from two chunks of rows
  // up. At chunk capacity 1024, 50k rows over a 40k-key domain (about 28k
  // groups) reach both.
  ChunkCapOverride cap(1024);
  Rel in = RandomBinaryRel(0, 1, 50'000, 40'000, 43, kWideKeyStride);
  bool dense = true;
  Rel sequential = ProjectIndependent(in, MaskOf(0), nullptr, nullptr, &dense);
  EXPECT_FALSE(dense);
  Scheduler pool(4);
  Rel parallel = ProjectIndependent(in, MaskOf(0), &pool, nullptr, &dense);
  EXPECT_FALSE(dense);
  EXPECT_GE(sequential.NumRows(), 2048u);
  ExpectBitIdentical(sequential, parallel);
  EXPECT_GT(pool.tasks_executed(), 1u);
}

TEST(ParallelOperatorsTest, DenseProjectIndependentMatchesHashedBitForBit) {
  // The same draws with narrow keys: groups come from a direct-address
  // array, with or without a scheduler, and match the hash grouping over
  // the wide keys, with and without a pool.
  Rel in = RandomBinaryRel(0, 1, 50'000, 700, 43);
  Rel wide = RandomBinaryRel(0, 1, 50'000, 700, 43, kWideKeyStride);
  Scheduler pool(4);
  bool dense = false;
  Rel sequential = ProjectIndependent(in, MaskOf(0), nullptr, nullptr, &dense);
  EXPECT_TRUE(dense);
  Rel pooled = ProjectIndependent(in, MaskOf(0), &pool, nullptr, &dense);
  EXPECT_TRUE(dense);
  EXPECT_GT(sequential.NumRows(), 0u);
  ExpectBitIdentical(sequential, pooled);
  ExpectBitIdenticalUpToStride(sequential, ProjectIndependent(wide, MaskOf(0)));
  ExpectBitIdenticalUpToStride(sequential,
                               ProjectIndependent(wide, MaskOf(0), &pool));
}

TEST(ParallelOperatorsTest, ProjectDistinctMatchesSequentialBitForBit) {
  // Two grouped columns hash; at chunk capacity 1024 the 40k rows and
  // their groups (most of the 14,400 pairs) fan out the hashing and the
  // key gathers.
  ChunkCapOverride cap(1024);
  Rel in = RandomBinaryRel(0, 1, 40'000, 120, 44);
  Rel sequential = ProjectDistinct(in, MaskOf(0) | MaskOf(1));
  Scheduler pool(3);
  Rel parallel = ProjectDistinct(in, MaskOf(0) | MaskOf(1), &pool);
  EXPECT_GE(sequential.NumRows(), 2048u);
  ExpectBitIdentical(sequential, parallel);
  EXPECT_GT(pool.tasks_executed(), 1u);
}

TEST(ParallelOperatorsTest, SmallInputsBypassTheParallelPath) {
  // Below the morsel threshold the scheduler must be ignored entirely.
  Rel left = RandomBinaryRel(0, 1, 100, 20, 45);
  Rel right = RandomBinaryRel(1, 2, 80, 20, 46);
  Scheduler pool(2);
  ExpectBitIdentical(HashJoin(left, right), HashJoin(left, right, &pool));
  ExpectBitIdentical(ProjectIndependent(left, MaskOf(0)),
                     ProjectIndependent(left, MaskOf(0), &pool));
}

// ---------------------------------------------------------------------------
// Chunked filtered scans: chunk-parallel selection and zone-map pruning
// must emit exactly the sequential relation (row order included).
// ---------------------------------------------------------------------------

/// R(a, b) with `rows` rows: column a clustered (row i gets i / cluster),
/// column b pseudo-random in [0, domain).
Database ClusteredDatabase(size_t rows, int64_t cluster, int64_t domain,
                           uint64_t seed) {
  Rng rng(seed);
  Database db;
  Table t(RelationSchema::AllInt64("R", 2));
  for (size_t i = 0; i < rows; ++i) {
    t.AddRow({Value::Int64(static_cast<int64_t>(i) / cluster),
              Value::Int64(rng.NextInt(0, domain - 1))},
             0.05 + 0.9 * rng.NextDouble());
  }
  auto r = db.AddTable(std::move(t));
  EXPECT_TRUE(r.ok());
  return db;
}

TEST(ChunkedScanTest, ParallelFilteredScanIsBitIdenticalToSequential) {
  ChunkCapOverride cap(1024);
  // 40k rows = 40 chunks, above the parallel threshold; the predicate on
  // the random column keeps every chunk alive (no pruning interference).
  Database db = ClusteredDatabase(40'000, 1'000'000, 50, 7);
  auto q = Q("q(x) :- R(x, 5)");

  ChunkedScanStats seq_stats;
  auto sequential = ScanAtom(db.snapshot(), q, 0, nullptr, nullptr, &seq_stats);
  ASSERT_TRUE(sequential.ok());
  EXPECT_GT(sequential->NumRows(), 0u);
  EXPECT_EQ(seq_stats.parallel_scans, 0u);
  EXPECT_EQ(seq_stats.filtered_scans, 1u);

  Scheduler pool(4);
  ChunkedScanStats par_stats;
  auto parallel = ScanAtom(db.snapshot(), q, 0, nullptr, &pool, &par_stats);
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*sequential, *parallel);
  EXPECT_EQ(par_stats.parallel_scans, 1u);
  EXPECT_EQ(par_stats.rows_selected, sequential->NumRows());
  EXPECT_EQ(par_stats.chunks_scanned + par_stats.chunks_pruned, 40u);
}

TEST(ChunkedScanTest, ZoneMapsPruneChunksOnClusteredConstants) {
  ChunkCapOverride cap(1024);
  // Column a is monotone (i / 1000): the constant 17 lives in rows
  // 17000..17999, i.e. at most 2 of the 40 chunks; zone maps must skip
  // at least 90% of the chunks without changing the result.
  Database db = ClusteredDatabase(40'000, 1'000, 50, 11);
  auto q = Q("q(x) :- R(17, x)");

  ChunkedScanStats stats;
  auto rel = ScanAtom(db.snapshot(), q, 0, nullptr, nullptr, &stats);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 1000u);
  const size_t total = stats.chunks_scanned + stats.chunks_pruned;
  ASSERT_EQ(total, 40u);
  EXPECT_GE(stats.chunks_pruned, (total * 9) / 10);

  // Pruning must be invisible in the output: same result as the same scan
  // over an unclustered copy of the data where nothing can be pruned.
  Scheduler pool(4);
  ChunkedScanStats par_stats;
  auto par = ScanAtom(db.snapshot(), q, 0, nullptr, &pool, &par_stats);
  ASSERT_TRUE(par.ok());
  ExpectBitIdentical(*rel, *par);
  EXPECT_EQ(par_stats.chunks_pruned, stats.chunks_pruned);
}

TEST(ChunkedScanTest, ZoneMapTypeMismatchPrunesEverything) {
  ChunkCapOverride cap(64);
  Database db = ClusteredDatabase(1'000, 10, 50, 13);
  StringPool pool;
  // Constant of a different type than the uniform INT64 column: the scan
  // must produce an empty relation with every chunk pruned.
  auto q = Q("q(x) :- R('nope', x)", &pool);
  ChunkedScanStats stats;
  auto rel = ScanAtom(db.snapshot(), q, 0, nullptr, nullptr, &stats);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 0u);
  EXPECT_EQ(stats.chunks_scanned, 0u);
  EXPECT_GT(stats.chunks_pruned, 0u);
}

// ---------------------------------------------------------------------------
// SIMD kernels vs their scalar references. Hashing and gathers must be
// bit-exact; the fused Boolean accumulator is reassociated and gets a
// pinned ULP tolerance. Sizes straddle the 4-wide AVX2 lane boundary
// (0, 1, W-1, W, W+1, 2W+1) and — with an 8-payload chunk cap — the
// chunk seams the range kernels iterate over.
// ---------------------------------------------------------------------------

/// Pins the scalar reference path for its scope; the destructor restores
/// the startup dispatch decision (which may still be scalar on non-AVX2
/// hosts — the comparisons below are then trivially true but still valid).
class ScopedScalarFallback {
 public:
  ScopedScalarFallback() { simd::SetSimdEnabledForTesting(false); }
  ~ScopedScalarFallback() { simd::SetSimdEnabledForTesting(true); }
};

TEST(SimdDifferentialTest, HashKeyColumnsMatchesScalarAtLaneBoundaries) {
  ChunkCapOverride cap(8);
  const std::vector<int> keys = {0, 1};
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
    Rel in = RandomBinaryRel(0, 1, n, 1'000'000, 100 + n);
    HashVector vec = HashKeyColumns(in, keys);
    ScopedScalarFallback scalar;
    HashVector ref = HashKeyColumns(in, keys);
    ASSERT_EQ(vec.size(), n);
    ASSERT_EQ(ref.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(vec[i], ref[i]) << "n=" << n << " row " << i;
    }
  }
}

TEST(SimdDifferentialTest, HashCombineRangeMatchesScalarAcrossChunkSeams) {
  ChunkCapOverride cap(8);
  // 33 rows = 5 chunks; ranges chosen to start/end mid-chunk and mid-lane.
  Rel in = RandomBinaryRel(0, 1, 33, 1'000'000, 7);
  const Column& col = *in.col(0);
  for (auto [begin, len] : std::initializer_list<std::pair<size_t, size_t>>{
           {0, 33}, {1, 31}, {3, 9}, {7, 4}, {8, 8}, {15, 17}, {30, 3}}) {
    HashVector vec(len, kHashSeed);
    col.HashCombineRange(begin, vec);
    ScopedScalarFallback scalar;
    HashVector ref(len, kHashSeed);
    col.HashCombineRange(begin, ref);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(vec[i], ref[i]) << "begin=" << begin << " i=" << i;
    }
    // init=true must ignore prior contents and start from kHashSeed.
    HashVector from_seed(len, 0xdeadbeefULL);
    col.HashCombineRange(begin, from_seed, /*init=*/true);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(from_seed[i], ref[i]) << "begin=" << begin << " i=" << i;
    }
  }
}

TEST(SimdDifferentialTest, HashJoinMatchesScalarBitForBit) {
  // Big enough to engage the prefetched + Bloom-filtered probe path;
  // seeded so most probes miss (Bloom stays on). Wide keys keep the join
  // hashed.
  Rel left = RandomBinaryRel(0, 1, 36'000, 200'000, 51, kWideKeyStride);
  Rel right = RandomBinaryRel(1, 2, 40'000, 200'000, 52, kWideKeyStride);
  Rel vec = HashJoin(left, right);
  ScopedScalarFallback scalar;
  Rel ref = HashJoin(left, right);
  ExpectBitIdentical(ref, vec);
}

TEST(SimdDifferentialTest, KeyedProjectionMatchesScalarBitForBit) {
  // Wide keys keep the grouping hashed.
  Rel in = RandomBinaryRel(0, 1, 50'000, 700, 53, kWideKeyStride);
  Rel vec = ProjectIndependent(in, MaskOf(0));
  ScopedScalarFallback scalar;
  Rel ref = ProjectIndependent(in, MaskOf(0));
  EXPECT_GT(ref.NumRows(), 0u);
  ExpectBitIdentical(ref, vec);
}

TEST(SimdDifferentialTest, FusedBooleanScoreWithinPinnedTolerance) {
  // The fused accumulator reassociates the complement product across four
  // lanes; this pins the documented tolerance vs the sequential scalar
  // fold. Sizes straddle the kFusedMinRows=256 engagement threshold and
  // the lane tail (n % 4 != 0).
  for (size_t n : {255u, 256u, 257u, 511u, 513u, 1023u, 1024u, 1025u}) {
    Rng rng(60 + n);
    Rel in(std::vector<VarId>{0});
    in.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Small probabilities keep the product well away from underflow so
      // only lane reassociation separates the two paths.
      in.AddRow(std::vector<Value>{Value::Int64(static_cast<int64_t>(i))},
                0.00001 + 0.0001 * rng.NextDouble());
    }
    Rel vec = ProjectIndependent(in, 0);
    ScopedScalarFallback scalar;
    Rel ref = ProjectIndependent(in, 0);
    ASSERT_EQ(vec.NumRows(), 1u);
    ASSERT_EQ(ref.NumRows(), 1u);
    EXPECT_NEAR(vec.Score(0), ref.Score(0), 1e-12) << "n=" << n;
  }
}

TEST(SimdDifferentialTest, FusedBooleanScoreSurvivesLogSpaceFlush) {
  // High per-row probabilities drive every complement-product lane below
  // the 1e-128 flush threshold (0.05^128 per lane at the first check):
  // the fused path must drain into log space instead of underflowing,
  // and both paths must agree the query is certainly true.
  const size_t n = 2048;
  Rng rng(61);
  Rel in(std::vector<VarId>{0});
  in.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    in.AddRow(std::vector<Value>{Value::Int64(static_cast<int64_t>(i))},
              0.94 + 0.05 * rng.NextDouble());
  }
  Rel vec = ProjectIndependent(in, 0);
  ScopedScalarFallback scalar;
  Rel ref = ProjectIndependent(in, 0);
  ASSERT_EQ(vec.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(ref.Score(0), 1.0);
  EXPECT_DOUBLE_EQ(vec.Score(0), 1.0);
}

// ---------------------------------------------------------------------------
// Fully pruned inputs must short-circuit before any parallel fan-out:
// no per-chunk scan tasks, no hash tasks, no gather tasks.
// ---------------------------------------------------------------------------

TEST(PrunedInputTest, FullyPrunedScanSpawnsNoTasks) {
  ChunkCapOverride cap(64);
  Database db = ClusteredDatabase(4'000, 10, 50, 21);
  StringPool sp;
  auto q = Q("q(x) :- R('nope', x)", &sp);  // type mismatch prunes all chunks
  Scheduler pool(4);
  ChunkedScanStats stats;
  auto rel = ScanAtom(db.snapshot(), q, 0, nullptr, &pool, &stats);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 0u);
  EXPECT_EQ(stats.chunks_scanned, 0u);
  EXPECT_GT(stats.chunks_pruned, 0u);
  EXPECT_EQ(pool.tasks_executed(), 0u);
}

TEST(PrunedInputTest, EmptyInputsSpawnNoHashOrGatherTasks) {
  ChunkCapOverride cap(64);
  Scheduler pool(4);
  Rel empty(std::vector<VarId>{0, 1});
  const std::vector<int> keys = {0, 1};
  EXPECT_TRUE(HashKeyColumns(empty, keys, &pool).empty());

  Rel in = RandomBinaryRel(0, 1, 1'000, 100, 22);
  Column out = Column::Gathered(*in.col(0), std::span<const uint32_t>(),
                                &pool);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(pool.tasks_executed(), 0u);
}

TEST(ChunkedScanTest, RepeatedVariableSelectionAcrossChunkSeams) {
  ChunkCapOverride cap(8);
  auto q = Q("q(x) :- R(x, x)");
  Database db;
  Table t(RelationSchema::AllInt64("R", 2));
  // 20 rows (3 chunks): every 3rd row satisfies a = b.
  for (int64_t i = 0; i < 20; ++i) {
    t.AddRow({Value::Int64(i), Value::Int64(i % 3 == 0 ? i : -1)}, 0.5);
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  auto rel = ScanAtom(db.snapshot(), q, 0);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->NumRows(), 7u);  // i = 0, 3, 6, 9, 12, 15, 18
  for (size_t r = 0; r < rel->NumRows(); ++r) {
    EXPECT_EQ(rel->At(r, 0), Value::Int64(static_cast<int64_t>(r) * 3));
  }
}

// ---------------------------------------------------------------------------
// Score lanes: an operator run with lane 2 must equal, bit for bit, the
// same operator run on lane 1 alone and on lane 2's weights alone — same
// rows, same order, same fold order in each lane.
// ---------------------------------------------------------------------------

/// `n` random weights in [0.01, 0.51).
WeightsPtr RandomWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(n);
  for (double& v : w) v = 0.01 + 0.5 * rng.NextDouble();
  return std::make_shared<WeightColumn>(w);
}

/// `r` with a random lane 2 attached (columns and lane 1 shared).
Rel WithLane2(const Rel& r, uint64_t seed) {
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < r.arity(); ++c) cols.push_back(r.col(c));
  return Rel::FromColumns(r.vars(), std::move(cols), r.weights(), r.NumRows(),
                          RandomWeights(r.NumRows(), seed));
}

/// The single-lane relation scoring `r`'s lane 2 (its lane 1 when it has
/// no lane 2 of its own).
Rel Lane2Only(const Rel& r) {
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < r.arity(); ++c) cols.push_back(r.col(c));
  auto w = r.lane2() != nullptr ? r.lane2() : r.weights();
  return Rel::FromColumns(r.vars(), std::move(cols), w, r.NumRows());
}

/// `r` without its lane 2.
Rel Lane1Only(const Rel& r) {
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < r.arity(); ++c) cols.push_back(r.col(c));
  return Rel::FromColumns(r.vars(), std::move(cols), r.weights(), r.NumRows());
}

/// `two` (a two-lane output) equals `ref1` in rows and lane 1 and `ref2`
/// in rows and lane 2, bit for bit.
void ExpectLanes(const Rel& two, const Rel& ref1, const Rel& ref2) {
  ASSERT_NE(two.lane2(), nullptr);
  ExpectBitIdentical(Lane1Only(two), ref1);
  ExpectBitIdentical(Lane2Only(two), ref2);
}

TEST(LaneTest, ScanCarriesLane2ZeroCopyOrGathered) {
  ChunkCapOverride cap(8);
  Database db = ClusteredDatabase(100, 7, 5, 3);
  const Snapshot snap = db.snapshot();
  const Table& t = snap.table(0);
  const WeightsPtr lane2 = RandomWeights(t.NumRows(), 4);

  auto all = ScanAtom(snap, Q("q(x,y) :- R(x,y)"), 0, nullptr, nullptr,
                      nullptr, lane2);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->lane2(), lane2);  // unfiltered: zero-copy

  auto q = Q("q(x) :- R(x, 3)");
  auto filtered = ScanAtom(snap, q, 0, nullptr, nullptr, nullptr, lane2);
  ASSERT_TRUE(filtered.ok());
  auto ref1 = ScanAtom(snap, q, 0);
  ASSERT_TRUE(ref1.ok());
  EXPECT_GT(ref1->NumRows(), 0u);
  // Lane 2 alone: the same scan over a table whose weights are lane 2.
  Table t2 = t;
  for (size_t r = 0; r < t2.NumRows(); ++r) t2.SetProb(r, (*lane2)[r]);
  auto ref2 = ScanAtom(snap, q, 0, &t2);
  ASSERT_TRUE(ref2.ok());
  ExpectLanes(*filtered, *ref1, *ref2);

  auto mismatched = ScanAtom(snap, q, 0, nullptr, nullptr, nullptr,
                             std::make_shared<WeightColumn>());
  EXPECT_FALSE(mismatched.ok());
}

TEST(LaneTest, HashJoinFoldsBothLanesInBothRoleOrders) {
  for (size_t cap_size : {size_t{8}, Column::kDefaultChunkCapacity}) {
    ChunkCapOverride cap(cap_size);
    Rel a = WithLane2(RandomBinaryRel(0, 1, 600, 90, 71), 72);
    Rel b = WithLane2(RandomBinaryRel(1, 2, 900, 90, 73), 74);
    for (bool a_builds : {true, false}) {
      const Rel& build = a_builds ? a : b;
      const Rel& probe = a_builds ? b : a;
      Rel two = HashJoinBuildProbe(build, probe);
      EXPECT_GT(two.NumRows(), 0u);
      ExpectLanes(two, HashJoinBuildProbe(Lane1Only(build), Lane1Only(probe)),
                  HashJoinBuildProbe(Lane2Only(build), Lane2Only(probe)));
    }
    // One side without a lane 2: it scores lane 2 as lane 1.
    Rel mixed = HashJoin(a, Lane1Only(b));
    ExpectLanes(mixed, HashJoin(Lane1Only(a), Lane1Only(b)),
                HashJoin(Lane2Only(a), Lane1Only(b)));
  }
}

TEST(LaneTest, ParallelHashJoinFoldsBothLanes) {
  // Narrow keys take the dense build, wide keys the hash build; on the pool
  // the probe and the output gathers fan out either way.
  for (int64_t stride : {int64_t{1}, kWideKeyStride}) {
    Rel a = WithLane2(RandomBinaryRel(0, 1, 36'000, 18'000, 75, stride), 76);
    Rel b = WithLane2(RandomBinaryRel(1, 2, 40'000, 18'000, 77, stride), 78);
    Scheduler pool(4);
    Rel two = HashJoin(a, b, &pool);
    ExpectLanes(two, HashJoin(Lane1Only(a), Lane1Only(b)),
                HashJoin(Lane2Only(a), Lane2Only(b)));
  }
}

TEST(LaneTest, GroupedProjectionFoldsBothLanesSequentialAndParallel) {
  // Narrow keys group through the dense array, wide keys through the hash
  // kernel.
  for (auto [cap_size, stride] :
       {std::pair{size_t{8}, int64_t{1}},
        std::pair{Column::kDefaultChunkCapacity, int64_t{1}},
        std::pair{size_t{8}, kWideKeyStride},
        std::pair{Column::kDefaultChunkCapacity, kWideKeyStride}}) {
    ChunkCapOverride cap(cap_size);
    Rel in = WithLane2(RandomBinaryRel(0, 1, 40'000, 700, 79, stride), 80);
    // Sequential path.
    ExpectLanes(ProjectIndependent(in, MaskOf(0)),
                ProjectIndependent(Lane1Only(in), MaskOf(0)),
                ProjectIndependent(Lane2Only(in), MaskOf(0)));
    // With a pool, checked against the sequential single-lane runs: the
    // grouping stays sequential, while at chunk capacity 8 the batch
    // hashing and the key gathers fan out.
    Scheduler pool(4);
    ExpectLanes(ProjectIndependent(in, MaskOf(0), &pool),
                ProjectIndependent(Lane1Only(in), MaskOf(0)),
                ProjectIndependent(Lane2Only(in), MaskOf(0)));
    ExpectLanes(ProjectDistinct(in, MaskOf(1), &pool),
                ProjectDistinct(Lane1Only(in), MaskOf(1)),
                ProjectDistinct(Lane2Only(in), MaskOf(1)));
  }
}

TEST(LaneTest, BooleanProjectionRunsTheKernelPerLane) {
  for (size_t cap_size : {size_t{8}, Column::kDefaultChunkCapacity}) {
    ChunkCapOverride cap(cap_size);
    // 1000 rows engage the fused AVX2 accumulator where available; 100
    // stay on the scalar fold.
    for (size_t n : {size_t{100}, size_t{1000}}) {
      Rel in = WithLane2(RandomBinaryRel(0, 1, n, 50, 81 + n), 82 + n);
      ExpectLanes(ProjectIndependent(in, 0),
                  ProjectIndependent(Lane1Only(in), 0),
                  ProjectIndependent(Lane2Only(in), 0));
      ScopedScalarFallback scalar;
      ExpectLanes(ProjectIndependent(in, 0),
                  ProjectIndependent(Lane1Only(in), 0),
                  ProjectIndependent(Lane2Only(in), 0));
    }
  }
}

TEST(LaneTest, MinMergeTakesTheMinimumPerLane) {
  for (size_t cap_size : {size_t{8}, Column::kDefaultChunkCapacity}) {
    ChunkCapOverride cap(cap_size);
    // Overlapping key ranges: some rows appear in one input only.
    Rel a = ProjectIndependent(RandomBinaryRel(0, 1, 300, 60, 91), MaskOf(0));
    Rel b = ProjectIndependent(RandomBinaryRel(0, 1, 300, 80, 92), MaskOf(0));
    Rel c = ProjectIndependent(RandomBinaryRel(0, 1, 50, 100, 93), MaskOf(0));
    Rel a2 = WithLane2(a, 94), b2 = WithLane2(b, 95);
    // c has no lane 2 of its own: it scores lane 2 as lane 1.
    auto two = MinMerge({a2, b2, c});
    auto ref1 = MinMerge({a, b, c});
    auto ref2 = MinMerge({Lane2Only(a2), Lane2Only(b2), c});
    ASSERT_TRUE(two.ok() && ref1.ok() && ref2.ok());
    EXPECT_GT(ref1->NumRows(), a.NumRows());
    ExpectLanes(*two, *ref1, *ref2);
  }
}

// ---------------------------------------------------------------------------
// Probe-column reuse: a join whose probe rows each match exactly one build
// row shares the probe's columns; anything else gathers.
// ---------------------------------------------------------------------------

/// Rel(x) or Rel(x, y) from explicit rows; scores 0.5 + row / 100.
Rel MakeRel(std::vector<VarId> vars,
            const std::vector<std::vector<int64_t>>& rows) {
  Rel r(std::move(vars));
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<Value> row;
    for (int64_t v : rows[i]) row.push_back(Value::Int64(v));
    r.AddRow(row, 0.5 + static_cast<double>(i) / 100.0);
  }
  return r;
}

/// The join against the nested-loop reference. Rows come in probe order;
/// a probe row's several partners come in build-chain order, which the
/// reference does not model, so those compare as sorted lists.
void ExpectJoinMatchesReference(const Rel& out, const Rel& build,
                                const Rel& probe, bool probe_order = true) {
  using testing_util::Canonical;
  using testing_util::RefJoin;
  using testing_util::ToRef;
  const testing_util::RefRel ref = RefJoin(ToRef(probe), ToRef(build));
  const testing_util::RefRel got = ToRef(out);
  EXPECT_EQ(got.vars, ref.vars);
  if (probe_order) {
    EXPECT_EQ(got.rows, ref.rows);
    EXPECT_EQ(got.scores, ref.scores);
  } else {
    EXPECT_EQ(Canonical(got), Canonical(ref));
  }
}

TEST(ProbeReuseTest, ExactlyOneMatchPerProbeRowSharesProbeColumns) {
  Rel build = MakeRel({0}, {{1}, {2}, {3}});
  Rel probe = MakeRel({0, 1}, {{2, 20}, {1, 10}, {3, 30}, {2, 21}});
  JoinPath path;
  Rel out = HashJoinBuildProbe(build, probe, nullptr, &path);
  EXPECT_TRUE(path.probe_cols_reused);
  ASSERT_EQ(out.NumRows(), probe.NumRows());
  EXPECT_EQ(out.col(0), probe.col(0));  // the shared key, too
  EXPECT_EQ(out.col(1), probe.col(1));
  ExpectJoinMatchesReference(out, build, probe);
}

TEST(ProbeReuseTest, UnmatchedOrRepeatedProbeRowsGather) {
  Rel probe = MakeRel({0, 1}, {{2, 20}, {1, 10}, {4, 40}});
  JoinPath path;
  // Probe row x=4 has no partner.
  Rel build = MakeRel({0}, {{1}, {2}, {3}});
  Rel out = HashJoinBuildProbe(build, probe, nullptr, &path);
  EXPECT_FALSE(path.probe_cols_reused);
  EXPECT_NE(out.col(0), probe.col(0));
  EXPECT_NE(out.col(1), probe.col(1));
  ExpectJoinMatchesReference(out, build, probe);

  // Every probe row matches, but x=2 matches twice.
  Rel dup = MakeRel({0, 2}, {{1, 5}, {2, 6}, {2, 7}, {4, 8}});
  out = HashJoinBuildProbe(dup, probe, nullptr, &path);
  EXPECT_FALSE(path.probe_cols_reused);
  ASSERT_EQ(out.NumRows(), probe.NumRows() + 1);
  EXPECT_NE(out.col(1), probe.col(1));
  ExpectJoinMatchesReference(out, dup, probe, /*probe_order=*/false);

  // Pinned roles reuse; the size-chosen roles flip them (the smaller side
  // builds), and the former build side's unmatched row forces a gather.
  Rel small = MakeRel({0, 1}, {{2, 20}, {1, 10}});
  Rel large = MakeRel({0}, {{1}, {2}, {3}});
  out = HashJoinBuildProbe(large, small, nullptr, &path);
  EXPECT_TRUE(path.probe_cols_reused);
  out = HashJoin(large, small, nullptr, &path);
  EXPECT_FALSE(path.probe_cols_reused);
  ExpectJoinMatchesReference(out, small, large);
}

TEST(ProbeReuseTest, MixedChunkGeometriesHashJoinAndProjectBitIdentically) {
  // The probe columns keep the capacity they were built at, while the
  // gathered build-only column and the scores take the current default:
  // one Rel, two chunk geometries. Everything downstream must match the
  // same pipeline over single-geometry inputs.
  const size_t n = 40'000;
  Rel probe_small_chunks(std::vector<VarId>{0, 1});
  {
    ChunkCapOverride cap(8);
    probe_small_chunks = RandomBinaryRel(0, 1, n, 5'000, 101);
  }
  Rel probe = RandomBinaryRel(0, 1, n, 5'000, 101);
  ASSERT_EQ(probe_small_chunks.col(0)->chunk_capacity(), 8u);
  Rel build(std::vector<VarId>{0, 2});
  for (int64_t x = 0; x < 5'000; ++x) {
    build.AddRow(std::vector<Value>{Value::Int64(x), Value::Int64(x % 97)},
                 0.3 + 0.0001 * static_cast<double>(x));
  }
  Scheduler pool(4);
  for (Scheduler* s : {static_cast<Scheduler*>(nullptr), &pool}) {
    JoinPath path;
    Rel mixed = HashJoinBuildProbe(build, probe_small_chunks, s, &path);
    ASSERT_TRUE(path.probe_cols_reused);
    EXPECT_EQ(mixed.col(0)->chunk_capacity(), 8u);
    EXPECT_EQ(mixed.col(2)->chunk_capacity(), Column::kDefaultChunkCapacity);
    Rel uniform = HashJoinBuildProbe(build, probe, s);
    ExpectBitIdentical(mixed, uniform);

    const std::vector<int> keys = {0, 1, 2};
    HashVector hm = HashKeyColumns(mixed, keys, s);
    HashVector hu = HashKeyColumns(uniform, keys, s);
    ASSERT_TRUE(std::equal(hm.begin(), hm.end(), hu.begin(), hu.end()));
    ExpectBitIdentical(HashJoin(mixed, build, s), HashJoin(uniform, build, s));
    ExpectBitIdentical(ProjectIndependent(mixed, MaskOf(2), s),
                       ProjectIndependent(uniform, MaskOf(2), s));
    ExpectBitIdentical(ProjectIndependent(mixed, MaskOf(0) | MaskOf(2), s),
                       ProjectIndependent(uniform, MaskOf(0) | MaskOf(2), s));
  }
}

}  // namespace
}  // namespace dissodb
