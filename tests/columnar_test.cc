// Columnar storage core: typed columns, zero-copy sharing with
// copy-on-write, and the unified zero-arity row accounting shared by Table
// and Rel.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/exec/operators.h"
#include "src/exec/rel.h"
#include "src/serve/scheduler.h"
#include "src/storage/columnar.h"
#include "src/storage/table.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::Q;

TEST(ColumnTest, TypedAppendAndGet) {
  Column c;
  c.Append(Value::Int64(42));
  c.Append(Value::Int64(-7));
  EXPECT_EQ(c.type(), ValueType::kInt64);
  EXPECT_TRUE(c.uniform());
  EXPECT_EQ(c.Get(0), Value::Int64(42));
  EXPECT_EQ(c.Get(1), Value::Int64(-7));
}

TEST(ColumnTest, DoubleRoundTripsThroughRawBits) {
  Column c;
  c.Append(Value::Double(0.25));
  c.Append(Value::Double(-1.5e300));
  EXPECT_EQ(c.Get(0), Value::Double(0.25));
  EXPECT_EQ(c.Get(1), Value::Double(-1.5e300));
}

TEST(ColumnTest, MixedTypesDemoteToTaggedStorage) {
  Column c;
  c.Append(Value::Int64(1));
  c.Append(Value::Double(2.5));  // type mismatch -> per-element tags
  EXPECT_FALSE(c.uniform());
  EXPECT_EQ(c.Get(0), Value::Int64(1));
  EXPECT_EQ(c.Get(1), Value::Double(2.5));
  EXPECT_FALSE(c.ElemEquals(0, c, 1));
}

TEST(ColumnTest, HashMatchesValueHash) {
  Column c;
  c.Append(Value::Int64(99));
  c.Append(Value::StringCode(3));
  EXPECT_EQ(c.HashAt(0), Value::Int64(99).Hash());
  EXPECT_EQ(c.HashAt(1), Value::StringCode(3).Hash());
}

TEST(ColumnarTest, ScanSharesTableColumnsZeroCopy) {
  Database db;
  AddTable(&db, "R", 2, {{{1, 2}, 0.5}, {{3, 4}, 0.25}});
  ConjunctiveQuery q = Q("q(x,y) :- R(x,y)");
  const Snapshot snap = db.snapshot();
  auto rel = ScanAtom(snap, q, 0);
  ASSERT_TRUE(rel.ok());
  const Table* t = *snap.GetTable("R");
  // Unfiltered scan: the Rel references the very same column objects.
  EXPECT_EQ(rel->col(0).get(), t->col(0).get());
  EXPECT_EQ(rel->col(1).get(), t->col(1).get());
  EXPECT_EQ(rel->weights().get(), t->weights().get());
}

TEST(ColumnarTest, CopyOnWriteLeavesSharedColumnsIntact) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.25}});
  ConjunctiveQuery q = Q("q(x) :- R(x)");
  auto rel = ScanAtom(db.snapshot(), q, 0);
  ASSERT_TRUE(rel.ok());
  Rel copy = *rel;  // shallow
  EXPECT_EQ(copy.col(0).get(), rel->col(0).get());
  copy.SetScore(0, 0.99);  // triggers copy-on-write of the score column
  EXPECT_DOUBLE_EQ(copy.Score(0), 0.99);
  EXPECT_DOUBLE_EQ(rel->Score(0), 0.5);
  EXPECT_DOUBLE_EQ((*db.snapshot().GetTable("R"))->Prob(0), 0.5);
}

TEST(ColumnarTest, TableShallowCopyThenMutateIsIsolated) {
  Table t(RelationSchema::AllInt64("R", 1));
  t.AddRow({Value::Int64(1)}, 0.5);
  Table copy = t;
  copy.SetProb(0, 0.9);
  EXPECT_DOUBLE_EQ(t.Prob(0), 0.5);
  EXPECT_DOUBLE_EQ(copy.Prob(0), 0.9);
  copy.AddRow({Value::Int64(2)}, 0.1);
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(copy.NumRows(), 2u);
  EXPECT_EQ(t.At(0, 0), Value::Int64(1));
}

TEST(ColumnarTest, ZeroArityAccountingUnifiedAcrossTableAndRel) {
  Table t(RelationSchema::AllInt64("B", 0));
  t.AddRow(std::span<const Value>{}, 0.5);
  t.AddRow(std::span<const Value>{}, 0.25);
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(t.Prob(1), 0.25);

  Rel r(std::vector<VarId>{});
  r.AddRow({}, 0.75);
  r.AddRow({}, 0.5);
  r.AddRow({}, 0.125);
  EXPECT_EQ(r.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(r.Score(2), 0.125);

  // Reserve must be harmless for zero-arity relations too.
  t.Reserve(10);
  r.Reserve(10);
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST(ColumnarTest, SelectAllRowsSharesColumns) {
  Table t(RelationSchema::AllInt64("R", 1));
  t.AddRow({Value::Int64(1)}, 0.5);
  t.AddRow({Value::Int64(2)}, 0.25);
  std::vector<uint32_t> all = {0, 1};
  Table s = t.Select(all);
  EXPECT_EQ(s.col(0).get(), t.col(0).get());
  std::vector<uint32_t> some = {1};
  Table s2 = t.Select(some);
  EXPECT_EQ(s2.NumRows(), 1u);
  EXPECT_EQ(s2.At(0, 0), Value::Int64(2));
  EXPECT_DOUBLE_EQ(s2.Prob(0), 0.25);
}

// ---------------------------------------------------------------------------
// Chunked layout: fixed-size sealed chunks, copy-on-write at chunk
// granularity, per-chunk zone maps, and chunk-seam-crossing primitives.
// ---------------------------------------------------------------------------

using testing_util::ChunkCapOverride;

TEST(ChunkedColumnTest, SealsChunksAtCapacityAndIndexesAcrossSeams) {
  ChunkCapOverride cap(4);
  Column c;
  for (int64_t i = 0; i < 10; ++i) c.Append(Value::Int64(100 + i));
  EXPECT_EQ(c.size(), 10u);
  ASSERT_EQ(c.num_chunks(), 3u);
  EXPECT_EQ(c.ChunkSize(0), 4u);
  EXPECT_EQ(c.ChunkSize(1), 4u);
  EXPECT_EQ(c.ChunkSize(2), 2u);
  EXPECT_EQ(c.ChunkBegin(2), 8u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(c.Get(i), Value::Int64(100 + i)) << i;
    EXPECT_EQ(c.RawBits(i), static_cast<uint64_t>(100 + i)) << i;
  }
}

TEST(ChunkedColumnTest, CopyOnWriteDetachesOnlyTheTailChunk) {
  ChunkCapOverride cap(4);
  Column a;
  for (int64_t i = 0; i < 6; ++i) a.Append(Value::Int64(i));
  Column b = a;  // shallow: shares both chunks
  EXPECT_EQ(a.chunk(0).get(), b.chunk(0).get());
  EXPECT_EQ(a.chunk(1).get(), b.chunk(1).get());
  b.Append(Value::Int64(99));
  // Only the tail chunk being written detaches; the sealed chunk stays
  // shared and the original column is untouched.
  EXPECT_EQ(a.chunk(0).get(), b.chunk(0).get());
  EXPECT_NE(a.chunk(1).get(), b.chunk(1).get());
  EXPECT_EQ(a.size(), 6u);
  EXPECT_EQ(b.size(), 7u);
  EXPECT_EQ(b.Get(6), Value::Int64(99));
  EXPECT_EQ(a.Get(5), Value::Int64(5));
}

TEST(ChunkedColumnTest, ZoneMapsTrackPerChunkMinMax) {
  ChunkCapOverride cap(4);
  Column c;
  const int64_t vals[] = {5, 3, 9, 7, 20, 11, 15, 12, 2};
  for (int64_t v : vals) c.Append(Value::Int64(v));
  ASSERT_EQ(c.num_chunks(), 3u);
  EXPECT_EQ(c.ChunkMinBits(0), 3u);
  EXPECT_EQ(c.ChunkMaxBits(0), 9u);
  EXPECT_EQ(c.ChunkMinBits(1), 11u);
  EXPECT_EQ(c.ChunkMaxBits(1), 20u);
  EXPECT_EQ(c.ChunkMinBits(2), 2u);
  EXPECT_EQ(c.ChunkMaxBits(2), 2u);
}

TEST(ChunkedColumnTest, AppendGatherCrossesChunkSeamsOnBothSides) {
  ChunkCapOverride cap(4);
  Column src;
  for (int64_t i = 0; i < 11; ++i) src.Append(Value::Int64(1000 + i));
  Column dst;
  dst.Append(Value::Int64(-1));  // non-empty destination with tail room
  const std::vector<uint32_t> idx = {0, 3, 4, 5, 7, 10, 2, 8, 8, 1};
  dst.AppendGather(src, idx);
  ASSERT_EQ(dst.size(), 1u + idx.size());
  EXPECT_EQ(dst.Get(0), Value::Int64(-1));
  for (size_t k = 0; k < idx.size(); ++k) {
    EXPECT_EQ(dst.Get(1 + k), src.Get(idx[k])) << k;
  }
  EXPECT_EQ(dst.num_chunks(), 3u);  // 11 elements at capacity 4
}

TEST(ChunkedColumnTest, GatheredParallelIsBitIdenticalToSequential) {
  ChunkCapOverride cap(4);
  Column src;
  for (int64_t i = 0; i < 64; ++i) src.Append(Value::Int64(i * 3));
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < 64; i += 2) {
    sel.push_back(i);
    sel.push_back(63 - i);
  }
  Column seq = Column::Gathered(src, sel, nullptr);
  Scheduler pool(3);
  Column par = Column::Gathered(src, sel, &pool);
  ASSERT_EQ(seq.size(), sel.size());
  ASSERT_EQ(par.size(), sel.size());
  ASSERT_EQ(seq.num_chunks(), par.num_chunks());
  for (size_t k = 0; k < sel.size(); ++k) {
    EXPECT_EQ(seq.Get(k), src.Get(sel[k])) << k;
    EXPECT_EQ(par.Get(k), seq.Get(k)) << k;
  }
  for (size_t ci = 0; ci < seq.num_chunks(); ++ci) {
    EXPECT_EQ(seq.ChunkMinBits(ci), par.ChunkMinBits(ci)) << ci;
    EXPECT_EQ(seq.ChunkMaxBits(ci), par.ChunkMaxBits(ci)) << ci;
  }
}

TEST(ChunkedColumnTest, HashCombineRangeMatchesFullHashing) {
  ChunkCapOverride cap(4);
  Column c;
  for (int64_t i = 0; i < 13; ++i) c.Append(Value::Int64(i * 17 % 7));
  std::vector<uint64_t> full(c.size(), 0x2545f491ULL);
  c.HashCombineInto(full);
  // Any chunk-seam-crossing split must reproduce the same hashes.
  std::vector<uint64_t> split(c.size(), 0x2545f491ULL);
  c.HashCombineRange(0, std::span(split.data(), 3));
  c.HashCombineRange(3, std::span(split.data() + 3, 7));
  c.HashCombineRange(10, std::span(split.data() + 10, 3));
  EXPECT_EQ(full, split);
}

TEST(ChunkedColumnTest, MixedTypeDemoteMaterializesTagsInEveryChunk) {
  ChunkCapOverride cap(4);
  Column a;
  for (int64_t i = 0; i < 6; ++i) a.Append(Value::Int64(i));
  Column b = a;  // shares chunks before the demote
  b.Append(Value::Double(2.5));
  EXPECT_FALSE(b.uniform());
  EXPECT_TRUE(a.uniform());  // demote detached the shared chunks
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(b.Get(i), Value::Int64(i)) << i;
    EXPECT_EQ(a.Get(i), Value::Int64(i)) << i;
  }
  EXPECT_EQ(b.Get(6), Value::Double(2.5));
  EXPECT_FALSE(b.ElemEquals(0, b, 6));
}

TEST(ChunkedColumnTest, ReserveIsANoOpOnSharedColumnsWithoutGrowth) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.25}});
  ConjunctiveQuery q = Q("q(x) :- R(x)");
  const Snapshot snap = db.snapshot();
  auto rel = ScanAtom(snap, q, 0);
  ASSERT_TRUE(rel.ok());
  const Table* t = *snap.GetTable("R");
  ASSERT_EQ(rel->col(0).get(), t->col(0).get());
  // A no-growth reservation must not silently deep-copy the shared scan
  // output (columns nor weights).
  rel->Reserve(rel->NumRows());
  EXPECT_EQ(rel->col(0).get(), t->col(0).get());
  EXPECT_EQ(rel->weights().get(), t->weights().get());
  rel->Reserve(0);
  EXPECT_EQ(rel->col(0).get(), t->col(0).get());
}

TEST(ChunkedColumnTest, TablesShareSealedChunksAcrossCopies) {
  ChunkCapOverride cap(4);
  Table t(RelationSchema::AllInt64("R", 1));
  for (int64_t i = 0; i < 9; ++i) t.AddRow({Value::Int64(i)}, 0.5);
  Table copy = t;
  copy.AddRow({Value::Int64(100)}, 0.25);
  // The append detached the Column object and its tail chunk only; both
  // sealed chunks are still physically shared between the two tables.
  ASSERT_NE(copy.col(0).get(), t.col(0).get());
  EXPECT_EQ(copy.col(0)->chunk(0).get(), t.col(0)->chunk(0).get());
  EXPECT_EQ(copy.col(0)->chunk(1).get(), t.col(0)->chunk(1).get());
  EXPECT_NE(copy.col(0)->chunk(2).get(), t.col(0)->chunk(2).get());
  EXPECT_EQ(t.NumRows(), 9u);
  EXPECT_EQ(copy.NumRows(), 10u);
}

TEST(ColumnarTest, HashKeyColumnsAgreeWithPerRowHashing) {
  Table t(RelationSchema::AllInt64("R", 2));
  t.AddRow({Value::Int64(1), Value::Int64(5)}, 1.0);
  t.AddRow({Value::Int64(1), Value::Int64(5)}, 1.0);
  t.AddRow({Value::Int64(2), Value::Int64(5)}, 1.0);
  std::vector<int> keys = {0, 1};
  auto h = HashKeyColumns(t, keys);
  EXPECT_EQ(h[0], h[1]);
  EXPECT_NE(h[0], h[2]);
  EXPECT_TRUE(KeysEqual(t, 0, keys, t, 1, keys));
  EXPECT_FALSE(KeysEqual(t, 0, keys, t, 2, keys));
}

}  // namespace
}  // namespace dissodb
