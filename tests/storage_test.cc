// Unit tests for src/storage: schemas, tables, FDs, database catalog.
#include <gtest/gtest.h>

#include "src/storage/database.h"
#include "src/storage/schema.h"
#include "src/storage/table.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;

TEST(SchemaTest, AllInt64Factory) {
  RelationSchema s = RelationSchema::AllInt64("R", 3);
  EXPECT_EQ(s.arity(), 3);
  EXPECT_EQ(s.name, "R");
  EXPECT_FALSE(s.deterministic);
  EXPECT_EQ(s.column_names[2], "c2");
}

TEST(SchemaTest, ToStringMarksDeterministic) {
  RelationSchema s = RelationSchema::AllInt64("T", 1, /*deterministic=*/true);
  EXPECT_NE(s.ToString().find("T^d"), std::string::npos);
}

TEST(TableTest, AddAndReadRows) {
  Table t(RelationSchema::AllInt64("R", 2));
  t.AddRow({Value::Int64(1), Value::Int64(2)}, 0.5);
  t.AddRow({Value::Int64(3), Value::Int64(4)}, 0.25);
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.At(0, 0), Value::Int64(1));
  EXPECT_EQ(t.At(1, 1), Value::Int64(4));
  EXPECT_DOUBLE_EQ(t.Prob(0), 0.5);
  EXPECT_DOUBLE_EQ(t.Prob(1), 0.25);
}

TEST(TableTest, DeterministicForcesProbabilityOne) {
  Table t(RelationSchema::AllInt64("T", 1, /*deterministic=*/true));
  t.AddRow({Value::Int64(1)}, 0.3);
  EXPECT_DOUBLE_EQ(t.Prob(0), 1.0);
  t.SetProb(0, 0.7);
  EXPECT_DOUBLE_EQ(t.Prob(0), 1.0);
}

TEST(TableTest, ZeroArityTableCountsRows) {
  Table t(RelationSchema::AllInt64("B", 0));
  t.AddRow(std::span<const Value>{}, 0.5);
  t.AddRow(std::span<const Value>{}, 0.6);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TableTest, FilterKeepsMatchingRows) {
  Table t(RelationSchema::AllInt64("R", 1));
  for (int i = 0; i < 10; ++i) t.AddRow({Value::Int64(i)}, 0.1 * i);
  Table f = t.Filter([](std::span<const Value> row) {
    return row[0].AsInt64() % 2 == 0;
  });
  EXPECT_EQ(f.NumRows(), 5u);
  EXPECT_DOUBLE_EQ(f.Prob(1), 0.2);  // row with value 2
}

TEST(TableTest, ScaleProbabilitiesClampsAndSkipsDeterministic) {
  Table t(RelationSchema::AllInt64("R", 1));
  t.AddRow({Value::Int64(1)}, 0.8);
  t.ScaleProbabilities(0.5);
  EXPECT_DOUBLE_EQ(t.Prob(0), 0.4);

  Table d(RelationSchema::AllInt64("T", 1, true));
  d.AddRow({Value::Int64(1)}, 1.0);
  d.ScaleProbabilities(0.5);
  EXPECT_DOUBLE_EQ(d.Prob(0), 1.0);
}

TEST(TableTest, SatisfiesFDDetectsViolation) {
  Table t(RelationSchema::AllInt64("S", 2));
  t.AddRow({Value::Int64(1), Value::Int64(10)}, 1.0);
  t.AddRow({Value::Int64(2), Value::Int64(20)}, 1.0);
  FunctionalDependency fd{{0}, {1}};
  EXPECT_TRUE(t.SatisfiesFD(fd));
  t.AddRow({Value::Int64(1), Value::Int64(99)}, 1.0);
  EXPECT_FALSE(t.SatisfiesFD(fd));
}

TEST(TableTest, ValidateFDsUsesSchemaDeclarations) {
  RelationSchema s = RelationSchema::AllInt64("S", 2);
  s.fds.push_back(FunctionalDependency{{0}, {1}});
  Table t(s);
  t.AddRow({Value::Int64(1), Value::Int64(2)}, 1.0);
  t.AddRow({Value::Int64(1), Value::Int64(2)}, 1.0);
  EXPECT_TRUE(t.ValidateFDs().ok());
  t.AddRow({Value::Int64(1), Value::Int64(3)}, 1.0);
  auto st = t.ValidateFDs();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

TEST(StringPoolTest, InternIsIdempotent) {
  StringPool pool;
  int64_t a = pool.Intern("red");
  int64_t b = pool.Intern("green");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("red"), a);
  EXPECT_EQ(pool.Get(a), "red");
  EXPECT_EQ(pool.Find("green"), b);
  EXPECT_EQ(pool.Find("blue"), -1);
}

TEST(DatabaseTest, AddAndLookupTables) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 2}, 0.25}});
  const Snapshot snap = db.snapshot();
  EXPECT_EQ(snap.NumTables(), 2);
  EXPECT_EQ(snap.FindTable("R"), 0);
  EXPECT_EQ(snap.FindTable("S"), 1);
  EXPECT_EQ(snap.FindTable("T"), -1);
  auto t = snap.GetTable("S");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->NumRows(), 1u);
  EXPECT_FALSE(snap.GetTable("T").ok());
}

TEST(DatabaseTest, DuplicateTableNameRejected) {
  Database db;
  AddTable(&db, "R", 1, {});
  auto r = db.AddTable(Table(RelationSchema::AllInt64("R", 2)));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kAlreadyExists);
}

TEST(DatabaseTest, TupleProbLookup) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.75}});
  const Snapshot snap = db.snapshot();
  EXPECT_DOUBLE_EQ(snap.TupleProb(TupleId{0, 1}), 0.75);
  EXPECT_FALSE(snap.TupleDeterministic(TupleId{0, 0}));
}

TEST(DatabaseTest, CloneIsDeep) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  Database copy = db.Clone();
  {
    Database::Writer w = copy.BeginWrite();
    w.mutable_table(0)->SetProb(0, 0.9);
    w.Commit();
  }
  EXPECT_DOUBLE_EQ(db.snapshot().table(0).Prob(0), 0.5);
  EXPECT_DOUBLE_EQ(copy.snapshot().table(0).Prob(0), 0.9);
}

TEST(DatabaseTest, ScaleProbabilitiesAppliesToAllTables) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.8}});
  db.ScaleProbabilities(0.5);
  const Snapshot snap = db.snapshot();
  EXPECT_DOUBLE_EQ(snap.table(0).Prob(0), 0.25);
  EXPECT_DOUBLE_EQ(snap.table(1).Prob(0), 0.4);
}

TEST(DatabaseTest, StrInternsIntoPool) {
  Database db;
  Value v = db.Str("hello");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(db.strings()->Get(v.AsStringCode()), "hello");
}

}  // namespace
}  // namespace dissodb
