// Tests for lineage grounding (Example 7) and derived statistics.
#include <gtest/gtest.h>

#include "src/infer/exact.h"
#include "src/infer/query_inference.h"
#include "src/lineage/lineage.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::Q;

TEST(LineageTest, Example7Lineage) {
  // q :- R(x), S(x,y) on D = {R(1), R(2), S(1,4), S(1,5)}:
  // F = R(1)S(1,4) v R(1)S(1,5) — two terms, R(2) not in the lineage.
  auto q = Q("q() :- R(x), S(x,y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.6}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.4}, {{1, 5}, 0.3}});
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok()) << lin.status().ToString();
  ASSERT_EQ(lin->answers.size(), 1u);
  const AnswerLineage& al = lin->answers[0];
  EXPECT_EQ(al.terms.size(), 2u);
  for (const auto& term : al.terms) EXPECT_EQ(term.size(), 2u);
  // P(q) = P(F) = p(1-(1-q)(1-r)) with p=.5, q=.4, r=.3 (Example 7).
  Dnf f = lin->ToDnf(al);
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.5 * (1 - (1 - 0.4) * (1 - 0.3)), 1e-12);
}

TEST(LineageTest, PerAnswerGrouping) {
  auto q = Q("q(z) :- R(z,x), S(x)");
  Database db;
  AddTable(&db, "R", 2, {{{10, 1}, 0.5}, {{10, 2}, 0.5}, {{20, 1}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok());
  ASSERT_EQ(lin->answers.size(), 2u);
  // Ordered by answer tuple: z=10 first with 2 terms, then z=20 with 1.
  EXPECT_EQ(lin->answers[0].answer[0], Value::Int64(10));
  EXPECT_EQ(lin->answers[0].terms.size(), 2u);
  EXPECT_EQ(lin->answers[1].answer[0], Value::Int64(20));
  EXPECT_EQ(lin->answers[1].terms.size(), 1u);
}

TEST(LineageTest, DeterministicTuplesDroppedFromDnf) {
  auto q = Q("q() :- R(x), T(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "T", 1, {{{1}, 1.0}}, /*deterministic=*/true);
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok());
  ASSERT_EQ(lin->answers.size(), 1u);
  Dnf f = lin->ToDnf(lin->answers[0]);
  ASSERT_EQ(f.terms.size(), 1u);
  EXPECT_EQ(f.terms[0].size(), 1u);  // only the R tuple remains
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.5);
}

TEST(LineageTest, ConstantsRestrictGrounding) {
  auto q = Q("q() :- R(x, 5)");
  Database db;
  AddTable(&db, "R", 2, {{{1, 5}, 0.5}, {{2, 6}, 0.5}});
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok());
  ASSERT_EQ(lin->answers.size(), 1u);
  EXPECT_EQ(lin->answers[0].terms.size(), 1u);
}

TEST(LineageTest, NoAnswersWhenJoinEmpty) {
  auto q = Q("q() :- R(x), S(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "S", 1, {{{2}, 0.5}});
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok());
  EXPECT_TRUE(lin->answers.empty());
}

TEST(LineageTest, OverridesRebindTables) {
  auto q = Q("q() :- R(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  Table filtered(RelationSchema::AllInt64("R", 1));
  filtered.AddRow({Value::Int64(2)}, 0.5);
  auto lin = ComputeLineage(db.snapshot(), q, {{0, &filtered}});
  ASSERT_TRUE(lin.ok());
  ASSERT_EQ(lin->answers.size(), 1u);
  EXPECT_EQ(lin->answers[0].terms.size(), 1u);
}

TEST(LineageTest, GuardOnBlowup) {
  auto q = Q("q() :- R(x), S(y)");  // cartesian product
  Database db;
  std::vector<std::pair<std::vector<int64_t>, double>> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({{i}, 0.5});
  AddTable(&db, "R", 1, rows);
  AddTable(&db, "S", 1, rows);
  LineageOptions opts;
  opts.max_total_terms = 1000;  // 200*200 exceeds this
  auto lin = ComputeLineage(db.snapshot(), q, {}, opts);
  EXPECT_FALSE(lin.ok());
  EXPECT_EQ(lin.status().code(), Status::Code::kOutOfRange);
}

TEST(LineageTest, MaxLineageSize) {
  auto q = Q("q(z) :- R(z,x), S(x)");
  Database db;
  AddTable(&db, "R", 2, {{{10, 1}, 0.5}, {{10, 2}, 0.5}, {{20, 1}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok());
  EXPECT_EQ(MaxLineageSize(*lin), 2u);
}

TEST(LineageTest, LineageSizeRankingOrdersBySize) {
  auto q = Q("q(z) :- R(z,x), S(x)");
  Database db;
  AddTable(&db, "R", 2, {{{10, 1}, 0.5}, {{10, 2}, 0.5}, {{20, 1}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok());
  auto ranking = LineageSizeRanking(*lin);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].tuple[0], Value::Int64(10));
  EXPECT_DOUBLE_EQ(ranking[0].score, 2.0);
}

TEST(LineageTest, MeanDistinctTuplesOfAtom) {
  // z=10's lineage has 2 terms sharing one S... R tuples distinct per term.
  auto q = Q("q() :- R(x), S(x,y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.5}, {{1, 5}, 0.5}});
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok());
  ASSERT_EQ(lin->answers.size(), 1u);
  // Atom 0 (R): one distinct tuple in 2 terms -> mean 2.0 copies.
  EXPECT_DOUBLE_EQ(lin->MeanDistinctTuplesOfAtom(lin->answers[0], 0), 2.0);
  // Atom 1 (S): two distinct tuples in 2 terms -> 1.0.
  EXPECT_DOUBLE_EQ(lin->MeanDistinctTuplesOfAtom(lin->answers[0], 1), 1.0);
}

TEST(LineageTest, BooleanQuerySingleAnswer) {
  auto q = Q("q() :- R(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  auto lin = ComputeLineage(db.snapshot(), q);
  ASSERT_TRUE(lin.ok());
  ASSERT_EQ(lin->answers.size(), 1u);
  EXPECT_TRUE(lin->answers[0].answer.empty());
  EXPECT_EQ(lin->answers[0].terms.size(), 2u);
}

}  // namespace
}  // namespace dissodb
