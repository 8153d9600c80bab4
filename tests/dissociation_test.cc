// Unit tests for dissociations: validation, partial orders, materialization
// (Definition 10, Example 11), plan <-> dissociation mappings (Theorem 18).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/dissociation/dissociation.h"
#include "src/plan/plan_print.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::Q;
using testing_util::Vars;

TEST(DissociationTest, EmptyAndTop) {
  auto q = Q("q() :- R(x), S(x,y)");
  Dissociation empty = Dissociation::Empty(q);
  EXPECT_TRUE(empty.IsEmpty());
  Dissociation top = Dissociation::Top(q);
  EXPECT_EQ(top.extra[0], Vars(q, {"y"}));  // R gains y
  EXPECT_EQ(top.extra[1], 0u);              // S already has all evars
}

TEST(DissociationTest, ValidateRejectsOwnVariable) {
  auto q = Q("q() :- R(x), S(x,y)");
  Dissociation d = Dissociation::Empty(q);
  d.extra[0] = Vars(q, {"x"});  // R already contains x
  EXPECT_FALSE(ValidateDissociation(q, d).ok());
}

TEST(DissociationTest, ValidateRejectsHeadVariable) {
  auto q = Q("q(z) :- R(z,x), S(x,y)");
  Dissociation d = Dissociation::Empty(q);
  d.extra[1] = Vars(q, {"z"});  // z is a head variable
  EXPECT_FALSE(ValidateDissociation(q, d).ok());
}

TEST(DissociationTest, PartialOrder) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Dissociation bottom = Dissociation::Empty(q);
  Dissociation mid = Dissociation::Empty(q);
  mid.extra[0] = Vars(q, {"y"});
  Dissociation top = Dissociation::Top(q);
  EXPECT_TRUE(DissociationLeq(bottom, mid));
  EXPECT_TRUE(DissociationLeq(mid, top));
  EXPECT_TRUE(DissociationLeq(bottom, top));
  EXPECT_FALSE(DissociationLeq(mid, bottom));
  Dissociation other = Dissociation::Empty(q);
  other.extra[2] = Vars(q, {"x"});
  EXPECT_FALSE(DissociationLeq(mid, other));
  EXPECT_FALSE(DissociationLeq(other, mid));
}

TEST(DissociationTest, ProbabilisticPreorderIgnoresDeterministicAtoms) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  SchemaKnowledge sk = SchemaKnowledge::None(q);
  sk.deterministic = {false, false, true};  // T^d
  Dissociation d1 = Dissociation::Empty(q);
  d1.extra[2] = Vars(q, {"x"});  // dissociates only T^d
  Dissociation d0 = Dissociation::Empty(q);
  // Under <=p, d1 and d0 are equivalent (Lemma 22).
  EXPECT_TRUE(DissociationLeqP(q, sk, d0, d1));
  EXPECT_TRUE(DissociationLeqP(q, sk, d1, d0));
  // Under the plain order they are not.
  EXPECT_FALSE(DissociationLeq(d1, d0));
}

TEST(DissociationTest, PreorderQuotientsByFDClosure) {
  // With x -> y on S, dissociating R on y is "free" (Lemma 25).
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  SchemaKnowledge sk = SchemaKnowledge::None(q);
  sk.fds.push_back(QueryFD{Vars(q, {"x"}), Vars(q, {"y"})});
  Dissociation d = Dissociation::Empty(q);
  d.extra[0] = Vars(q, {"y"});  // R^y: y in closure(x)
  EXPECT_TRUE(DissociationLeqP(q, sk, d, Dissociation::Empty(q)));
  EXPECT_TRUE(DissociationLeqP(q, sk, Dissociation::Empty(q), d));
}

TEST(DissociationTest, SafeDissociationDetection) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");  // unsafe as-is
  EXPECT_FALSE(IsSafeDissociation(q, Dissociation::Empty(q)));
  Dissociation d = Dissociation::Empty(q);
  d.extra[2] = Vars(q, {"x"});  // T^x: hierarchical
  EXPECT_TRUE(IsSafeDissociation(q, d));
  EXPECT_TRUE(IsSafeDissociation(q, Dissociation::Top(q)));
}

TEST(DissociationTest, SafeUnsafeCanToggleUpTheLattice) {
  // Paper Section 3.1: q :- R(x), S(x), T(y) is safe; dissociating S on y
  // makes it unsafe; also dissociating T on x makes it safe again.
  auto q = Q("q() :- R(x), S(x), T(y)");
  EXPECT_TRUE(IsSafeDissociation(q, Dissociation::Empty(q)));
  Dissociation d1 = Dissociation::Empty(q);
  d1.extra[1] = Vars(q, {"y"});
  EXPECT_FALSE(IsSafeDissociation(q, d1));
  Dissociation d2 = d1;
  d2.extra[2] = Vars(q, {"x"});
  EXPECT_TRUE(IsSafeDissociation(q, d2));
}

TEST(MaterializeTest, Example11) {
  // q :- R(x), S(x,y) with R = {1,2}, S = {(1,4),(1,5)};
  // Delta = ({y}, {}) gives R^y = {1,2} x {4,5} (Example 11).
  auto q = Q("q() :- R(x), S(x,y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.6}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.7}, {{1, 5}, 0.8}});
  Dissociation d = Dissociation::Empty(q);
  d.extra[0] = Vars(q, {"y"});
  auto mat = MaterializeDissociation(db, q, d);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  const Snapshot snap = mat->db.snapshot();
  auto rd = snap.GetTable("R__d0");
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ((*rd)->NumRows(), 4u);  // {1,2} x ADom(y)={4,5}
  EXPECT_EQ((*rd)->arity(), 2);
  // Probabilities copy the original tuple's probability.
  for (size_t r = 0; r < (*rd)->NumRows(); ++r) {
    double p = (*rd)->Prob(r);
    EXPECT_TRUE(p == 0.5 || p == 0.6);
  }
  // The dissociated query uses the new relations and extends the terms.
  EXPECT_EQ(mat->query.atom(0).relation, "R__d0");
  EXPECT_EQ(mat->query.atom(0).arity(), 2);
  EXPECT_EQ(mat->query.atom(1).relation, "S__d1");
  EXPECT_EQ(mat->query.atom(1).arity(), 2);
}

TEST(MaterializeTest, EmptyDissociationCopiesTables) {
  auto q = Q("q() :- R(x)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}});
  auto mat = MaterializeDissociation(db, q, Dissociation::Empty(q));
  ASSERT_TRUE(mat.ok());
  const Snapshot snap = mat->db.snapshot();
  auto rd = snap.GetTable("R__d0");
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ((*rd)->NumRows(), 1u);
  EXPECT_EQ((*rd)->arity(), 1);
}

TEST(MaterializeTest, BlowupGuard) {
  auto q = Q("q() :- R(x), S(x,y)");
  Database db;
  Table r(RelationSchema::AllInt64("R", 1));
  Table s(RelationSchema::AllInt64("S", 2));
  for (int i = 0; i < 1000; ++i) {
    r.AddRow({Value::Int64(i)}, 0.5);
    s.AddRow({Value::Int64(i), Value::Int64(i)}, 0.5);
  }
  ASSERT_TRUE(db.AddTable(std::move(r)).ok());
  ASSERT_TRUE(db.AddTable(std::move(s)).ok());
  Dissociation d = Dissociation::Empty(q);
  d.extra[0] = Vars(q, {"y"});
  auto mat = MaterializeDissociation(db, q, d, /*max_rows=*/100);
  EXPECT_FALSE(mat.ok());
  EXPECT_EQ(mat.status().code(), Status::Code::kOutOfRange);
}

TEST(SafePlanTest, SafeQueryGetsUniquePlanShape) {
  // q1(z) :- R(z,x), S(x,y), K(x,y): safe; plan P1 from the paper's intro:
  // pi_z( R(z,x) |x| pi_x( S |x,y| K ) ).
  auto q = Q("q1(z) :- R(z,x), S(x,y), K(x,y)");
  auto plan = SafePlanForQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(IsSafePlan(*plan, q.HeadMask()));
  std::string s = PlanToString(*plan, q);
  EXPECT_NE(s.find("pi_{-x}"), std::string::npos);
  EXPECT_NE(s.find("pi_{-y}"), std::string::npos);
}

TEST(SafePlanTest, UnsafeQueryRejected) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  auto plan = SafePlanForQuery(q);
  EXPECT_FALSE(plan.ok());
}

TEST(SafePlanTest, SafeDissociationYieldsSafePlanWithVirtualVars) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Dissociation d = Dissociation::Empty(q);
  d.extra[2] = Vars(q, {"x"});  // T^x
  auto plan = SafePlanForDissociation(q, d);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(IsSafePlan(*plan));
  // Round trip: extracting the dissociation from the plan returns d.
  Dissociation back = ExtractDissociation(*plan, q);
  EXPECT_EQ(back, d);
}

TEST(ExtractTest, TopDissociationFromJoinAllPlan) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  // pi_{}(Join[R,S,T]) joins on all variables: the top dissociation.
  PlanPtr p = MakeProject(
      0, MakeJoin({MakeScan(0, q.AtomMask(0)), MakeScan(1, q.AtomMask(1)),
                   MakeScan(2, q.AtomMask(2))}));
  Dissociation d = ExtractDissociation(p, q);
  EXPECT_EQ(d, Dissociation::Top(q));
}

TEST(ExtractTest, HeadVariablesNeverDissociate) {
  // P''2 from the intro: pi_z((pi_{zy}(R |x| S)) |y| T). T misses z but z is
  // a head variable, so T must not dissociate on it.
  auto q = Q("q2(z) :- R(z,x), S(x,y), T(y)");
  PlanPtr inner = MakeProject(
      Vars(q, {"z", "y"}),
      MakeJoin({MakeScan(0, q.AtomMask(0)), MakeScan(1, q.AtomMask(1))}));
  PlanPtr p = MakeProject(Vars(q, {"z"}),
                          MakeJoin({inner, MakeScan(2, q.AtomMask(2))}));
  Dissociation d = ExtractDissociation(p, q);
  EXPECT_EQ(d.extra[2], 0u);               // T untouched
  EXPECT_EQ(d.extra[0], Vars(q, {"y"}));   // R' gains y
  EXPECT_EQ(d.extra[1], 0u);
  EXPECT_TRUE(ValidateDissociation(q, d).ok());
}

}  // namespace
}  // namespace dissodb
