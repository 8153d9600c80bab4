// Unit tests for query graph analysis: connectivity, hierarchy (Def. 1),
// separators, FD closure, schema knowledge extraction.
#include <gtest/gtest.h>

#include "src/query/analysis.h"
#include "src/workload/synthetic.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::Q;
using testing_util::Vars;

std::vector<WorkAtom> Atoms(const ConjunctiveQuery& q) {
  SchemaKnowledge none = SchemaKnowledge::None(q);
  return MakeWorkAtoms(q, none);
}

TEST(HierarchyTest, PaperExampleHierarchical) {
  // q1 :- R(x,y), S(y,z), T(y,z,u) is hierarchical (Section 2).
  EXPECT_TRUE(IsHierarchical(Q("q() :- R(x,y), S(y,z), T(y,z,u)")));
}

TEST(HierarchyTest, PaperExampleNonHierarchical) {
  // q2 :- R(x,y), S(y,z), T(z,u) is not hierarchical (y and z overlap).
  EXPECT_FALSE(IsHierarchical(Q("q() :- R(x,y), S(y,z), T(z,u)")));
}

TEST(HierarchyTest, SingleAtomIsHierarchical) {
  EXPECT_TRUE(IsHierarchical(Q("q() :- R(x,y,z)")));
}

TEST(HierarchyTest, ClassicUnsafeRST) {
  // The canonical #P-hard query R(x), S(x,y), T(y).
  EXPECT_FALSE(IsHierarchical(Q("q() :- R(x), S(x,y), T(y)")));
}

TEST(HierarchyTest, HeadVariablesDoNotCount) {
  // With y as head variable, only x is existential: hierarchical.
  EXPECT_TRUE(IsHierarchical(Q("q(y) :- R(x), S(x,y), T(y)")));
}

TEST(HierarchyTest, DisconnectedHierarchical) {
  EXPECT_TRUE(IsHierarchical(Q("q() :- R(x), S(y)")));
}

TEST(HierarchyTest, ChainQueriesSafeOnlyAtLengthTwo) {
  // The 2-chain has a single existential variable and is safe (Figure 2
  // lists exactly one plan for it); longer chains are #P-hard.
  EXPECT_TRUE(IsHierarchical(MakeChainQuery(2)));
  EXPECT_FALSE(IsHierarchical(MakeChainQuery(3)));
  EXPECT_FALSE(IsHierarchical(MakeChainQuery(5)));
}

TEST(HierarchyTest, StarQueriesUnsafe) {
  EXPECT_FALSE(IsHierarchical(MakeStarQuery(2)));
  EXPECT_FALSE(IsHierarchical(MakeStarQuery(4)));
}

TEST(ConnectivityTest, ComponentsViaExistentialVars) {
  auto q = Q("q() :- R(x,y), S(z,u), T(u,v)");
  auto atoms = Atoms(q);
  auto comps = ConnectedComponents(atoms, q.EVarMask());
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<int>{0}));
  EXPECT_EQ(comps[1], (std::vector<int>{1, 2}));
}

TEST(ConnectivityTest, HeadVarsDoNotConnect) {
  auto q = Q("q(x) :- R(x,y), S(x,z)");
  auto atoms = Atoms(q);
  // Connect only through existential variables: y, z do not join the atoms.
  EXPECT_EQ(ConnectedComponents(atoms, q.EVarMask()).size(), 2u);
  // Through all variables they are connected.
  EXPECT_TRUE(IsConnected(atoms, q.AllVarsMask()));
}

TEST(ConnectivityTest, SingleAtomConnected) {
  auto q = Q("q() :- R(x)");
  auto atoms = Atoms(q);
  EXPECT_TRUE(IsConnected(atoms, q.EVarMask()));
}

TEST(SeparatorTest, SeparatorOfSimpleJoin) {
  auto q = Q("q() :- R(x), S(x,y)");
  auto atoms = Atoms(q);
  EXPECT_EQ(SeparatorVars(atoms, q.EVarMask()), Vars(q, {"x"}));
}

TEST(SeparatorTest, NoSeparatorForChain) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  auto atoms = Atoms(q);
  EXPECT_EQ(SeparatorVars(atoms, q.EVarMask()), 0u);
}

TEST(FDClosureTest, TransitiveClosure) {
  // x -> y, y -> z.
  auto q = Q("q() :- R(x,y,z)");
  std::vector<QueryFD> fds = {
      {Vars(q, {"x"}), Vars(q, {"y"})},
      {Vars(q, {"y"}), Vars(q, {"z"})},
  };
  EXPECT_EQ(FDClosure(Vars(q, {"x"}), fds), Vars(q, {"x", "y", "z"}));
  EXPECT_EQ(FDClosure(Vars(q, {"y"}), fds), Vars(q, {"y", "z"}));
  EXPECT_EQ(FDClosure(Vars(q, {"z"}), fds), Vars(q, {"z"}));
}

TEST(FDClosureTest, CompositeLhsNeedsAllVars) {
  auto q = Q("q() :- R(x,y,z)");
  std::vector<QueryFD> fds = {{Vars(q, {"x", "y"}), Vars(q, {"z"})}};
  EXPECT_EQ(FDClosure(Vars(q, {"x"}), fds), Vars(q, {"x"}));
  EXPECT_EQ(FDClosure(Vars(q, {"x", "y"}), fds), Vars(q, {"x", "y", "z"}));
}

TEST(SchemaKnowledgeTest, FromDatabaseReadsDeterministicFlags) {
  auto q = Q("q() :- R(x), T(x)");
  Database db;
  AddTable(&db, "R", 1, {});
  {
    Table t(RelationSchema::AllInt64("T", 1, /*deterministic=*/true));
    auto r = db.AddTable(std::move(t));
    ASSERT_TRUE(r.ok());
  }
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());
  EXPECT_FALSE(sk->IsDeterministic(0));
  EXPECT_TRUE(sk->IsDeterministic(1));
}

TEST(SchemaKnowledgeTest, FromDatabaseLiftsFDsToVariables) {
  auto q = Q("q() :- S(x,y)");
  Database db;
  RelationSchema s = RelationSchema::AllInt64("S", 2);
  s.fds.push_back(FunctionalDependency{{0}, {1}});
  auto r = db.AddTable(Table(s));
  ASSERT_TRUE(r.ok());
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());
  ASSERT_EQ(sk->fds.size(), 1u);
  EXPECT_EQ(sk->fds[0].lhs, Vars(*&const_cast<ConjunctiveQuery&>(q), {"x"}));
  EXPECT_EQ(sk->fds[0].rhs, Vars(q, {"y"}));
}

TEST(SchemaKnowledgeTest, ConstantLhsPositionMakesFdStronger) {
  // R('a', y) with FD {0}->{1}: position 0 is fixed by the atom, so the FD
  // lifts to {} -> {y}, i.e. y is determined.
  StringPool pool;
  auto q = Q("q() :- R('a', y), S(y)", &pool);
  Database db;
  RelationSchema r;
  r.name = "R";
  r.column_names = {"c0", "c1"};
  r.column_types = {ValueType::kString, ValueType::kInt64};
  r.fds.push_back(FunctionalDependency{{0}, {1}});
  auto add = db.AddTable(Table(r));
  ASSERT_TRUE(add.ok());
  AddTable(&db, "S", 1, {});
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());
  ASSERT_EQ(sk->fds.size(), 1u);
  EXPECT_EQ(sk->fds[0].lhs, 0u);
  EXPECT_EQ(sk->fds[0].rhs, Vars(q, {"y"}));
}

TEST(SchemaKnowledgeTest, ArityMismatchRejected) {
  auto q = Q("q() :- R(x,y)");
  Database db;
  AddTable(&db, "R", 1, {});
  EXPECT_FALSE(SchemaKnowledge::FromSnapshot(q, db.snapshot()).ok());
}

}  // namespace
}  // namespace dissodb
