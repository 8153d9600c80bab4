// Unit tests for ranking utilities (RankAnswers, AlignScores) and the
// Corollary 16 monotonicity property of the dissociation order.
#include <gtest/gtest.h>

#include "src/dissociation/counting.h"
#include "src/dissociation/lattice.h"
#include "src/dissociation/propagation.h"
#include "src/exec/ranking.h"
#include "src/infer/query_inference.h"
#include "src/workload/random_instance.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::Q;

TEST(RankAnswersTest, SortsByScoreDescending) {
  Rel rel({0});
  rel.AddRow(std::vector<Value>{Value::Int64(1)}, 0.2);
  rel.AddRow(std::vector<Value>{Value::Int64(2)}, 0.9);
  rel.AddRow(std::vector<Value>{Value::Int64(3)}, 0.5);
  auto ranked = RankAnswers(rel);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].tuple[0], Value::Int64(2));
  EXPECT_EQ(ranked[1].tuple[0], Value::Int64(3));
  EXPECT_EQ(ranked[2].tuple[0], Value::Int64(1));
}

TEST(RankAnswersTest, TiesBrokenByTupleValueDeterministically) {
  Rel rel({0});
  rel.AddRow(std::vector<Value>{Value::Int64(5)}, 0.5);
  rel.AddRow(std::vector<Value>{Value::Int64(1)}, 0.5);
  auto ranked = RankAnswers(rel);
  EXPECT_EQ(ranked[0].tuple[0], Value::Int64(1));
  EXPECT_EQ(ranked[1].tuple[0], Value::Int64(5));
}

TEST(AlignScoresTest, ReordersToReference) {
  std::vector<RankedAnswer> ref = {{{Value::Int64(1)}, 0.9},
                                   {{Value::Int64(2)}, 0.5}};
  std::vector<RankedAnswer> sys = {{{Value::Int64(2)}, 0.7},
                                   {{Value::Int64(1)}, 0.3}};
  auto aligned = AlignScores(ref, sys);
  ASSERT_EQ(aligned.size(), 2u);
  EXPECT_DOUBLE_EQ(aligned[0], 0.3);
  EXPECT_DOUBLE_EQ(aligned[1], 0.7);
}

TEST(AlignScoresTest, MissingAnswersGetDefault) {
  std::vector<RankedAnswer> ref = {{{Value::Int64(1)}, 0.9},
                                   {{Value::Int64(2)}, 0.5}};
  std::vector<RankedAnswer> sys = {{{Value::Int64(1)}, 0.4}};
  auto aligned = AlignScores(ref, sys, -1.0);
  EXPECT_DOUBLE_EQ(aligned[0], 0.4);
  EXPECT_DOUBLE_EQ(aligned[1], -1.0);
}

TEST(RankingToStringTest, ResolvesStringsThroughPool) {
  Database db;
  std::vector<RankedAnswer> ranking = {{{db.Str("paris")}, 0.75}};
  std::string s = RankingToString(ranking, db.snapshot());
  EXPECT_NE(s.find("paris"), std::string::npos);
  EXPECT_NE(s.find("0.75"), std::string::npos);
}

// Corollary 16: along the dissociation order, probabilities are monotone:
// Delta <= Delta'  =>  P(q^Delta) <= P(q^Delta').
TEST(DissociationOrderTest, Corollary16MonotonicityOnRandomInstances) {
  Rng rng(161616);
  RandomQuerySpec qspec;
  qspec.max_atoms = 3;
  qspec.max_vars = 4;
  RandomInstanceSpec ispec;
  ispec.max_rows = 3;
  ispec.domain = 2;
  int pairs_checked = 0;
  for (int trial = 0; trial < 200 && pairs_checked < 60; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 5 || !q.IsBoolean()) continue;
    Database db = RandomDatabaseFor(q, &rng, ispec);
    auto all = EnumerateAllDissociations(q);
    ASSERT_TRUE(all.ok());
    std::vector<double> probs(all->size());
    for (size_t i = 0; i < all->size(); ++i) {
      auto mat = MaterializeDissociation(db, q, (*all)[i]);
      ASSERT_TRUE(mat.ok());
      auto p = ExactProbabilities(mat->db, mat->query);
      ASSERT_TRUE(p.ok());
      probs[i] = p->empty() ? 0.0 : (*p)[0].score;
    }
    for (size_t i = 0; i < all->size(); ++i) {
      for (size_t j = 0; j < all->size(); ++j) {
        if (i == j || !DissociationLeq((*all)[i], (*all)[j])) continue;
        EXPECT_LE(probs[i], probs[j] + 1e-9)
            << q.ToString() << " " << (*all)[i].ToString(q) << " vs "
            << (*all)[j].ToString(q);
        ++pairs_checked;
      }
    }
  }
  EXPECT_GE(pairs_checked, 60);
}

// Lemma 22 as data: dissociating a deterministic relation leaves the
// probability unchanged.
TEST(DissociationOrderTest, Lemma22DeterministicDissociationIsFree) {
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.4}, {{2}, 0.9}});
  AddTable(&db, "S", 2, {{{1, 4}, 0.7}, {{2, 4}, 0.2}, {{2, 5}, 0.6}});
  AddTable(&db, "T", 1, {{{4}, 1.0}, {{5}, 1.0}}, /*deterministic=*/true);

  Dissociation none = Dissociation::Empty(q);
  Dissociation t_diss = Dissociation::Empty(q);
  t_diss.extra[2] = MaskOf(q.FindVar("x"));

  auto p = [&](const Dissociation& d) {
    auto mat = MaterializeDissociation(db, q, d);
    EXPECT_TRUE(mat.ok());
    // Deterministic flags survive materialization via the copied schema.
    auto e = ExactProbabilities(mat->db, mat->query);
    EXPECT_TRUE(e.ok());
    return e->empty() ? 0.0 : (*e)[0].score;
  };
  EXPECT_NEAR(p(none), p(t_diss), 1e-12);
}

}  // namespace
}  // namespace dissodb
