// Tests for the workload generators (TPC-H-like, chains, stars, random).
#include <gtest/gtest.h>

#include <set>

#include "src/common/string_util.h"
#include "src/query/analysis.h"
#include "src/exec/deterministic.h"
#include "src/workload/random_instance.h"
#include "src/workload/synthetic.h"
#include "src/workload/tpch.h"

namespace dissodb {
namespace {

TEST(TpchTest, CardinalityRatios) {
  TpchOptions opts;
  opts.scale = 0.01;  // 100 suppliers, 2000 parts, 8000 partsupps
  Database db = MakeTpchDatabase(opts);
  const Snapshot snap = db.snapshot();
  auto s = snap.GetTable("Supplier");
  auto p = snap.GetTable("Part");
  auto ps = snap.GetTable("Partsupp");
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ((*s)->NumRows(), 100u);
  EXPECT_EQ((*p)->NumRows(), 2000u);
  EXPECT_EQ((*ps)->NumRows(), 8000u);  // 4 per part
}

// Fingerprint: samples probabilities across all tables.
double DbProbe(const Database& db) {
  const Snapshot snap = db.snapshot();
  double acc = 0;
  for (int i = 0; i < snap.NumTables(); ++i) {
    const Table& t = snap.table(i);
    for (size_t r = 0; r < t.NumRows(); r += 7) acc += t.Prob(r);
  }
  return acc;
}

TEST(TpchTest, DeterministicForSameSeed) {
  TpchOptions opts;
  opts.scale = 0.005;
  Database a = MakeTpchDatabase(opts);
  Database b = MakeTpchDatabase(opts);
  EXPECT_EQ(DbProbe(a), DbProbe(b));
}

TEST(TpchTest, NationKeysInRange) {
  TpchOptions opts;
  opts.scale = 0.01;
  Database db = MakeTpchDatabase(opts);
  const Snapshot snap = db.snapshot();
  const Table& s = **snap.GetTable("Supplier");
  std::set<int64_t> nations;
  for (size_t r = 0; r < s.NumRows(); ++r) {
    int64_t n = s.At(r, 1).AsInt64();
    EXPECT_GE(n, 0);
    EXPECT_LE(n, 24);
    nations.insert(n);
  }
  // With 100 suppliers a missing nation has probability ~25*e^{-4}; accept
  // near-complete coverage.
  EXPECT_GE(nations.size(), 20u);
}

TEST(TpchTest, PartNamesAreFiveColorWords) {
  TpchOptions opts;
  opts.scale = 0.005;
  Database db = MakeTpchDatabase(opts);
  const Snapshot snap = db.snapshot();
  const Table& p = **snap.GetTable("Part");
  for (size_t r = 0; r < std::min<size_t>(p.NumRows(), 50); ++r) {
    std::string name =
        std::as_const(db).strings().Get(p.At(r, 1).AsStringCode());
    auto words = Split(name, ' ');
    EXPECT_EQ(words.size(), 5u) << name;
  }
}

TEST(TpchTest, LikeSelectivityOrdering) {
  TpchOptions opts;
  opts.scale = 0.02;
  Database db = MakeTpchDatabase(opts);
  auto all = MakeTpchSelections(db, 1 << 30, "%");
  auto red = MakeTpchSelections(db, 1 << 30, "%red%");
  auto redgreen = MakeTpchSelections(db, 1 << 30, "%red%green%");
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(red.ok());
  ASSERT_TRUE(redgreen.ok());
  size_t n_all = (*all)->part.NumRows();
  size_t n_red = (*red)->part.NumRows();
  size_t n_rg = (*redgreen)->part.NumRows();
  EXPECT_GT(n_all, n_red);
  EXPECT_GT(n_red, n_rg);
  EXPECT_GT(n_rg, 0u);
  // 'red' is 1 of 92 words, 5 words per name: ~5.3% of parts.
  EXPECT_NEAR(static_cast<double>(n_red) / n_all, 5.0 / 92, 0.02);
}

TEST(TpchTest, SuppkeySelection) {
  TpchOptions opts;
  opts.scale = 0.01;
  Database db = MakeTpchDatabase(opts);
  auto sel = MakeTpchSelections(db, 10, "%");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ((*sel)->supplier.NumRows(), 10u);
  EXPECT_EQ((*sel)->overrides.size(), 2u);
}

TEST(TpchTest, QueryShapeHasTwoMinimalPlans) {
  ConjunctiveQuery q = TpchQuery();
  EXPECT_EQ(q.num_atoms(), 3);
  EXPECT_FALSE(IsHierarchical(q));
}

TEST(ChainTest, DomainTuning) {
  // N = n * (n/target)^(1/(k-1)).
  EXPECT_EQ(TuneChainDomain(2, 100, 100), 100);
  EXPECT_GT(TuneChainDomain(4, 1000, 30), 1000);
  EXPECT_GE(TuneChainDomain(3, 10, 1000), 2);
}

TEST(ChainTest, DatabaseShape) {
  ChainSpec spec;
  spec.k = 3;
  spec.n = 100;
  Database db = MakeChainDatabase(spec);
  const Snapshot snap = db.snapshot();
  EXPECT_EQ(snap.NumTables(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(snap.table(i).NumRows(), 100u);
    EXPECT_EQ(snap.table(i).arity(), 2);
  }
}

TEST(ChainTest, QueryShape) {
  ConjunctiveQuery q = MakeChainQuery(4);
  EXPECT_EQ(q.num_atoms(), 4);
  EXPECT_EQ(q.head_vars().size(), 2u);
  EXPECT_EQ(MaskCount(q.EVarMask()), 3);
}

TEST(ChainTest, AnswerCountNearTarget) {
  ChainSpec spec;
  spec.k = 3;
  spec.n = 3000;
  spec.target_answers = 30;
  spec.seed = 99;
  Database db = MakeChainDatabase(spec);
  auto answers = EvaluateDeterministic(db.snapshot(), MakeChainQuery(3));
  ASSERT_TRUE(answers.ok());
  // Expect the tuned domain to land within a loose factor of the target.
  EXPECT_GT(answers->NumRows(), 2u);
  EXPECT_LT(answers->NumRows(), 400u);
}

TEST(StarTest, DatabaseShape) {
  StarSpec spec;
  spec.k = 3;
  spec.n = 50;
  Database db = MakeStarDatabase(spec);
  const Snapshot snap = db.snapshot();
  EXPECT_EQ(snap.NumTables(), 4);
  EXPECT_EQ(snap.table(3).arity(), 3);  // hub R0
}

TEST(StarTest, QueryShape) {
  ConjunctiveQuery q = MakeStarQuery(3);
  EXPECT_EQ(q.num_atoms(), 4);
  EXPECT_TRUE(q.IsBoolean());
}

TEST(ProbabilityAssignmentTest, UniformRespectsPiMax) {
  ChainSpec spec;
  spec.k = 2;
  spec.n = 500;
  Database db = MakeChainDatabase(spec);
  AssignUniformProbabilities(&db, 0.2, 7);
  const Snapshot snap = db.snapshot();
  double max_p = 0;
  for (int i = 0; i < snap.NumTables(); ++i) {
    for (size_t r = 0; r < snap.table(i).NumRows(); ++r) {
      max_p = std::max(max_p, snap.table(i).Prob(r));
    }
  }
  EXPECT_LE(max_p, 0.2);
  EXPECT_GT(max_p, 0.15);  // close to the cap with 1000 draws
}

TEST(ProbabilityAssignmentTest, ConstantAssignsEverywhere) {
  ChainSpec spec;
  spec.k = 2;
  spec.n = 20;
  Database db = MakeChainDatabase(spec);
  AssignConstantProbabilities(&db, 0.1);
  const Snapshot snap = db.snapshot();
  for (int i = 0; i < snap.NumTables(); ++i) {
    for (size_t r = 0; r < snap.table(i).NumRows(); ++r) {
      EXPECT_DOUBLE_EQ(snap.table(i).Prob(r), 0.1);
    }
  }
}

TEST(RandomInstanceTest, QueryRespectsLimits) {
  Rng rng(1);
  RandomQuerySpec spec;
  spec.max_atoms = 3;
  spec.max_vars = 4;
  spec.max_arity = 2;
  for (int i = 0; i < 50; ++i) {
    ConjunctiveQuery q = RandomQuery(&rng, spec);
    EXPECT_GE(q.num_atoms(), 1);
    EXPECT_LE(q.num_atoms(), 3);
    EXPECT_LE(q.num_vars(), 4);
    for (int a = 0; a < q.num_atoms(); ++a) {
      EXPECT_LE(q.atom(a).arity(), 2);
      EXPECT_GE(MaskCount(q.AtomMask(a)), 1);  // at least one variable
    }
  }
}

TEST(RandomInstanceTest, DatabaseMatchesCatalog) {
  Rng rng(2);
  ConjunctiveQuery q = RandomQuery(&rng);
  Database db = RandomDatabaseFor(q, &rng);
  const Snapshot snap = db.snapshot();
  EXPECT_EQ(snap.NumTables(), q.num_atoms());
  for (int i = 0; i < q.num_atoms(); ++i) {
    auto t = snap.GetTable(q.atom(i).relation);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ((*t)->arity(), q.atom(i).arity());
  }
}

}  // namespace
}  // namespace dissodb
