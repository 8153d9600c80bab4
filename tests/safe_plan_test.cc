// Lifted safe-plan subsystem (src/lift/): analyzer verdicts, bit-identity
// of lifted plans with the reference single-plan builder
// (tests/reference_ops.h), the IsSafePlan audit, engine routing, and the
// exactness differential against src/infer/exact.cc on randomized
// hierarchical queries.
#include "src/lift/safe_plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/dissociation/minimal_plans.h"
#include "src/dissociation/propagation.h"
#include "src/engine/query_engine.h"
#include "src/infer/query_inference.h"
#include "src/workload/random_instance.h"
#include "tests/reference_ops.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::BuildSinglePlan;
using testing_util::ChunkCapOverride;
using testing_util::PrepareAndExecute;
using testing_util::Q;
using testing_util::SinglePlanOptions;

std::map<std::vector<Value>, double> ToMap(
    const std::vector<RankedAnswer>& answers) {
  std::map<std::vector<Value>, double> m;
  for (const auto& a : answers) m[a.tuple] = a.score;
  return m;
}

/// Structural facts about a plan DAG the safety properties assert on.
struct PlanShape {
  bool has_min = false;
  /// Scan leaves of probabilistic atoms carrying dissociated variables
  /// beyond `free_extra` (deterministic dissociation and the FD chase are
  /// free and appear in exact plans too).
  bool prob_dissociated = false;
};

void WalkShape(const PlanPtr& plan, const SchemaKnowledge& sk,
               const std::vector<VarMask>& free_extra,
               std::unordered_set<const PlanNode*>* seen, PlanShape* out) {
  if (!seen->insert(plan.get()).second) return;
  if (plan->kind == PlanNode::Kind::kMin) out->has_min = true;
  if (plan->kind == PlanNode::Kind::kScan &&
      (plan->extra_vars & ~free_extra[plan->atom_idx]) != 0 &&
      !sk.IsDeterministic(plan->atom_idx)) {
    out->prob_dissociated = true;
  }
  for (const auto& c : plan->children) {
    WalkShape(c, sk, free_extra, seen, out);
  }
}

PlanShape ShapeOf(const ConjunctiveQuery& q, const PlanPtr& plan,
                  const SchemaKnowledge& sk, const PlanEnumOptions& opts) {
  std::vector<VarMask> free_extra(q.num_atoms(), 0);
  if (opts.use_fds && !sk.fds.empty()) {
    free_extra = ChaseDissociation(q, sk).extra;
  }
  PlanShape s;
  std::unordered_set<const PlanNode*> seen;
  WalkShape(plan, sk, free_extra, &seen, &s);
  return s;
}

/// Random schema knowledge: each atom deterministic with probability 1/4,
/// plus 0-2 query-level FDs x -> y, with x drawn from one atom's variables
/// (as a relation's FD lifts to its atom) and y from the whole query.
SchemaKnowledge RandomKnowledge(const ConjunctiveQuery& q, Rng* rng) {
  SchemaKnowledge sk = SchemaKnowledge::None(q);
  for (int i = 0; i < q.num_atoms(); ++i) {
    sk.deterministic[i] = rng->NextBernoulli(0.25);
  }
  const int n = q.num_vars();
  const int num_fds = static_cast<int>(rng->NextBounded(3));
  for (int f = 0; f < num_fds && n >= 2; ++f) {
    const std::vector<VarId> atom_vars = MaskToVars(
        q.AtomMask(static_cast<int>(rng->NextBounded(q.num_atoms()))));
    const VarId lhs = atom_vars[rng->NextBounded(atom_vars.size())];
    const VarId rhs = static_cast<VarId>(rng->NextBounded(n));
    if (lhs == rhs) continue;
    sk.fds.push_back(QueryFD{MaskOf(lhs), MaskOf(rhs)});
  }
  return sk;
}

/// The four (use_deterministic, use_fds) settings of Section 3.3.
std::vector<PlanEnumOptions> AllEnumOptions() {
  std::vector<PlanEnumOptions> out;
  for (bool dr : {true, false}) {
    for (bool fds : {true, false}) {
      PlanEnumOptions o;
      o.use_deterministic = dr;
      o.use_fds = fds;
      out.push_back(o);
    }
  }
  return out;
}

std::string Describe(const ConjunctiveQuery& q, const SchemaKnowledge& sk,
                     const PlanEnumOptions& o) {
  return q.ToString() + " fds=" + std::to_string(sk.fds.size()) +
         " dr=" + std::to_string(o.use_deterministic) +
         " use_fds=" + std::to_string(o.use_fds);
}

void ExpectBitIdentical(const std::vector<RankedAnswer>& got,
                        const std::vector<RankedAnswer>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tuple, want[i].tuple) << what;
    EXPECT_EQ(got[i].score, want[i].score) << what;  // bit-for-bit
  }
}

TEST(SafePlanTest, AnalyzerVerdictsOnKnownQueries) {
  struct Case {
    const char* text;
    bool safe;
  };
  const Case cases[] = {
      {"q() :- R(x)", true},
      {"q() :- R(x), S(x,y)", true},
      {"q(z) :- R(z,x), S(z,x,y), T(z,x,y,w)", true},  // nested containment
      {"q(z) :- R(z), S(z,x)", true},                  // independent join
      {"q(x0,x2) :- R(x0,x1), S(x1,x2)", true},        // chain-2 with head
      {"q() :- R(x), S(x,y), T(y)", false},            // 3-chain (#P-hard)
      {"q() :- R(x), S(y), T(x,y)", false},            // star
      {"q() :- R(x,y), S(y,z), T(z,x)", false},        // triangle
      {"q(x0,x3) :- R(x0,x1), S(x1,x2), T(x2,x3)", false},  // 4-chain
  };
  for (const Case& c : cases) {
    auto q = Q(c.text);
    SchemaKnowledge none = SchemaKnowledge::None(q);
    lift::SafetyAnalysis a = lift::AnalyzeSafety(q, none);
    EXPECT_EQ(a.safe, c.safe) << c.text;
    EXPECT_EQ(a.safe, a.unsafe_residues == 0) << c.text;
    EXPECT_EQ(a.safe, IsHierarchical(q)) << c.text;

    auto lifted = lift::CompileSafePlan(q, none);
    ASSERT_TRUE(lifted.ok()) << c.text;
    EXPECT_EQ(lifted->exact, c.safe) << c.text;
    if (c.safe) {
      EXPECT_EQ(lifted->unsafe_residues, 0u) << c.text;
    } else {
      EXPECT_GE(lifted->unsafe_residues, 1u) << c.text;
    }
  }
}

TEST(SafePlanTest, DeterministicKnowledgeWidensTheSafeClass) {
  // The 3-chain is unsafe, but with R and T deterministic only one
  // probabilistic atom remains and the base-atom stop rule fires (exact).
  auto q = Q("q() :- R(x), S(x,y), T(y)");
  SchemaKnowledge sk = SchemaKnowledge::None(q);
  sk.deterministic[0] = true;
  sk.deterministic[2] = true;
  EXPECT_TRUE(lift::AnalyzeSafety(q, sk).safe);

  // With only the middle atom deterministic the query stays unsafe: the
  // probabilistic separator is empty and MinPCuts still finds two cuts.
  SchemaKnowledge mid = SchemaKnowledge::None(q);
  mid.deterministic[1] = true;
  EXPECT_FALSE(lift::AnalyzeSafety(q, mid).safe);

  // Disabling the deterministic refinement disables the widening.
  PlanEnumOptions no_dr;
  no_dr.use_deterministic = false;
  EXPECT_FALSE(lift::AnalyzeSafety(q, sk, no_dr).safe);
}

TEST(SafePlanTest, LiftedPlanBitIdenticalToLegacySinglePlan) {
  // On random queries (safe and unsafe, with random deterministic flags and
  // random query-level FDs) under all four (use_deterministic, use_fds)
  // settings, the lifted compiler must emit exactly the plan the reference
  // builder emits: same canonical structure and same DAG/tree node counts,
  // with and without Opt. 2 memoization.
  Rng rng(424242);
  RandomQuerySpec qspec;
  qspec.min_atoms = 2;
  qspec.max_atoms = 6;
  qspec.max_vars = 7;
  int safe_seen = 0;
  int unsafe_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    SchemaKnowledge sk = RandomKnowledge(q, &rng);
    for (const PlanEnumOptions& eo : AllEnumOptions()) {
      for (bool memoize : {true, false}) {
        const std::string what = Describe(q, sk, eo);
        lift::LiftOptions lo;
        lo.reuse_common_subplans = memoize;
        lo.enum_opts = eo;
        auto lifted = lift::CompileSafePlan(q, sk, lo);
        ASSERT_TRUE(lifted.ok()) << what;

        SinglePlanOptions sp;
        sp.reuse_common_subplans = memoize;
        sp.enum_opts = eo;
        auto legacy = BuildSinglePlan(q, sk, sp);
        ASSERT_TRUE(legacy.ok()) << what;

        EXPECT_EQ(CanonicalKey(lifted->plan), CanonicalKey(*legacy)) << what;
        PlanSize a = MeasurePlan(lifted->plan);
        PlanSize b = MeasurePlan(*legacy);
        EXPECT_EQ(a.dag_nodes, b.dag_nodes) << what;
        EXPECT_EQ(a.tree_nodes, b.tree_nodes) << what;
        if (memoize) (lifted->exact ? safe_seen : unsafe_seen)++;
      }
    }
  }
  // The corpus must exercise both verdicts.
  EXPECT_GE(safe_seen, 600);
  EXPECT_GE(unsafe_seen, 200);
}

TEST(SafePlanTest, EmittedPlansSatisfyIsSafePlanIffExact) {
  // The IsSafePlan audit (plan.h): an exact verdict must come with a plan
  // that is structurally safe *for the original query* — IsSafePlan true,
  // no Min node, no dissociated probabilistic scan beyond the free FD
  // chase — and must agree with Algorithm 1's IsSafeQuery under the same
  // knowledge and options. That agreement is why Prepare takes `exact`
  // from the lifted compiler alone, so it is checked with random
  // query-level FDs under all four (use_deterministic, use_fds) settings.
  // An inexact verdict must carry visible dissociation and never sneak
  // through as an undissociated safe plan.
  Rng rng(20150602);
  RandomQuerySpec qspec;
  qspec.min_atoms = 2;
  qspec.max_atoms = 6;
  qspec.max_vars = 7;
  int exact_seen = 0;
  int residue_seen = 0;
  int fd_widened = 0;
  for (int trial = 0; trial < 250; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    SchemaKnowledge sk = RandomKnowledge(q, &rng);
    uint64_t det_atoms = 0;
    for (int i = 0; i < q.num_atoms(); ++i) {
      if (sk.IsDeterministic(i)) det_atoms |= uint64_t{1} << i;
    }
    std::map<std::pair<bool, bool>, bool> verdicts;
    for (const PlanEnumOptions& eo : AllEnumOptions()) {
      const std::string what = Describe(q, sk, eo);
      lift::LiftOptions lo;
      lo.enum_opts = eo;
      auto lifted = lift::CompileSafePlan(q, sk, lo);
      ASSERT_TRUE(lifted.ok()) << what;
      auto is_safe = IsSafeQuery(q, sk, eo);
      ASSERT_TRUE(is_safe.ok()) << what;
      PlanShape shape = ShapeOf(q, lifted->plan, sk, eo);
      verdicts[{eo.use_deterministic, eo.use_fds}] = lifted->exact;

      EXPECT_EQ(lifted->exact, *is_safe) << what;
      EXPECT_EQ(lifted->exact, lift::AnalyzeSafety(q, sk, eo).safe) << what;
      if (lifted->exact) {
        ++exact_seen;
        EXPECT_TRUE(IsSafePlan(lifted->plan, q.HeadMask(),
                               eo.use_deterministic ? det_atoms : 0))
            << what;
        EXPECT_FALSE(shape.has_min) << what;
        EXPECT_FALSE(shape.prob_dissociated) << what;
      } else {
        ++residue_seen;
        // Dissociation must be visible: a Min over cut branches, or a
        // single collapsed branch whose probabilistic scans carry extra
        // variables.
        EXPECT_TRUE(shape.has_min || shape.prob_dissociated) << what;
      }
    }
    if (verdicts[{true, true}] && !verdicts[{true, false}]) ++fd_widened;
  }
  EXPECT_GE(exact_seen, 500);
  EXPECT_GE(residue_seen, 150);
  // The FDs must matter in the corpus: some queries are safe only given
  // them.
  EXPECT_GE(fd_widened, 5);
}

TEST(SafePlanTest, HierarchicalDifferentialAgainstExactInference) {
  // >= 100 randomized hierarchical queries: the engine must route them to
  // exact plans whose scores match the WMC ground truth to 1e-12, and flag
  // the result exact (Algorithm 1 agrees: a single minimal plan).
  Rng rng(314159);
  RandomQuerySpec qspec;
  qspec.max_atoms = 4;
  qspec.max_vars = 5;
  RandomInstanceSpec ispec;
  ispec.max_rows = 5;
  ispec.domain = 3;
  int checked = 0;
  for (int trial = 0; trial < 3000 && checked < 100; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (!IsHierarchical(q)) continue;
    Database db = RandomDatabaseFor(q, &rng, ispec);
    QueryEngine engine = QueryEngine::Borrow(db);
    auto res = PrepareAndExecute(engine, q);
    ASSERT_TRUE(res.ok()) << q.ToString();
    EXPECT_TRUE(res->exact) << q.ToString();
    auto plans = EnumerateMinimalPlans(q);
    ASSERT_TRUE(plans.ok()) << q.ToString();
    EXPECT_EQ(plans->size(), 1u) << q.ToString();

    auto exact = ExactProbabilities(db, q);
    ASSERT_TRUE(exact.ok()) << q.ToString();
    auto got = ToMap(res->answers);
    auto want = ToMap(*exact);
    ASSERT_EQ(got.size(), want.size()) << q.ToString();
    for (const auto& [tuple, p] : want) {
      auto it = got.find(tuple);
      ASSERT_NE(it, got.end()) << q.ToString();
      EXPECT_NEAR(it->second, p, 1e-12) << q.ToString();
    }
    EXPECT_EQ(engine.stats().safe_plan_routed, 1u) << q.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 100);
}

TEST(SafePlanTest, ChunkSeamDifferential) {
  // Same differential across chunk seams: with a tiny chunk capacity the
  // inputs span many sealed chunks, exercising the chunked scan/join paths
  // under the safe-routed plan.
  ChunkCapOverride cap(8);
  Rng rng(987);
  auto q = Q("q(z) :- R(z,x), S(z,x,y)");
  Database db;
  {
    // Distinct tuples only (the model is tuple-independent); enough rows
    // that every column spans several sealed chunks at capacity 8.
    Table r(RelationSchema::AllInt64("R", 2));
    Table s(RelationSchema::AllInt64("S", 3));
    for (int z = 0; z < 5; ++z) {
      for (int x = 0; x < 7; ++x) {
        r.AddRow({Value::Int64(z), Value::Int64(x)},
                 0.1 + 0.8 * rng.NextDouble());
        for (int y = 0; y < 3; ++y) {
          s.AddRow({Value::Int64(z), Value::Int64(x), Value::Int64(y)},
                   0.1 + 0.8 * rng.NextDouble());
        }
      }
    }
    ASSERT_TRUE(db.AddTable(std::move(r)).ok());
    ASSERT_TRUE(db.AddTable(std::move(s)).ok());
  }
  QueryEngine engine = QueryEngine::Borrow(db);
  auto res = PrepareAndExecute(engine, q);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->exact);

  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok());
  auto got = ToMap(res->answers);
  auto want = ToMap(*exact);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (const auto& [tuple, p] : want) {
    EXPECT_NEAR(got[tuple], p, 1e-12);
  }
}

TEST(SafePlanTest, SafeSubqueryInsideUnsafeQuery) {
  // A(u), B(u,x) is a hierarchical subquery of this unsafe query: the
  // lifted rules resolve it exactly on the way down and only the S/T
  // residue dissociates. Scores stay bit-identical to the reference plan's
  // and upper-bound the exact probability.
  auto q = Q("q() :- A(u), B(u,x), S(x,y), T(y)");
  EXPECT_FALSE(IsHierarchical(q));

  SchemaKnowledge none = SchemaKnowledge::None(q);
  auto lifted = lift::CompileSafePlan(q, none);
  ASSERT_TRUE(lifted.ok());
  EXPECT_FALSE(lifted->exact);
  EXPECT_GE(lifted->unsafe_residues, 1u);
  EXPECT_GE(lifted->separator_shortcuts, 1u);  // the hierarchical residue-free levels

  Rng rng(2718);
  Database db = RandomDatabaseFor(q, &rng);
  QueryEngine engine = QueryEngine::Borrow(db);
  auto a = PrepareAndExecute(engine, q);
  ASSERT_TRUE(a.ok());
  auto is_safe = IsSafeQuery(q, none);
  ASSERT_TRUE(is_safe.ok());
  EXPECT_FALSE(a->exact);
  EXPECT_EQ(a->exact, *is_safe);

  auto reference = BuildSinglePlan(q, none);
  ASSERT_TRUE(reference.ok());
  auto want = PlanScore(db, q, *reference);
  ASSERT_TRUE(want.ok());
  ExpectBitIdentical(a->answers, *want, q.ToString());

  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok());
  if (!exact->empty() && !a->answers.empty()) {
    EXPECT_GE(a->answers[0].score, (*exact)[0].score - 1e-9);  // upper bound
  }
  EXPECT_EQ(engine.stats().safe_plan_unsafe_residue, 1u);
}

TEST(SafePlanTest, EngineMatchesReferencePlanOnRandomQueries) {
  // The engine's one compile path against the reference builder: scores
  // bit-for-bit equal to evaluating the reference plan, and the exactness
  // verdict equal to Algorithm 1's (a single minimal plan).
  Rng rng(161803);
  RandomQuerySpec qspec;
  qspec.max_atoms = 4;
  qspec.max_vars = 5;
  for (int trial = 0; trial < 40; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    Database db = RandomDatabaseFor(q, &rng);
    QueryEngine engine = QueryEngine::Borrow(db);
    auto a = PrepareAndExecute(engine, q);
    ASSERT_TRUE(a.ok()) << q.ToString();
    auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
    ASSERT_TRUE(sk.ok()) << q.ToString();
    auto is_safe = IsSafeQuery(q, *sk);
    ASSERT_TRUE(is_safe.ok()) << q.ToString();
    EXPECT_EQ(a->exact, *is_safe) << q.ToString();
    auto reference = BuildSinglePlan(q, *sk);
    ASSERT_TRUE(reference.ok()) << q.ToString();
    auto want = PlanScore(db, q, *reference);
    ASSERT_TRUE(want.ok()) << q.ToString();
    ExpectBitIdentical(a->answers, *want, q.ToString());
  }
}

TEST(SafePlanTest, RoutingStabilityUnderConcurrentWriter) {
  // Readers keep preparing + executing a safe and an unsafe query (pinned
  // snapshot) while a writer commits appends: routing verdicts must not
  // flicker and pinned results stay bit-identical. Runs under TSan in CI.
  auto I = [](int64_t v) { return Value::Int64(v); };
  Database db;
  AddTable(&db, "R", 2, {{{0, 0}, 0.5}, {{1, 0}, 0.6}, {{2, 1}, 0.7}});
  AddTable(&db, "S", 1, {{{0}, 0.4}, {{1}, 0.8}});
  AddTable(&db, "A", 1, {{{0}, 0.5}, {{1}, 0.9}});
  AddTable(&db, "B", 2, {{{0, 0}, 0.3}, {{1, 1}, 0.6}});
  AddTable(&db, "C", 1, {{{0}, 0.2}, {{1}, 0.7}});
  EngineOptions opts;
  opts.num_threads = 4;
  QueryEngine engine = QueryEngine::Borrow(db, opts);

  const std::string safe_text = "q(x) :- R(x,y), S(y)";
  const std::string unsafe_text = "q() :- A(x), B(x,y), C(y)";
  auto safe_p = engine.Prepare(safe_text);
  auto unsafe_p = engine.Prepare(unsafe_text);
  ASSERT_TRUE(safe_p.ok());
  ASSERT_TRUE(unsafe_p.ok());
  EXPECT_TRUE(safe_p->exact());
  EXPECT_FALSE(unsafe_p->exact());

  Snapshot pinned = db.snapshot();
  auto safe_base = engine.Execute(*safe_p, {}, pinned);
  auto unsafe_base = engine.Execute(*unsafe_p, {}, pinned);
  ASSERT_TRUE(safe_base.ok());
  ASSERT_TRUE(unsafe_base.ok());
  ASSERT_FALSE(safe_base->answers.empty());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int k = 0; k < 24; ++k) {
      Database::Writer w = db.BeginWrite();
      w.AppendRow(0, std::vector<Value>{I(100 + k), I(k % 2)}, 0.5);
      w.Commit();
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      int round = 0;
      while (!stop.load(std::memory_order_acquire) || round < 4) {
        auto sp = engine.Prepare(safe_text);
        auto up = engine.Prepare(unsafe_text);
        ASSERT_TRUE(sp.ok());
        ASSERT_TRUE(up.ok());
        EXPECT_TRUE(sp->exact());
        EXPECT_FALSE(up->exact());
        auto sr = engine.Execute(*sp, {}, pinned);
        auto ur = engine.Execute(*up, {}, pinned);
        ASSERT_TRUE(sr.ok());
        ASSERT_TRUE(ur.ok());
        EXPECT_TRUE(sr->exact);
        EXPECT_FALSE(ur->exact);
        ASSERT_EQ(sr->answers.size(), safe_base->answers.size());
        for (size_t i = 0; i < sr->answers.size(); ++i) {
          EXPECT_EQ(sr->answers[i].tuple, safe_base->answers[i].tuple);
          EXPECT_EQ(sr->answers[i].score, safe_base->answers[i].score);
        }
        ASSERT_EQ(ur->answers.size(), unsafe_base->answers.size());
        for (size_t i = 0; i < ur->answers.size(); ++i) {
          EXPECT_EQ(ur->answers[i].score, unsafe_base->answers[i].score);
        }
        ++round;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();

  EngineStats s = engine.stats();
  EXPECT_GE(s.safe_plan_routed, 1u);
  EXPECT_GE(s.safe_plan_unsafe_residue, 1u);
}

TEST(SafePlanTest, TelemetryExportsThroughPrometheus) {
  Database db;
  AddTable(&db, "R", 2, {{{0, 0}, 0.5}});
  AddTable(&db, "S", 1, {{{0}, 0.4}});
  QueryEngine engine = QueryEngine::Borrow(db);
  ASSERT_TRUE(PrepareAndExecute(engine, "q(x) :- R(x,y), S(y)").ok());
  std::string prom = engine.metrics().PrometheusText();
  EXPECT_NE(prom.find("dissodb_engine_safe_plan_routed"), std::string::npos);
  EXPECT_NE(prom.find("dissodb_engine_safe_plan_unsafe_residue"),
            std::string::npos);
  EXPECT_NE(prom.find("dissodb_engine_safe_plan_compile_ns"),
            std::string::npos);
}

}  // namespace
}  // namespace dissodb
