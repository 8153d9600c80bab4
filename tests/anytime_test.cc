// Anytime-answers subsystem: differential validation of RunWithGuarantees.
//
//  (1) Bounds sandwich: on random (mostly unsafe) queries the returned
//      intervals satisfy lower <= P(q=a) <= upper against the exact WMC
//      ground truth, including chunk-seam table sizes.
//  (2) Safe queries short-circuit to the exact route: point intervals,
//      verdict kExact, no refinement.
//  (3) Certified top-k: every certified prefix position provably dominates
//      all later answers under the exact probabilities, and refinement
//      touches strictly fewer answers than the result holds.
//  (4) Deadlines: an already-expired deadline yields bounds-only answers
//      with no refinement work and no leaked workers; racing deadlines
//      never break the interval invariants (TSan coverage).
//  (5) Reproducibility: with exact escalation disabled the pure-MC
//      refinement path returns bit-identical intervals for 1 and 8 worker
//      threads.
//  (6) One evaluation, two lanes: every answer's (lower, upper) equals the
//      two-pass reference (tests/reference_ops.h) bit for bit, and a
//      column mixing value types counts (type, payload) pairs so the lower
//      bound stays sound.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "src/anytime/anytime.h"
#include "src/anytime/controller.h"
#include "src/dissociation/counting.h"
#include "src/dissociation/minimal_plans.h"
#include "src/engine/query_engine.h"
#include "src/infer/query_inference.h"
#include "src/lift/safe_plan.h"
#include "src/query/analysis.h"
#include "src/serve/scheduler.h"
#include "src/workload/random_instance.h"
#include "src/workload/synthetic.h"
#include "tests/reference_ops.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::ChunkCapOverride;
using testing_util::Q;
using testing_util::RefBounds;
using testing_util::RefTwoPassBounds;

constexpr double kTol = 1e-12;

std::map<std::vector<Value>, double> ToMap(
    const std::vector<RankedAnswer>& answers) {
  std::map<std::vector<Value>, double> m;
  for (const auto& a : answers) m[a.tuple] = a.score;
  return m;
}

// Asserts the full sandwich for one result against exact ground truth and
// returns the number of answers checked.
size_t ExpectSandwich(const AnytimeResult& res,
                      const std::map<std::vector<Value>, double>& exact,
                      const std::string& context) {
  EXPECT_EQ(res.answers.size(), exact.size()) << context;
  size_t checked = 0;
  for (const auto& a : res.answers) {
    auto it = exact.find(a.tuple);
    if (it == exact.end()) {
      ADD_FAILURE() << context << ": bounded answer missing from exact";
      continue;
    }
    const double p = it->second;
    EXPECT_LE(a.lower, p + kTol) << context;
    EXPECT_GE(a.upper, p - kTol) << context;
    EXPECT_LE(a.lower, a.upper + kTol) << context;
    EXPECT_GE(a.point, a.lower - kTol) << context;
    EXPECT_LE(a.point, a.upper + kTol) << context;
    ++checked;
  }
  return checked;
}

// ---------------------------------------------------------------------------
// (1) Bounds sandwich on random queries
// ---------------------------------------------------------------------------

TEST(AnytimeTest, BoundsSandwichOnRandomUnsafeQueries) {
  Rng rng(20150815);
  RandomQuerySpec qspec;
  qspec.min_atoms = 2;
  qspec.max_atoms = 4;
  qspec.max_vars = 5;
  qspec.head_var_prob = 0.35;
  size_t unsafe_checked = 0;
  size_t answers_checked = 0;
  for (int trial = 0; trial < 3000 && unsafe_checked < 120; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 10) continue;

    // Every 4th eligible trial runs at chunk capacity 4 so table sizes
    // straddle chunk seams in the weight-column rewrite and the scans.
    std::unique_ptr<ChunkCapOverride> cap;
    if (trial % 4 == 0) cap = std::make_unique<ChunkCapOverride>(4);

    Database db = RandomDatabaseFor(q, &rng);
    auto exact = ExactProbabilities(db, q);
    if (!exact.ok()) continue;  // WMC budget exceeded: no ground truth

    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(q);
    ASSERT_TRUE(prepared.ok()) << q.ToString();
    auto res = engine.RunWithGuarantees(*prepared);
    ASSERT_TRUE(res.ok()) << q.ToString() << ": " << res.status().ToString();

    answers_checked += ExpectSandwich(*res, ToMap(*exact), q.ToString());
    if (!prepared->exact()) {
      ++unsafe_checked;
      EXPECT_EQ(res->verdict == AnytimeVerdict::kExact, false) << q.ToString();
      // Default spec has no targets: bounds-only, nothing refined.
      EXPECT_EQ(res->refined_answers, 0u) << q.ToString();
    } else {
      EXPECT_EQ(res->verdict, AnytimeVerdict::kExact) << q.ToString();
    }
  }
  EXPECT_GE(unsafe_checked, 100u);
  EXPECT_GE(answers_checked, 200u);
}

TEST(AnytimeTest, SafeQueryShortCircuitsToExact) {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}, {{2}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}, {{1, 20}, 0.4}, {{2, 20}, 0.8}});
  ConjunctiveQuery q = Q("q(x) :- R(x), S(x,y)");

  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok());

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->exact());
  auto res = engine.RunWithGuarantees(*prepared);
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  EXPECT_EQ(res->verdict, AnytimeVerdict::kExact);
  EXPECT_EQ(res->refine_rounds, 0u);
  auto exact_map = ToMap(*exact);
  ASSERT_EQ(res->answers.size(), exact_map.size());
  for (const auto& a : res->answers) {
    EXPECT_TRUE(a.certified);
    EXPECT_EQ(a.source, BoundSource::kSafeExact);
    EXPECT_DOUBLE_EQ(a.lower, a.upper);
    EXPECT_NEAR(a.point, exact_map.at(a.tuple), kTol);
  }
}

// ---------------------------------------------------------------------------
// (3) Certified top-k against the exact ranking
// ---------------------------------------------------------------------------

TEST(AnytimeTest, CertifiedTopKMatchesExactRanking) {
  Rng rng(4242);
  RandomQuerySpec qspec;
  qspec.min_atoms = 2;
  qspec.max_atoms = 3;
  qspec.max_vars = 4;
  qspec.head_var_prob = 0.4;
  RandomInstanceSpec ispec;
  ispec.max_rows = 5;
  ispec.domain = 4;

  GuaranteeSpec spec;
  spec.top_k = 3;

  size_t certified_runs = 0;
  for (int trial = 0; trial < 1200 && certified_runs < 40; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng, qspec);
    if (DissociationExponent(q) > 10) continue;
    Database db = RandomDatabaseFor(q, &rng, ispec);
    auto exact = ExactProbabilities(db, q);
    if (!exact.ok()) continue;
    auto exact_map = ToMap(*exact);

    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(q);
    ASSERT_TRUE(prepared.ok()) << q.ToString();
    if (prepared->exact()) continue;  // exercise the refinement ladder only
    auto res = engine.RunWithGuarantees(*prepared, {}, spec);
    ASSERT_TRUE(res.ok()) << q.ToString() << ": " << res.status().ToString();

    ExpectSandwich(*res, exact_map, q.ToString());
    if (res->verdict != AnytimeVerdict::kCertified) continue;
    ++certified_runs;

    const size_t prefix = res->certified_prefix;
    EXPECT_EQ(prefix, std::min(spec.top_k, res->answers.size()))
        << q.ToString();
    // Semantic check: each certified position dominates every later answer
    // under the exact probabilities (ties allowed).
    for (size_t i = 0; i < prefix; ++i) {
      EXPECT_TRUE(res->answers[i].certified) << q.ToString();
      const double pi = exact_map.at(res->answers[i].tuple);
      for (size_t j = i + 1; j < res->answers.size(); ++j) {
        const double pj = exact_map.at(res->answers[j].tuple);
        EXPECT_GE(pi, pj - 1e-9)
            << q.ToString() << " position " << i << " vs " << j;
      }
    }
  }
  EXPECT_GE(certified_runs, 20u);
}

TEST(AnytimeTest, RefinesOnlyContestedAnswers) {
  // 4-chain (unsafe beyond length 3): with ~40 well-separated answers only
  // the top-k boundary neighbourhood needs lineage work.
  ChainSpec cspec;
  cspec.k = 4;
  cspec.n = 120;
  cspec.target_answers = 40;
  cspec.seed = 77;
  // Small probabilities: dissociation bounds converge (Proposition 21), so
  // positions away from the top-k boundary settle without lineage work.
  cspec.pi_max = 0.12;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(4);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->exact());

  GuaranteeSpec spec;
  spec.top_k = 5;
  // Refine incrementally: once the boundary answers collapse to exact
  // points, answers whose upper bound clears the boundary drop out of the
  // contested set without ever being refined.
  spec.max_refined_per_round = 4;
  auto res = engine.RunWithGuarantees(*prepared, {}, spec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_GE(res->answers.size(), 10u);
  EXPECT_EQ(res->verdict, AnytimeVerdict::kCertified);
  // The certification counter-assert from the issue: uncontested answers
  // are never refined.
  EXPECT_LT(res->refined_answers, res->answers.size());
}

TEST(AnytimeTest, EpsilonTargetTightensEveryInterval) {
  // q(z) :- R(z,x), S(x,y), T(y): x and y form a non-hierarchical pattern
  // even with z fixed, so the query is unsafe for every answer.
  Database db;
  AddTable(&db, "R", 2, {{{1, 1}, 0.6}, {{1, 2}, 0.4}, {{2, 2}, 0.8}});
  AddTable(&db, "S", 2,
           {{{1, 10}, 0.9}, {{1, 20}, 0.5}, {{2, 20}, 0.7}, {{2, 10}, 0.3}});
  AddTable(&db, "T", 1, {{{10}, 0.6}, {{20}, 0.3}});
  ConjunctiveQuery q = Q("q(z) :- R(z,x), S(x,y), T(y)");

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->exact());

  GuaranteeSpec spec;
  spec.epsilon = 1e-6;
  auto res = engine.RunWithGuarantees(*prepared, {}, spec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->verdict, AnytimeVerdict::kCertified);
  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok());
  auto exact_map = ToMap(*exact);
  for (const auto& a : res->answers) {
    EXPECT_LE(a.width(), spec.epsilon + kTol);
    EXPECT_TRUE(a.certified);
    EXPECT_NEAR(a.point, exact_map.at(a.tuple), spec.epsilon + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// (4) Deadlines
// ---------------------------------------------------------------------------

TEST(AnytimeTest, ExpiredDeadlineReturnsBoundsOnlyWithoutRefinement) {
  ChainSpec cspec;
  cspec.k = 4;
  cspec.n = 400;
  cspec.target_answers = 60;
  cspec.seed = 9;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(4);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->exact());

  GuaranteeSpec spec;
  spec.top_k = 5;
  spec.deadline = std::chrono::nanoseconds(1);  // expired before refinement
  auto res = engine.RunWithGuarantees(*prepared, {}, spec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  // Bounds are the unconditional floor; refinement never started.
  EXPECT_EQ(res->verdict, AnytimeVerdict::kBoundsOnly);
  EXPECT_TRUE(res->deadline_hit);
  EXPECT_EQ(res->refine_rounds, 0u);
  EXPECT_EQ(res->refined_answers, 0u);
  EXPECT_EQ(res->mc_samples_drawn, 0u);
  ASSERT_FALSE(res->answers.empty());
  for (const auto& a : res->answers) {
    EXPECT_FALSE(a.certified);
    EXPECT_EQ(a.source, BoundSource::kBounds);
    EXPECT_LE(a.lower, a.upper);
  }
  // Engine (and its worker pool) destructs cleanly at scope exit — a
  // leaked refinement worker would hang or trip TSan here.
}

TEST(AnytimeTest, RacingDeadlinesPreserveIntervalInvariants) {
  // Deadlines from "already expired" to "comfortably enough": whatever the
  // race outcome, intervals must stay ordered and the verdict consistent.
  ChainSpec cspec;
  cspec.k = 4;
  cspec.n = 150;
  cspec.target_answers = 30;
  cspec.seed = 21;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(4);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());

  for (int64_t us : {1, 50, 200, 1000, 5000, 50000}) {
    GuaranteeSpec spec;
    spec.top_k = 4;
    spec.deadline = std::chrono::microseconds(us);
    auto res = engine.RunWithGuarantees(*prepared, {}, spec);
    ASSERT_TRUE(res.ok()) << "deadline " << us << "us";
    for (const auto& a : res->answers) {
      EXPECT_LE(a.lower, a.upper + kTol) << "deadline " << us << "us";
      EXPECT_GE(a.point, a.lower - kTol);
      EXPECT_LE(a.point, a.upper + kTol);
    }
    if (res->verdict == AnytimeVerdict::kCertified) {
      EXPECT_FALSE(res->deadline_hit) << "deadline " << us << "us";
    }
  }
}

// ---------------------------------------------------------------------------
// (5) Pure-MC refinement is bit-reproducible across worker counts
// ---------------------------------------------------------------------------

TEST(AnytimeTest, IntervalsReproducibleAcrossThreadCounts) {
  ChainSpec cspec;
  cspec.k = 4;
  cspec.n = 80;
  cspec.target_answers = 25;
  cspec.seed = 5;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(4);

  GuaranteeSpec spec;
  spec.top_k = 4;
  spec.wmc_max_calls = 0;  // pure MC: the path whose determinism is at stake
  spec.mc_base_samples = 512;
  spec.mc_max_samples_per_answer = 1 << 16;
  spec.max_refine_rounds = 8;

  auto run = [&](int threads) {
    EngineOptions opts;
    opts.num_threads = threads;
    QueryEngine engine = QueryEngine::Borrow(db, opts);
    auto prepared = engine.Prepare(q);
    EXPECT_TRUE(prepared.ok());
    auto res = engine.RunWithGuarantees(*prepared, {}, spec);
    EXPECT_TRUE(res.ok());
    return std::move(*res);
  };

  const auto one = run(1);
  const auto eight = run(8);
  EXPECT_GT(one.refine_rounds, 0u);
  ASSERT_EQ(one.answers.size(), eight.answers.size());
  EXPECT_EQ(one.refine_rounds, eight.refine_rounds);
  EXPECT_EQ(one.mc_samples_drawn, eight.mc_samples_drawn);
  for (size_t i = 0; i < one.answers.size(); ++i) {
    EXPECT_EQ(one.answers[i].tuple, eight.answers[i].tuple) << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(one.answers[i].lower, eight.answers[i].lower) << i;
    EXPECT_EQ(one.answers[i].upper, eight.answers[i].upper) << i;
    EXPECT_EQ(one.answers[i].point, eight.answers[i].point) << i;
    EXPECT_EQ(one.answers[i].certified, eight.answers[i].certified) << i;
  }
}

// ---------------------------------------------------------------------------
// (6) One evaluation, two lanes
// ---------------------------------------------------------------------------

TEST(AnytimeTest, MixedTypeColumnsCountTypeAndPayload) {
  // x takes the Int64 1 and the string code 1, y the Int64 2 and the
  // string code 2: equal payloads, different values. Counting payloads
  // alone gave every exponent 1, so the "lower" bound equalled the upper
  // bound (0.389648) and exceeded P(q) (0.371094).
  const Value x1 = Value::Int64(1), x2 = Value::StringCode(1);
  const Value y1 = Value::Int64(2), y2 = Value::StringCode(2);
  Table r(RelationSchema::AllInt64("R", 2));
  r.AddRow({Value::Int64(7), x1}, 0.5);
  r.AddRow({Value::Int64(7), x2}, 0.5);
  Table s(RelationSchema::AllInt64("S", 2));
  for (const Value& x : {x1, x2}) {
    for (const Value& y : {y1, y2}) s.AddRow({x, y}, 0.5);
  }
  Table t(RelationSchema::AllInt64("T", 1));
  t.AddRow({y1}, 0.5);
  t.AddRow({y2}, 0.5);
  Database db;
  ASSERT_TRUE(db.AddTable(std::move(r)).ok());
  ASSERT_TRUE(db.AddTable(std::move(s)).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConjunctiveQuery q = Q("q(z) :- R(z,x), S(x,y), T(y)");

  auto exact = ExactProbabilities(db, q);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->size(), 1u);
  const double p = (*exact)[0].score;
  EXPECT_NEAR(p, 0.371094, 1e-6);

  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->exact());
  auto res = engine.RunWithGuarantees(*prepared);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->answers.size(), 1u);
  EXPECT_EQ(res->exponents, (std::vector<double>{2, 1, 2}));
  EXPECT_LE(res->answers[0].lower, p + kTol);
  EXPECT_GE(res->answers[0].upper, p - kTol);
  EXPECT_LT(res->answers[0].lower, res->answers[0].upper);
}

/// The engine's compile step for canonical query `q`: the lifted single
/// plan under Opt. 1, else every minimal plan (QueryEngine::GetOrCompile).
CompiledPlans CompileLikeEngine(const ConjunctiveQuery& q, const Snapshot& snap,
                                bool opt1) {
  CompiledPlans compiled;
  auto sk = SchemaKnowledge::FromSnapshot(q, snap);
  EXPECT_TRUE(sk.ok());
  if (!sk.ok()) return compiled;
  if (opt1) {
    auto lifted = lift::CompileSafePlan(q, *sk);
    EXPECT_TRUE(lifted.ok()) << q.ToString();
    if (!lifted.ok()) return compiled;
    compiled.single_plan = lifted->plan;
    compiled.exact = lifted->exact;
  } else {
    auto plans = EnumerateMinimalPlans(q, *sk, PlanEnumOptions{});
    EXPECT_TRUE(plans.ok()) << q.ToString();
    if (!plans.ok()) return compiled;
    compiled.exact = plans->size() == 1;
    compiled.plans = std::move(*plans);
  }
  return compiled;
}

/// Runs the controller's bounds stage on `q` (canonical variable space) and
/// checks every answer's interval against the two-pass reference, bit for
/// bit. Returns the number of answers checked.
size_t ExpectLanesMatchTwoPass(const Database& db, const ConjunctiveQuery& q,
                               bool opt1, int threads,
                               const std::string& context) {
  const Snapshot snap = db.snapshot();
  const CompiledPlans compiled = CompileLikeEngine(q, snap, opt1);
  if (compiled.single_plan == nullptr && compiled.plans.empty()) return 0;
  Scheduler pool(threads);
  AnytimeInput in;
  in.snap = snap;
  in.query = &q;
  in.compiled = &compiled;
  in.scheduler = &pool;
  auto out = RunAnytime(in, GuaranteeSpec{});
  EXPECT_TRUE(out.ok()) << context << ": " << out.status().ToString();
  if (!out.ok()) return 0;
  const std::vector<double> exponents =
      compiled.exact ? std::vector<double>{} : out->exponents;
  auto ref = RefTwoPassBounds(snap, q, compiled, {}, exponents, &pool);
  EXPECT_TRUE(ref.ok()) << context;
  if (!ref.ok()) return 0;
  EXPECT_EQ(out->answers.size(), ref->size()) << context;
  size_t checked = 0;
  for (const BoundedAnswer& a : out->answers) {
    auto it = ref->find(a.tuple);
    if (it == ref->end()) {
      ADD_FAILURE() << context << ": answer missing from the reference";
      continue;
    }
    // The safe route's interval is a point at the exact score.
    const double lower = compiled.exact ? it->second.second : it->second.first;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.lower), std::bit_cast<uint64_t>(lower))
        << context;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.upper),
              std::bit_cast<uint64_t>(it->second.second))
        << context;
    ++checked;
  }
  return checked;
}

TEST(AnytimeTest, LanesBitIdenticalToTwoPassReference) {
  Rng rng(19631);
  RandomQuerySpec qspec;
  qspec.min_atoms = 2;
  qspec.max_atoms = 4;
  qspec.max_vars = 5;
  qspec.head_var_prob = 0.35;
  size_t unsafe = 0;
  size_t answers = 0;
  for (int trial = 0; trial < 5000 && unsafe < 110; ++trial) {
    ConjunctiveQuery raw = RandomQuery(&rng, qspec);
    if (DissociationExponent(raw) > 10) continue;
    // A quarter of the queries run at chunk capacity 4, so scans, joins
    // and weight rescales cross chunk seams.
    std::unique_ptr<ChunkCapOverride> cap;
    if (unsafe % 4 == 0) cap = std::make_unique<ChunkCapOverride>(4);
    RandomInstanceSpec ispec;
    if (unsafe % 2 == 1) {
      ispec.max_rows = 40;
      ispec.domain = 6;
    }
    Database db = RandomDatabaseFor(raw, &rng, ispec);
    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(raw);
    ASSERT_TRUE(prepared.ok()) << raw.ToString();
    if (prepared->exact()) continue;
    ++unsafe;
    const ConjunctiveQuery& q = prepared->canonical();
    for (bool opt1 : {true, false}) {
      for (int threads : {1, 4}) {
        const std::string context = q.ToString() + " opt1=" +
                                    std::to_string(opt1) + " threads=" +
                                    std::to_string(threads);
        answers += ExpectLanesMatchTwoPass(db, q, opt1, threads, context);
      }
    }
  }
  EXPECT_GE(unsafe, 100u);
  EXPECT_GE(answers, 250u);
}

TEST(AnytimeTest, LanesBitIdenticalToTwoPassReferenceOnLargeChain) {
  // 60k-row 3-chain: the morsel-parallel join, grouping and gather paths
  // all engage with 4 threads.
  ChainSpec cspec;
  cspec.k = 3;
  cspec.n = 60'000;
  cspec.target_answers = 150;
  cspec.seed = 31;
  Database db = MakeChainDatabase(cspec);
  ConjunctiveQuery q = MakeChainQuery(3);
  for (int threads : {1, 4}) {
    EXPECT_GE(ExpectLanesMatchTwoPass(db, q, /*opt1=*/true, threads,
                                      "3-chain threads=" +
                                          std::to_string(threads)),
              100u);
  }
}

TEST(AnytimeTest, SafeRouteRunsOneLane) {
  // The exact route evaluates without lane 2: its point intervals equal
  // the single-lane evaluation bit for bit.
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}, {{2}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}, {{1, 20}, 0.4}, {{2, 20}, 0.8}});
  ConjunctiveQuery q = Q("q(x) :- R(x), S(x,y)");
  EXPECT_EQ(ExpectLanesMatchTwoPass(db, q, /*opt1=*/true, 1, "safe"), 2u);
}

TEST(AnytimeTest, BoundsReportNodesAndScansLikeExecute) {
  // The bounds evaluation is Execute's evaluate stage: it evaluates the
  // same plan nodes, and the constant selection on T runs a filtered scan
  // whose counters reach the engine registry.
  Database db;
  AddTable(&db, "R", 2, {{{1, 10}, 0.5}, {{2, 10}, 0.6}, {{2, 20}, 0.7}});
  AddTable(&db, "S", 2,
           {{{10, 100}, 0.8}, {{20, 100}, 0.4}, {{20, 200}, 0.9}});
  AddTable(&db, "T", 2, {{{100, 7}, 0.5}, {{200, 7}, 0.3}, {{200, 8}, 0.6}});
  for (bool opt1 : {true, false}) {
    EngineOptions opts;
    opts.propagation.opt1_single_plan = opt1;
    QueryEngine engine = QueryEngine::Borrow(db, opts);
    auto prepared = engine.Prepare("q(x) :- R(x,y), S(y,z), T(z,7)");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ASSERT_FALSE(prepared->exact());

    auto bounded = engine.RunWithGuarantees(*prepared);
    ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
    const ChunkedScanStats anytime_scans = engine.stats().scans;
    EXPECT_GT(anytime_scans.filtered_scans, 0u) << "opt1=" << opt1;
    EXPECT_GT(anytime_scans.rows_scanned, 0u) << "opt1=" << opt1;

    auto executed = engine.Execute(*prepared);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    EXPECT_GT(executed->nodes_evaluated, 0u) << "opt1=" << opt1;
    EXPECT_EQ(bounded->base.nodes_evaluated, executed->nodes_evaluated)
        << "opt1=" << opt1;
    // Execute scans exactly what the bounds evaluation scanned.
    EXPECT_EQ(engine.stats().scans.filtered_scans,
              2 * anytime_scans.filtered_scans)
        << "opt1=" << opt1;
    EXPECT_EQ(engine.stats().scans.rows_scanned,
              2 * anytime_scans.rows_scanned)
        << "opt1=" << opt1;
  }
}

}  // namespace
}  // namespace dissodb
