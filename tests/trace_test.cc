// Query tracing: span-tree shape against the evaluated plan, per-operator
// row counts against the reference operators, balanced nesting under
// pooled parallel execution, export formats, and the guarantee that
// tracing-off executions are bit-identical to the untraced engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dissociation/dissociation.h"
#include "src/engine/query_engine.h"
#include "src/exec/evaluator.h"
#include "src/exec/operators.h"
#include "src/exec/semijoin.h"
#include "src/lift/safe_plan.h"
#include "src/obs/trace.h"
#include "src/plan/plan.h"
#include "src/query/analysis.h"
#include "tests/reference_ops.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::AddTable;
using testing_util::Canonical;
using testing_util::Q;
using testing_util::RefJoin;
using testing_util::ToRef;
using testing_util::WideKeyBloomDatabase;

Database RstDatabase() {
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.7}, {{2}, 0.5}});
  AddTable(&db, "S", 2, {{{1, 10}, 0.9}, {{1, 20}, 0.4}, {{2, 20}, 0.8}});
  AddTable(&db, "T", 1, {{{10}, 0.6}, {{20}, 0.3}});
  return db;
}

const obs::TraceSpan* FindSpan(const obs::QueryTrace& trace,
                               const std::string& name) {
  for (const auto& s : trace.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const std::string* Arg(const obs::TraceSpan& s, const std::string& key) {
  for (const auto& [k, v] : s.args) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Spans in the subtree rooted at `root` (excluding `root` itself).
size_t SubtreeSize(const obs::QueryTrace& trace, uint32_t root) {
  size_t n = 0;
  for (const auto* child : trace.ChildrenOf(root)) {
    n += 1 + SubtreeSize(trace, child->id);
  }
  return n;
}

/// Every span tree invariant tracing promises: ids are dense and 1-based,
/// parents precede children, every span is closed, and a child's interval
/// nests inside its parent's.
void ExpectBalanced(const obs::QueryTrace& trace) {
  size_t roots = 0;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const obs::TraceSpan& s = trace.spans[i];
    EXPECT_EQ(s.id, i + 1);
    EXPECT_NE(s.end_ns, 0u) << s.name;
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    if (s.parent == 0) {
      ++roots;
      continue;
    }
    ASSERT_LT(s.parent, s.id) << s.name << ": parent must open first";
    const obs::TraceSpan& p = trace.spans[s.parent - 1];
    EXPECT_GE(s.start_ns, p.start_ns) << s.name << " under " << p.name;
    EXPECT_LE(s.end_ns, p.end_ns) << s.name << " under " << p.name;
  }
  EXPECT_EQ(roots, 1u);
}

// ---------------------------------------------------------------------------
// TraceContext / ScopedSpan units
// ---------------------------------------------------------------------------

TEST(TraceContextTest, SpansNestAndFinishClosesOpenOnes) {
  obs::TraceContext ctx;
  uint32_t root = ctx.BeginSpan("root", 0);
  uint32_t child = ctx.BeginSpan("child", root);
  ctx.Annotate(child, "rows_out", uint64_t{42});
  ctx.EndSpan(child);
  // `root` is left open on purpose: Finish must close it.
  obs::QueryTrace trace = ctx.Finish();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "root");
  EXPECT_NE(trace.spans[0].end_ns, 0u);
  EXPECT_EQ(trace.spans[1].parent, root);
  ASSERT_NE(Arg(trace.spans[1], "rows_out"), nullptr);
  EXPECT_EQ(*Arg(trace.spans[1], "rows_out"), "42");
  ASSERT_EQ(trace.ChildrenOf(root).size(), 1u);
  EXPECT_EQ(trace.ChildrenOf(root)[0]->name, "child");
}

TEST(TraceContextTest, ScopedSpanIsNullContextSafe) {
  {
    obs::ScopedSpan span(nullptr, "ignored", 0);
    EXPECT_EQ(span.id(), 0u);
  }
  obs::TraceContext ctx;
  {
    obs::ScopedSpan span(&ctx, "real", 0);
    EXPECT_NE(span.id(), 0u);
  }
  obs::QueryTrace trace = ctx.Finish();
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_NE(trace.spans[0].end_ns, 0u);
}

TEST(TraceExportTest, ChromeJsonHasOneCompleteEventPerSpan) {
  obs::TraceContext ctx;
  uint32_t root = ctx.BeginSpan("execute q() :- R(\"x\\y\")", 0);
  ctx.EndSpan(ctx.BeginSpan("scan R", root));
  ctx.EndSpan(root);
  obs::QueryTrace trace = ctx.Finish();
  std::string json = trace.ToChromeJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  size_t events = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++events;
  }
  EXPECT_EQ(events, trace.spans.size());
  // The quote and backslash in the span name must arrive escaped.
  EXPECT_NE(json.find("\\\"x\\\\y\\\""), std::string::npos) << json;
}

TEST(TraceExportTest, TextTreeIndentsChildren) {
  obs::TraceContext ctx;
  uint32_t root = ctx.BeginSpan("execute", 0);
  uint32_t eval = ctx.BeginSpan("evaluate", root);
  ctx.EndSpan(ctx.BeginSpan("scan R", eval));
  ctx.EndSpan(eval);
  ctx.EndSpan(root);
  std::string text = ctx.Finish().ToText();
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("evaluate"), std::string::npos);
  EXPECT_NE(text.find("scan R"), std::string::npos);
  EXPECT_LT(text.find("execute"), text.find("evaluate"));
  EXPECT_LT(text.find("evaluate"), text.find("scan R"));
}

// ---------------------------------------------------------------------------
// Evaluator: span tree vs. plan tree
// ---------------------------------------------------------------------------

TEST(TraceShapeTest, SpanTreeExpandsToPlanTreeShape) {
  // Example 17: the dissociated safe plan has DAG-shared nodes under Opt. 2;
  // reused nodes must still emit (reference) spans, so the span tree always
  // matches the plan's *tree* expansion.
  Database db;
  AddTable(&db, "R", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "S", 1, {{{1}, 0.5}, {{2}, 0.5}});
  AddTable(&db, "T", 2, {{{1, 1}, 0.5}, {{1, 2}, 0.5}, {{2, 2}, 0.5}});
  AddTable(&db, "U", 1, {{{1}, 0.5}, {{2}, 0.5}});
  auto q = Q("q() :- R(x), S(x), T(x,y), U(y)");

  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());
  lift::LiftOptions lo;
  lo.reuse_common_subplans = true;
  auto lifted = lift::CompileSafePlan(q, *sk, lo);
  ASSERT_TRUE(lifted.ok());
  const PlanPtr& plan = lifted->plan;
  const size_t tree_nodes = MeasurePlan(plan).tree_nodes;

  obs::TraceContext ctx;
  uint32_t root = ctx.BeginSpan("evaluate", 0);
  PlanEvaluator ev(db.snapshot(), q);
  ev.SetTrace(&ctx, root);
  auto rel = ev.Evaluate(plan);
  ASSERT_TRUE(rel.ok());
  ctx.EndSpan(root);
  obs::QueryTrace trace = ctx.Finish();

  ExpectBalanced(trace);
  EXPECT_EQ(SubtreeSize(trace, root), tree_nodes);
  // Opt. 2 means strictly fewer evaluations than tree nodes; the reused
  // nodes appear as zero-work reference spans.
  EXPECT_LT(ev.nodes_evaluated(), tree_nodes);
  size_t reused = 0;
  for (const auto& s : trace.spans) {
    if (Arg(s, "reused") != nullptr) ++reused;
  }
  // Each of the tree_nodes plan spans is either a real evaluation or a
  // zero-work reference to a DAG-shared result.
  EXPECT_EQ(reused, tree_nodes - ev.nodes_evaluated());
}

// ---------------------------------------------------------------------------
// Engine-level tracing
// ---------------------------------------------------------------------------

TEST(EngineTraceTest, OffByDefaultAndBitIdenticalWhenOn) {
  Database db = RstDatabase();
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(prepared.ok());

  auto plain = engine.Execute(*prepared);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->trace, nullptr);
  EXPECT_EQ(engine.stats().traces_recorded, 0u);

  auto traced = engine.Execute(*prepared, Bindings().EnableTrace());
  ASSERT_TRUE(traced.ok());
  ASSERT_NE(traced->trace, nullptr);
  EXPECT_EQ(engine.stats().traces_recorded, 1u);

  // Tracing must not perturb results in any way.
  ASSERT_EQ(traced->answers.size(), plain->answers.size());
  for (size_t i = 0; i < plain->answers.size(); ++i) {
    EXPECT_EQ(traced->answers[i].tuple, plain->answers[i].tuple);
    EXPECT_EQ(traced->answers[i].score, plain->answers[i].score);
  }
  EXPECT_EQ(traced->nodes_evaluated, plain->nodes_evaluated);
}

TEST(EngineTraceTest, RootSpanAnnotatesSafePlanRouting) {
  // The execute root span records how the safe-plan router resolved the
  // query: "exact" for a lifted safe plan, "dissociated" otherwise — in
  // ToText() and in the Chrome JSON args.
  Database db = RstDatabase();
  QueryEngine engine = QueryEngine::Borrow(db);

  auto safe = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");  // y hierarchical
  ASSERT_TRUE(safe.ok());
  auto st = engine.Execute(*safe, Bindings().EnableTrace());
  ASSERT_TRUE(st.ok());
  ASSERT_NE(st->trace, nullptr);
  EXPECT_TRUE(st->exact);
  EXPECT_NE(st->trace->ToText().find("safe_plan=exact"), std::string::npos);
  EXPECT_NE(st->trace->ToChromeJson().find("safe_plan"), std::string::npos);

  auto unsafe_q = engine.Prepare("q() :- R(x), S(x,y), T(y)");  // 3-chain
  ASSERT_TRUE(unsafe_q.ok());
  auto ut = engine.Execute(*unsafe_q, Bindings().EnableTrace());
  ASSERT_TRUE(ut.ok());
  ASSERT_NE(ut->trace, nullptr);
  EXPECT_FALSE(ut->exact);
  EXPECT_NE(ut->trace->ToText().find("safe_plan=dissociated"),
            std::string::npos);
}

TEST(EngineTraceTest, SpanRowCountsMatchReferenceOperators) {
  Database db = RstDatabase();
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(prepared.ok());
  auto res = engine.Execute(*prepared, Bindings().EnableTrace());
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res->trace, nullptr);
  const obs::QueryTrace& trace = *res->trace;
  ExpectBalanced(trace);

  // Scan spans report exactly the table row counts.
  const auto scan_rows = [&](const std::string& rel) -> uint64_t {
    const obs::TraceSpan* s = FindSpan(trace, "scan " + rel);
    EXPECT_NE(s, nullptr) << rel;
    if (s == nullptr) return 0;
    const std::string* rows = Arg(*s, "rows_out");
    EXPECT_NE(rows, nullptr) << rel;
    return rows != nullptr ? std::stoull(*rows) : 0;
  };
  EXPECT_EQ(scan_rows("R"), 2u);
  EXPECT_EQ(scan_rows("S"), 3u);
  EXPECT_EQ(scan_rows("T"), 2u);

  // Join spans: rows_in is the sum of the children's outputs, rows_out
  // matches the reference nested-loop join on the child spans' relations.
  bool checked_join = false;
  for (const auto& s : trace.spans) {
    if (s.name != "join") continue;
    auto children = trace.ChildrenOf(s.id);
    uint64_t child_rows = 0;
    for (const auto* c : children) {
      const std::string* rows = Arg(*c, "rows_out");
      ASSERT_NE(rows, nullptr) << c->name;
      child_rows += std::stoull(*rows);
    }
    const std::string* rows_in = Arg(s, "rows_in");
    ASSERT_NE(rows_in, nullptr);
    EXPECT_EQ(std::stoull(*rows_in), child_rows);
    checked_join = true;
  }
  EXPECT_TRUE(checked_join);

  // The root aggregates the execution: answers count must agree.
  const obs::TraceSpan& root = trace.spans[0];
  EXPECT_EQ(root.parent, 0u);
  ASSERT_NE(Arg(root, "answers"), nullptr);
  EXPECT_EQ(std::stoull(*Arg(root, "answers")), res->answers.size());
  ASSERT_NE(Arg(root, "nodes_evaluated"), nullptr);
  EXPECT_EQ(std::stoull(*Arg(root, "nodes_evaluated")),
            res->nodes_evaluated);
}

TEST(EngineTraceTest, JoinOutputMatchesReferenceJoin) {
  // Direct cross-check against tests/reference_ops.h: evaluate R(x) ⋈
  // S(x,y) through a traced plan and compare the join span's rows_out with
  // RefJoin on the scanned inputs.
  Database db = RstDatabase();
  auto q = Q("q(x,y) :- R(x), S(x,y)");
  auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
  ASSERT_TRUE(sk.ok());
  auto lifted = lift::CompileSafePlan(q, *sk);
  ASSERT_TRUE(lifted.ok());
  const PlanPtr& plan = lifted->plan;

  obs::TraceContext ctx;
  uint32_t root = ctx.BeginSpan("evaluate", 0);
  PlanEvaluator ev(db.snapshot(), q);
  ev.SetTrace(&ctx, root);
  auto rel = ev.Evaluate(plan);
  ASSERT_TRUE(rel.ok());
  ctx.EndSpan(root);
  obs::QueryTrace trace = ctx.Finish();

  // Reference join of the two scan relations.
  auto r_scan = ScanAtom(db.snapshot(), q, 0);
  auto s_scan = ScanAtom(db.snapshot(), q, 1);
  ASSERT_TRUE(r_scan.ok() && s_scan.ok());
  const auto ref = RefJoin(ToRef(*r_scan), ToRef(*s_scan));

  const obs::TraceSpan* join = FindSpan(trace, "join");
  ASSERT_NE(join, nullptr);
  ASSERT_NE(Arg(*join, "rows_out"), nullptr);
  EXPECT_EQ(std::stoull(*Arg(*join, "rows_out")), ref.rows.size());
  ASSERT_NE(Arg(*join, "rows_in"), nullptr);
  EXPECT_EQ(std::stoull(*Arg(*join, "rows_in")),
            ToRef(*r_scan).rows.size() + ToRef(*s_scan).rows.size());
}

TEST(EngineTraceTest, JoinSpansReportProbeColumnReuse) {
  // R(x) builds (the smaller side) and every S(x,y) row matches exactly
  // one R row: the join shares S's columns. With an extra R row, R is the
  // larger side and probes, its unmatched row forces gathered columns.
  auto q = Q("q(x,y) :- R(x), S(x,y)");
  for (bool extra_r_row : {false, true}) {
    Database db;
    std::vector<std::pair<std::vector<int64_t>, double>> r_rows = {
        {{1}, 0.7}, {{2}, 0.5}};
    if (extra_r_row) {
      r_rows.push_back({{3}, 0.4});
      r_rows.push_back({{4}, 0.4});
    }
    AddTable(&db, "R", 1, r_rows);
    AddTable(&db, "S", 2, {{{1, 10}, 0.9}, {{1, 20}, 0.4}, {{2, 20}, 0.8}});
    auto sk = SchemaKnowledge::FromSnapshot(q, db.snapshot());
    ASSERT_TRUE(sk.ok());
    auto lifted = lift::CompileSafePlan(q, *sk);
    ASSERT_TRUE(lifted.ok());

    obs::TraceContext ctx;
    const uint32_t root = ctx.BeginSpan("evaluate", 0);
    PlanEvaluator ev(db.snapshot(), q);
    ev.SetTrace(&ctx, root);
    ASSERT_TRUE(ev.Evaluate(lifted->plan).ok());
    ctx.EndSpan(root);
    obs::QueryTrace trace = ctx.Finish();

    const obs::TraceSpan* join = FindSpan(trace, "join");
    ASSERT_NE(join, nullptr);
    ASSERT_NE(Arg(*join, "probe_cols"), nullptr);
    EXPECT_EQ(*Arg(*join, "probe_cols"),
              extra_r_row ? "gathered" : "reused");
  }
}

/// The comma-separated entries of `list`.
std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t at = 0;
  while (true) {
    const size_t comma = list.find(',', at);
    out.push_back(list.substr(at, comma - at));
    if (comma == std::string::npos) return out;
    at = comma + 1;
  }
}

TEST(EngineTraceTest, JoinAndProjectSpansReportDenseOrHashedIndexes) {
  // R(x), S(x,y), T(y) over one-column keys: narrow keys build head arrays
  // and group through direct-address arrays; the same shape with keys
  // times 2^23 hashes both. Every join reports one index entry per step
  // (as many as probe_cols), and every grouped projection its grouping.
  Database narrow;
  {
    std::vector<std::pair<std::vector<int64_t>, double>> r, s, t;
    for (int64_t i = 0; i < 64; ++i) {
      r.push_back({{i}, 0.5});
      s.push_back({{i, (i * 7) % 64}, 0.5});
      t.push_back({{i}, 0.5});
    }
    AddTable(&narrow, "R", 1, r);
    AddTable(&narrow, "S", 2, s);
    AddTable(&narrow, "T", 1, t);
  }
  Database wide = WideKeyBloomDatabase();
  for (const auto& [db, want] :
       {std::pair<const Database*, std::string>{&narrow, "dense"},
        std::pair<const Database*, std::string>{&wide, "hash"}}) {
    QueryEngine engine = QueryEngine::Borrow(*db);
    auto prepared = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");
    ASSERT_TRUE(prepared.ok());
    auto res = engine.Execute(*prepared, Bindings().EnableTrace());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_NE(res->trace, nullptr);
    size_t steps = 0;
    size_t groupings = 0;
    for (const auto& s : res->trace->spans) {
      if (s.name == "join" && Arg(s, "reused") == nullptr) {
        ASSERT_NE(Arg(s, "index"), nullptr);
        ASSERT_NE(Arg(s, "probe_cols"), nullptr);
        const std::vector<std::string> index = SplitCommas(*Arg(s, "index"));
        EXPECT_EQ(index.size(), SplitCommas(*Arg(s, "probe_cols")).size());
        for (const std::string& step : index) EXPECT_EQ(step, want);
        steps += index.size();
      }
      if (s.name == "project" && Arg(s, "grouping") != nullptr) {
        EXPECT_EQ(*Arg(s, "grouping"), want);
        ++groupings;
      }
    }
    EXPECT_GE(steps, 2u) << want;
    EXPECT_GE(groupings, 1u) << want;
  }
}

TEST(EngineTraceTest, AnytimeBoundsSpanReportsLanesAndExponents) {
  Database db;
  AddTable(&db, "R", 2, {{{1, 1}, 0.6}, {{1, 2}, 0.4}, {{2, 2}, 0.8}});
  AddTable(&db, "S", 2,
           {{{1, 10}, 0.9}, {{1, 20}, 0.5}, {{2, 20}, 0.7}, {{2, 10}, 0.3}});
  AddTable(&db, "T", 1, {{{10}, 0.6}, {{20}, 0.3}});
  QueryEngine engine = QueryEngine::Borrow(db);

  // Unsafe: one evaluation carries both bounds, and the span names the
  // exponents behind the lower one. Every join reports its probe columns.
  auto unsafe_q = engine.Prepare("q(z) :- R(z,x), S(x,y), T(y)");
  ASSERT_TRUE(unsafe_q.ok());
  auto res = engine.RunWithGuarantees(*unsafe_q, Bindings().EnableTrace());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_NE(res->base.trace, nullptr);
  ExpectBalanced(*res->base.trace);
  const obs::TraceSpan* bounds = FindSpan(*res->base.trace, "anytime-bounds");
  ASSERT_NE(bounds, nullptr);
  ASSERT_NE(Arg(*bounds, "lanes"), nullptr);
  EXPECT_EQ(*Arg(*bounds, "lanes"), "2");
  std::string exponents;
  for (double d : res->exponents) {
    if (!exponents.empty()) exponents += ',';
    exponents += std::to_string(static_cast<int64_t>(d));
  }
  ASSERT_FALSE(res->exponents.empty());
  ASSERT_NE(Arg(*bounds, "exponents"), nullptr);
  EXPECT_EQ(*Arg(*bounds, "exponents"), exponents);
  size_t joins = 0;
  for (const auto& s : res->base.trace->spans) {
    if (s.name != "join" || Arg(s, "reused") != nullptr) continue;
    ++joins;
    ASSERT_NE(Arg(s, "probe_cols"), nullptr);
    std::string steps = *Arg(s, "probe_cols") + ",";
    for (size_t at = 0; at < steps.size(); at = steps.find(',', at) + 1) {
      const std::string step = steps.substr(at, steps.find(',', at) - at);
      EXPECT_TRUE(step == "reused" || step == "gathered") << step;
    }
  }
  EXPECT_GT(joins, 0u);

  // Safe: the exact route evaluates one lane and has no exponents.
  auto safe_q = engine.Prepare("q(x) :- R(x,z), S(z,y)");
  ASSERT_TRUE(safe_q.ok());
  ASSERT_TRUE(safe_q->exact());
  auto safe = engine.RunWithGuarantees(*safe_q, Bindings().EnableTrace());
  ASSERT_TRUE(safe.ok());
  ASSERT_NE(safe->base.trace, nullptr);
  const obs::TraceSpan* safe_bounds =
      FindSpan(*safe->base.trace, "anytime-bounds");
  ASSERT_NE(safe_bounds, nullptr);
  ASSERT_NE(Arg(*safe_bounds, "lanes"), nullptr);
  EXPECT_EQ(*Arg(*safe_bounds, "lanes"), "1");
  EXPECT_EQ(Arg(*safe_bounds, "exponents"), nullptr);
}

TEST(EngineTraceTest, BalancedNestingUnderPooledParallelExecution) {
  // Large-ish inputs + a 4-thread pool: executions run on pool threads and
  // operators fan out morsels, yet every trace must stay a balanced tree.
  Database db;
  std::vector<std::pair<std::vector<int64_t>, double>> r_rows, s_rows;
  for (int64_t i = 0; i < 3000; ++i) {
    r_rows.push_back({{i}, 0.5});
    s_rows.push_back({{i, i % 97}, 0.5});
  }
  AddTable(&db, "R", 1, r_rows);
  AddTable(&db, "S", 2, s_rows);

  EngineOptions opts;
  opts.num_threads = 4;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(y) :- R(x), S(x,y)");
  ASSERT_TRUE(prepared.ok());

  std::vector<PreparedQuery> batch(8, *prepared);
  std::vector<Bindings> bindings(8, Bindings().EnableTrace());
  auto results = engine.ExecuteBatch(batch, bindings);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r->trace, nullptr);
    ExpectBalanced(*r->trace);
    EXPECT_NE(FindSpan(*r->trace, "evaluate"), nullptr);
    EXPECT_NE(FindSpan(*r->trace, "rank"), nullptr);
  }
  EXPECT_EQ(engine.stats().traces_recorded, 8u);
}

TEST(EngineTraceTest, SampledTracingRecordsOneInN) {
  Database db = RstDatabase();
  EngineOptions opts;
  opts.trace_sample_every = 2;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(prepared.ok());
  size_t with_trace = 0;
  for (int i = 0; i < 6; ++i) {
    auto r = engine.Execute(*prepared);
    ASSERT_TRUE(r.ok());
    if (r->trace != nullptr) ++with_trace;
  }
  EXPECT_EQ(with_trace, 3u);
  EXPECT_EQ(engine.stats().traces_recorded, 3u);
}

TEST(EngineTraceTest, SemiJoinSpanAndBloomStatsFlowIntoEngineStats) {
  // The reduction's Bloom counters land in EngineStats and on the
  // semijoin-reduce span. The 5000-row build sides get filters.
  Database db = WideKeyBloomDatabase();
  EngineOptions opts;
  opts.propagation.opt3_semijoin_reduction = true;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(prepared.ok());
  auto res = engine.Execute(*prepared, Bindings().EnableTrace());
  ASSERT_TRUE(res.ok());

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.semijoin_reductions, 1u);
  EXPECT_GT(stats.bloom_filters_built, 0u);

  ASSERT_NE(res->trace, nullptr);
  const obs::TraceSpan* sj = FindSpan(*res->trace, "semijoin-reduce");
  ASSERT_NE(sj, nullptr);
  ASSERT_NE(Arg(*sj, "bloom_filters_built"), nullptr);
  EXPECT_EQ(std::stoull(*Arg(*sj, "bloom_filters_built")),
            stats.bloom_filters_built);

  // The worklist's own telemetry: pairs run and build rows indexed, on the
  // span and in the registry.
  ASSERT_NE(Arg(*sj, "semijoins"), nullptr);
  ASSERT_NE(Arg(*sj, "build_rows"), nullptr);
  const uint64_t semijoins = std::stoull(*Arg(*sj, "semijoins"));
  EXPECT_GE(semijoins, 4u);  // R-S, S-R, S-T, T-S each run at least once
  EXPECT_EQ(engine.metrics().counter("semijoin.semijoins")->Value(),
            semijoins);
  EXPECT_EQ(engine.metrics().counter("semijoin.build_rows")->Value(),
            std::stoull(*Arg(*sj, "build_rows")));
  EXPECT_GT(std::stoull(*Arg(*sj, "build_rows")), 0u);

  // Which path each pair took: wide keys are all hashed.
  ASSERT_NE(Arg(*sj, "dense_semijoins"), nullptr);
  ASSERT_NE(Arg(*sj, "hashed_rows"), nullptr);
  EXPECT_EQ(std::stoull(*Arg(*sj, "dense_semijoins")), 0u);
  EXPECT_EQ(engine.metrics().counter("semijoin.dense_semijoins")->Value(),
            std::stoull(*Arg(*sj, "dense_semijoins")));
  EXPECT_GT(std::stoull(*Arg(*sj, "hashed_rows")), 0u);
  EXPECT_EQ(engine.metrics().counter("semijoin.hashed_rows")->Value(),
            std::stoull(*Arg(*sj, "hashed_rows")));
}

TEST(EngineTraceTest, SemiJoinSpanReportsDensePairs) {
  // Small integer keys: every pair is answered by the dense bitmap path,
  // which hashes nothing. Span args and registry counters agree.
  Database db = RstDatabase();
  EngineOptions opts;
  opts.propagation.opt3_semijoin_reduction = true;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(prepared.ok());
  auto res = engine.Execute(*prepared, Bindings().EnableTrace());
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res->trace, nullptr);
  const obs::TraceSpan* sj = FindSpan(*res->trace, "semijoin-reduce");
  ASSERT_NE(sj, nullptr);
  ASSERT_NE(Arg(*sj, "semijoins"), nullptr);
  ASSERT_NE(Arg(*sj, "dense_semijoins"), nullptr);
  ASSERT_NE(Arg(*sj, "hashed_rows"), nullptr);
  const uint64_t dense = std::stoull(*Arg(*sj, "dense_semijoins"));
  EXPECT_GE(dense, 4u);
  EXPECT_EQ(dense, std::stoull(*Arg(*sj, "semijoins")));
  EXPECT_EQ(engine.metrics().counter("semijoin.dense_semijoins")->Value(),
            dense);
  EXPECT_EQ(std::stoull(*Arg(*sj, "hashed_rows")), 0u);
  EXPECT_EQ(engine.metrics().counter("semijoin.hashed_rows")->Value(), 0u);
  EXPECT_EQ(engine.stats().bloom_filters_built, 0u);
}

TEST(EngineTraceTest, PrometheusDumpCoversEngineSchedulerAndScans) {
  Database db = RstDatabase();
  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(prepared.ok());
  auto results = engine.ExecuteBatch({*prepared, *prepared});
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  std::string text = engine.metrics().PrometheusText();
  EXPECT_NE(text.find("dissodb_engine_queries 2"), std::string::npos) << text;
  EXPECT_NE(text.find("dissodb_engine_execute_ns_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("dissodb_scheduler_tasks_executed"), std::string::npos);
  EXPECT_NE(text.find("dissodb_scheduler_queue_wait_ns_query"),
            std::string::npos);
  EXPECT_NE(text.find("dissodb_scheduler_run_ns_query"), std::string::npos);

  // Registry-homed EngineStats agree with the registry.
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.batch_queries, 2u);
  EXPECT_GT(stats.tasks_executed, 0u);
}

TEST(EngineTraceTest, SchedulerQueueWaitHistogramsPopulate) {
  Database db = RstDatabase();
  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine = QueryEngine::Borrow(db, opts);
  auto prepared = engine.Prepare("q(x) :- R(x), S(x,y), T(y)");
  ASSERT_TRUE(prepared.ok());
  auto results = engine.ExecuteBatch(
      std::vector<PreparedQuery>(4, *prepared));
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  auto snap =
      engine.metrics().histogram("scheduler.queue_wait_ns.query")->Snapshot();
  EXPECT_EQ(snap.count, 4u);  // one queue task per batch execution
  EXPECT_GE(snap.p99(), snap.p50());
  auto run =
      engine.metrics().histogram("scheduler.run_ns.query")->Snapshot();
  EXPECT_EQ(run.count, 4u);
  EXPECT_GT(run.sum, 0u);
}

}  // namespace
}  // namespace dissodb
