// Interactive plan explorer: give it a query in datalog syntax and it shows
// the dissociation analysis — hierarchy status, minimal cut-sets, counts,
// all minimal plans with their dissociations, and the combined single plan.
//
//   $ ./plan_explorer 'q(z) :- R(z,x), S(x,y), T(y)'
//   $ ./plan_explorer                      # uses a default 4-chain query
#include <cstdio>
#include <string>

#include "src/dissodb.h"

using namespace dissodb;  // NOLINT: example brevity

int main(int argc, char** argv) {
  std::string text = argc > 1
                         ? argv[1]
                         : "q(x0,x4) :- R1(x0,x1), R2(x1,x2), R3(x2,x3), "
                           "R4(x3,x4)";
  StringPool pool;
  auto q = ParseQuery(text, &pool);
  if (!q.ok()) {
    std::printf("parse error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  std::printf("query:         %s\n", q->ToString().c_str());
  std::printf("atoms:         %d, variables: %d (existential: %d)\n",
              q->num_atoms(), q->num_vars(), MaskCount(q->EVarMask()));
  std::printf("hierarchical:  %s\n", IsHierarchical(*q) ? "yes (safe)"
                                                        : "no (#P-hard)");

  SchemaKnowledge none = SchemaKnowledge::None(*q);
  lift::SafetyAnalysis safety = lift::AnalyzeSafety(*q, none);
  if (safety.safe) {
    std::printf("lifted route:  exact safe plan (Dalvi-Suciu rules; no "
                "dissociation, no plan enumeration)\n");
  } else {
    std::printf("lifted route:  dissociation (%zu unsafe residue%s; "
                "hierarchical subqueries still compile exactly)\n",
                safety.unsafe_residues,
                safety.unsafe_residues == 1 ? "" : "s");
  }
  auto atoms = MakeWorkAtoms(*q, none);
  auto cuts = MinCuts(atoms, q->EVarMask());
  if (cuts.ok()) {
    std::printf("min-cut-sets:  ");
    for (VarMask y : *cuts) {
      std::printf("{");
      bool first = true;
      for (VarId v : MaskToVars(y)) {
        std::printf("%s%s", first ? "" : ",", q->var_name(v).c_str());
        first = false;
      }
      std::printf("} ");
    }
    std::printf("\n");
  }

  auto mp = CountMinimalPlans(*q);
  auto tp = CountTotalPlans(*q);
  auto sd = CountSafeDissociations(*q);
  auto ad = CountAllDissociations(*q);
  std::printf("counts:        #minimal-plans=%llu  #plans(Fig2)=%llu  "
              "#safe-dissociations=%llu  #dissociations=%s\n\n",
              mp.ok() ? (unsigned long long)*mp : 0ULL,
              tp.ok() ? (unsigned long long)*tp : 0ULL,
              sd.ok() ? (unsigned long long)*sd : 0ULL,
              ad.ok() ? std::to_string(*ad).c_str()
                      : ("2^" + std::to_string(DissociationExponent(*q)))
                            .c_str());

  auto plans = EnumerateMinimalPlans(*q);
  if (!plans.ok()) {
    std::printf("plan enumeration failed: %s\n",
                plans.status().ToString().c_str());
    return 1;
  }
  std::printf("minimal plans and their dissociations:\n");
  for (size_t i = 0; i < plans->size() && i < 20; ++i) {
    Dissociation d = ExtractDissociation((*plans)[i], *q);
    std::printf("  P%zu: %s\n      %s\n", i + 1,
                PlanToString((*plans)[i], *q).c_str(),
                d.ToString(*q).c_str());
  }
  if (plans->size() > 20) {
    std::printf("  ... (%zu more)\n", plans->size() - 20);
  }

  auto single = lift::CompileSafePlan(*q, none);
  if (single.ok()) {
    PlanSize sz = MeasurePlan(single->plan);
    std::printf("\ncombined single plan (Opt. 1+2): %zu DAG nodes "
                "(%zu as a tree)\n%s",
                sz.dag_nodes, sz.tree_nodes,
                PlanToTreeString(single->plan, *q).c_str());
  }

  // End-to-end: evaluate the query on a small random instance through the
  // QueryEngine facade.
  Rng rng(7);
  RandomInstanceSpec ispec;
  ispec.max_rows = 6;
  ispec.domain = 4;
  Database db = RandomDatabaseFor(*q, &rng, ispec);
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(*q);
  auto res = prepared.ok() ? engine.Execute(*prepared)
                           : Result<QueryResult>(prepared.status());
  if (res.ok()) {
    std::printf("\nsample evaluation on a random instance "
                "(%zu answers, %zu plan nodes evaluated):\n%s",
                res->answers.size(), res->nodes_evaluated,
                RankingToString(res->answers, db.snapshot(), 5).c_str());
  }

  // Anytime verdict: the same query through the guarantee-aware entry
  // point — safe queries come back exact, unsafe ones certify their top-3
  // order by refining only the answers contesting the rank boundary.
  {
    auto p = engine.Prepare(*q);
    if (p.ok()) {
      GuaranteeSpec gspec;
      gspec.top_k = 3;
      auto any = engine.RunWithGuarantees(*p, {}, gspec);
      if (any.ok()) {
        const char* verdict = AnytimeVerdictName(any->verdict);
        if (any->verdict == AnytimeVerdict::kCertified) {
          std::printf("\nanytime verdict: certified@%zu (refined %zu of %zu "
                      "answers in %zu rounds)\n",
                      any->certified_prefix, any->refined_answers,
                      any->answers.size(), any->refine_rounds);
        } else {
          std::printf("\nanytime verdict: %s (%zu answers)\n", verdict,
                      any->answers.size());
        }
        for (size_t i = 0; i < std::min<size_t>(3, any->answers.size());
             ++i) {
          const auto& a = any->answers[i];
          std::printf("  #%zu p in [%.6f, %.6f]%s\n", i + 1, a.lower,
                      a.upper, a.certified ? "  (certified)" : "");
        }
      }
    }
  }

  // Observability: the same execution traced. The span tree is an
  // EXPLAIN-ANALYZE view of the evaluation — one span per plan node with
  // wall time, row counts, zone-map pruning, cache interactions, and the
  // SIMD path taken; ToChromeJson() of the same trace loads in Perfetto.
  {
    auto p = engine.Prepare(*q);
    auto traced =
        p.ok() ? engine.Execute(*p, Bindings().EnableTrace())
               : Result<QueryResult>(p.status());
    if (traced.ok() && traced->trace != nullptr) {
      std::printf("\ntraced execution (span tree):\n%s",
                  traced->trace->ToText().c_str());
      std::printf("Perfetto: QueryResult::trace->ToChromeJson() (%zu bytes "
                  "here) loads in ui.perfetto.dev / chrome://tracing\n",
                  traced->trace->ToChromeJson().size());
    }
  }

  // Serving path: the same query prepared three times and executed as one
  // batch — the compiled plan comes from the plan cache and the duplicate
  // evaluations are served from the shared subplan result cache. A fourth
  // prepared handle under renamed variables canonicalizes to the same
  // artifact.
  std::vector<PreparedQuery> copies;
  for (int i = 0; i < 3; ++i) {
    auto p = engine.Prepare(*q);
    if (p.ok()) copies.push_back(std::move(*p));
  }
  bool batch_ok = copies.size() == 3;
  for (const auto& r : engine.ExecuteBatch(copies)) batch_ok &= r.ok();
  {
    ConjunctiveQuery renamed;
    renamed.SetName(q->name());
    std::vector<VarId> newid(q->num_vars(), -1);
    for (VarId v = q->num_vars() - 1; v >= 0; --v) {
      newid[v] = renamed.AddVar("r_" + q->var_name(v));
    }
    for (VarId h : q->head_vars()) (void)renamed.AddHeadVar(newid[h]);
    for (int i = 0; i < q->num_atoms(); ++i) {
      Atom atom = q->atom(i);
      for (Term& t : atom.terms) {
        if (t.is_var) t.var = newid[t.var];
      }
      (void)renamed.AddAtom(std::move(atom));
    }
    auto prepared = engine.Prepare(renamed);
    if (prepared.ok()) {
      std::printf("\nprepared handle for a variable-renamed spelling:\n"
                  "  canonical key:  %s\n  plan cache hit: %s, "
                  "answer remap needed: %s\n",
                  prepared->cache_key().c_str(),
                  prepared->from_plan_cache() ? "yes" : "no",
                  prepared->needs_remap() ? "yes" : "no");
    }
  }
  if (batch_ok) {
    EngineStats s = engine.stats();
    std::printf("\nengine stats after Execute + ExecuteBatch{3 copies} + "
                "Prepare:\n");
    std::printf("  queries:            %zu (%zu async), %zu prepares\n",
                s.queries, s.batch_queries, s.prepared_queries);
    std::printf("  plan cache:         %zu hits, %zu misses (LRU); "
                "%zu remapped executions, %zu canonical-remap hits\n",
                s.plan_cache_hits, s.plan_cache_misses, s.canonical_remaps,
                s.canonical_remap_hits);
    std::printf("  result cache:       %zu hits, %zu misses, %zu in-flight "
                "waits, %zu evictions, %zu entries\n",
                s.result_cache_hits, s.result_cache_misses,
                s.result_cache_in_flight_waits, s.result_cache_evictions,
                s.result_cache_entries);
    std::printf("  commit pipeline:    %zu entries delta-maintained across "
                "append-only commits, %zu swept\n",
                s.result_cache_delta_maintained, s.result_cache_swept);
    std::printf("  opt3 reductions:    %zu cached, %zu computed\n",
                s.reduction_cache_hits, s.reduction_cache_misses);
    std::printf("  scheduler tasks:    %zu\n", s.tasks_executed);
    std::printf("  chunked scans:      %zu filtered (%zu parallel), "
                "%zu chunks scanned, %zu pruned by zone maps, "
                "%zu/%zu rows selected\n",
                s.scans.filtered_scans, s.scans.parallel_scans,
                s.scans.chunks_scanned, s.scans.chunks_pruned,
                s.scans.rows_selected, s.scans.rows_scanned);
    std::printf("  semi-joins:         %zu reductions, %zu bloom filters "
                "built, %zu probes skipped\n",
                s.semijoin_reductions, s.bloom_filters_built,
                s.bloom_probes_skipped);
    std::printf("  traces recorded:    %zu\n", s.traces_recorded);
    std::printf("  safe-plan router:   %zu exact-routed, %zu with unsafe "
                "residues\n",
                s.safe_plan_routed, s.safe_plan_unsafe_residue);
    auto compile =
        engine.metrics().histogram("engine.safe_plan.compile_ns")->Snapshot();
    if (compile.count > 0) {
      std::printf("  lifted compiles:    p50=%.0fns max=%lluns over %llu "
                  "compiles\n",
                  compile.p50(), static_cast<unsigned long long>(compile.max),
                  static_cast<unsigned long long>(compile.count));
    }
    auto lat = engine.metrics().histogram("engine.execute_ns")->Snapshot();
    std::printf("  execute latency:    p50=%.0fns p95=%.0fns p99=%.0fns "
                "max=%lluns over %llu executions\n",
                lat.p50(), lat.p95(), lat.p99(),
                static_cast<unsigned long long>(lat.max),
                static_cast<unsigned long long>(lat.count));
  }

  // Prometheus text exposition of the whole registry — counters, gauges,
  // and cumulative-le histogram series, ready for a /metrics endpoint.
  {
    std::string prom = engine.metrics().PrometheusText();
    size_t lines = 0, pos = 0;
    while (lines < 8 && (pos = prom.find('\n', pos)) != std::string::npos) {
      ++pos;
      ++lines;
    }
    std::printf("\nPrometheus exposition (first %zu of %zu bytes):\n%.*s...\n",
                pos, prom.size(), static_cast<int>(pos), prom.c_str());
  }
  return 0;
}
