#include "src/dissociation/propagation.h"

#include "src/engine/query_engine.h"
#include "src/exec/evaluator.h"

namespace dissodb {

Result<PropagationResult> PropagationScore(
    const Database& db, const ConjunctiveQuery& q,
    const PropagationOptions& opts,
    const std::unordered_map<int, const Table*>& overrides) {
  // One-shot engine without a plan cache: the engine facade owns the
  // pipeline (parse -> plans -> reduction -> evaluation); this remains the
  // paper-facing functional API over it.
  EngineOptions eo;
  eo.propagation = opts;
  eo.plan_cache_capacity = 0;
  QueryEngine engine = QueryEngine::Borrow(db, eo);
  auto r = engine.Run(q, overrides);
  if (!r.ok()) return r.status();
  PropagationResult result;
  result.answers = std::move(r->answers);
  result.nodes_evaluated = r->nodes_evaluated;
  return result;
}

Result<double> PropagationScoreBoolean(const Database& db,
                                       const ConjunctiveQuery& q,
                                       const PropagationOptions& opts) {
  if (!q.IsBoolean()) {
    return Status::InvalidArgument("query has head variables");
  }
  auto r = PropagationScore(db, q, opts);
  if (!r.ok()) return r.status();
  if (r->answers.empty()) return 0.0;
  return r->answers[0].score;
}

Result<std::vector<RankedAnswer>> PlanScore(
    const Database& db, const ConjunctiveQuery& q, const PlanPtr& plan,
    const std::unordered_map<int, const Table*>& overrides) {
  PlanEvaluator ev(db.snapshot(), q);
  for (const auto& [idx, table] : overrides) ev.SetAtomTable(idx, table);
  auto rel = ev.Evaluate(plan);
  if (!rel.ok()) return rel.status();
  return RankAnswers(**rel);
}

}  // namespace dissodb
