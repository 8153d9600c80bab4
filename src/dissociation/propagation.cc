#include "src/dissociation/propagation.h"

#include "src/exec/evaluator.h"

namespace dissodb {

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
