// The propagation score rho(q) (Definition 14) and its per-plan reference.
//
// rho(q) = min over all minimal safe dissociations of P(q^Delta), computed by
// evaluating query plans directly on the original database (Theorem 18) with
// any combination of the paper's three optimizations. For safe queries the
// score equals the exact probability (conservativity). The engine
// (QueryEngine, src/engine/) computes rho(q) under PropagationOptions;
// PlanScore evaluates one given plan.
#ifndef DISSODB_DISSOCIATION_PROPAGATION_H_
#define DISSODB_DISSOCIATION_PROPAGATION_H_

#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/dissociation/minimal_plans.h"
#include "src/exec/ranking.h"
#include "src/query/cq.h"
#include "src/storage/database.h"

namespace dissodb {

/// Evaluation strategy toggles (Section 4). All combinations are valid and
/// produce identical scores; they differ only in runtime.
struct PropagationOptions {
  bool opt1_single_plan = true;       ///< Algorithm 2: one min-plan
  bool opt2_reuse_subplans = true;    ///< Algorithm 3: shared views (needs opt1)
  bool opt3_semijoin_reduction = false;  ///< deterministic semi-join reduction
  PlanEnumOptions enum_opts;          ///< DR/FD schema knowledge
};

/// Evaluates one specific plan and returns its per-answer scores sorted by
/// descending score (Corollary 19: every plan upper-bounds P(q)).
Result<std::vector<RankedAnswer>> PlanScore(
    const Database& db, const ConjunctiveQuery& q, const PlanPtr& plan,
    const std::unordered_map<int, const Table*>& overrides = {});

}  // namespace dissodb

#endif  // DISSODB_DISSOCIATION_PROPAGATION_H_
