// Public facade: the propagation score rho(q) (Definition 14).
//
// rho(q) = min over all minimal safe dissociations of P(q^Delta), computed by
// evaluating query plans directly on the original database (Theorem 18) with
// any combination of the paper's three optimizations. For safe queries the
// score equals the exact probability (conservativity).
#ifndef DISSODB_DISSOCIATION_PROPAGATION_H_
#define DISSODB_DISSOCIATION_PROPAGATION_H_

#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/dissociation/minimal_plans.h"
#include "src/exec/ranking.h"
#include "src/exec/rel.h"
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

struct PropagationResult {
  /// Answers sorted by descending propagation score.
  std::vector<RankedAnswer> answers;
  /// Plan-DAG nodes actually evaluated (shows Opt. 2 sharing).
  size_t nodes_evaluated = 0;
};

/// Computes rho(q) for every answer tuple. `overrides` optionally rebinds
/// atoms to filtered tables (per-query selections); pointers must stay alive
/// during the call.
Result<PropagationResult> PropagationScore(
    const Database& db, const ConjunctiveQuery& q,
    const PropagationOptions& opts = {},
    const std::unordered_map<int, const Table*>& overrides = {});

/// Boolean-query convenience: rho(q) as a single number (1 row, empty head).
/// Returns 0 when the query has no satisfying assignment.
Result<double> PropagationScoreBoolean(
    const Database& db, const ConjunctiveQuery& q,
    const PropagationOptions& opts = {});

/// Evaluates one specific plan and returns its per-answer scores sorted by
/// descending score (Corollary 19: every plan upper-bounds P(q)).
Result<std::vector<RankedAnswer>> PlanScore(
    const Database& db, const ConjunctiveQuery& q, const PlanPtr& plan,
    const std::unordered_map<int, const Table*>& overrides = {});

}  // namespace dissodb

#endif  // DISSODB_DISSOCIATION_PROPAGATION_H_
