// Lifted safe-plan compiler and safety analyzer (Dalvi–Suciu dichotomy):
// the engine's one Opt. 1 compile path.
//
// Optimizations 1 & 2 (Section 4): one single plan computes the propagation
// score, with the min operator pushed down into the leaves (Algorithm 2) and
// common subplans shared as DAG nodes (Algorithm 3's views). Without subplan
// reuse the plan is a tree (Figure 4b); with reuse it is a DAG (Figure 4c).
//
// Hierarchical queries have exact PTIME extensional plans (Theorem 2): the
// classic lifted rules — independent join (connected components),
// independent project (separator variables), base atom — compile them
// directly, with no cut-set enumeration and no plan lattice. This module
// implements that recursion over work atoms, generalized with the paper's
// Section 3.3 schema knowledge (deterministic relations, FD chase), and
// extends it to *unsafe* queries: the rules are applied as far as they
// reach (hierarchical subqueries compile exactly), and only the genuinely
// unsafe residues fall back to dissociation's min-over-minimal-cuts.
//
// The separator rule only short-circuits where the separator set provably
// *is* the unique minimal (p-)cut — every cut-set must contain the full
// separator set (a remaining separator variable keeps all (probabilistic)
// atoms connected), so if removing it disconnects the atoms, {separator
// set} is the one minimal cut and Min-over-cuts collapses to a plain
// projection. Consequence: the emitted plan is bit-identical to the plain
// Min-over-cuts recursion of Algorithm 2 (kept as a test reference in
// tests/reference_ops.h), safe levels skip the Gosper subset scan
// entirely, and `exact` holds iff Algorithm 1 would return a single
// minimal plan (Theorem 20 / Corollary 28) — so callers that want the
// plan count call EnumerateMinimalPlans themselves.
#ifndef DISSODB_LIFT_SAFE_PLAN_H_
#define DISSODB_LIFT_SAFE_PLAN_H_

#include "src/common/status.h"
#include "src/dissociation/minimal_plans.h"
#include "src/plan/plan.h"
#include "src/query/analysis.h"
#include "src/query/cq.h"

namespace dissodb {
namespace lift {

struct LiftOptions {
  /// Memoize subproblems by (atom set, head) so shared subplans come out as
  /// one DAG node (Opt. 2).
  bool reuse_common_subplans = true;
  /// Which schema knowledge the rules may exploit (Section 3.3).
  PlanEnumOptions enum_opts;
};

/// Result of a lifted compilation.
struct LiftedPlan {
  PlanPtr plan;
  /// True iff every recursion level resolved by a lifted rule: the plan is
  /// the unique safe plan and its score is the exact probability
  /// (Corollary 28). False as soon as one residue needed dissociation.
  bool exact = false;
  /// Distinct subproblems where no lifted rule applied and the compiler
  /// fell back to Min over minimal cut-sets (dissociation upper bounds).
  size_t unsafe_residues = 0;
  /// Recursion levels resolved by the separator rule (each one skips a
  /// full cut-set enumeration).
  size_t separator_shortcuts = 0;
};

/// Compiles `q` with the lifted rules, falling back to dissociation only at
/// unsafe residues. The emitted plan is Algorithm 2's single min-plan.
Result<LiftedPlan> CompileSafePlan(const ConjunctiveQuery& q,
                                   const SchemaKnowledge& sk,
                                   const LiftOptions& opts = {});

/// Safety verdict without building a plan (and without ever enumerating
/// cut-sets — unlike IsSafeQuery, which runs Algorithm 1).
struct SafetyAnalysis {
  /// True iff the lifted rules resolve every level: the query is safe given
  /// the knowledge and has an exact extensional plan.
  bool safe = false;
  /// Stuck subproblems at the recursion frontier (0 iff safe). Unlike
  /// LiftedPlan::unsafe_residues this does not descend into cut branches.
  size_t unsafe_residues = 0;
};
SafetyAnalysis AnalyzeSafety(const ConjunctiveQuery& q,
                             const SchemaKnowledge& sk,
                             const PlanEnumOptions& opts = {});

}  // namespace lift
}  // namespace dissodb

#endif  // DISSODB_LIFT_SAFE_PLAN_H_
