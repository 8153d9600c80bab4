// Query plan AST (Definition 4, extended).
//
// Grammar from the paper:  P ::= R(x) | pi_x P | Join[P1..Pk]
// plus two extensions used by the multi-query optimizations of Section 4:
//   Min[P1..Pk]  — per-answer minimum of sub-plan scores (Opt. 1), and
//   DAG sharing  — identical subplans are hash-consed so the evaluator
//                  computes them once (Opt. 2, "views").
//
// Scan leaves may carry *virtual* (dissociated) variables: the relation is
// scanned as-is, but the variables participate in the plan's join structure.
// This realizes Theorem 18: evaluating the plan on the original database
// yields exactly P(q^Delta) without materializing the dissociated instance.
#ifndef DISSODB_PLAN_PLAN_H_
#define DISSODB_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/query/cq.h"

namespace dissodb {

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// \brief One node of a plan DAG.
struct PlanNode {
  enum class Kind { kScan, kProject, kJoin, kMin };

  Kind kind;
  /// Output variables, including virtual (dissociated) ones.
  VarMask head = 0;

  // kScan only:
  int atom_idx = -1;       ///< atom index in the originating query
  VarMask extra_vars = 0;  ///< dissociated variables attached to this leaf

  // kProject (1 child), kJoin / kMin (>= 2 children):
  std::vector<PlanPtr> children;
};

/// Creates a scan leaf for atom `atom_idx` with variables `atom_vars` plus
/// dissociated `extra_vars`; head = atom_vars | extra_vars.
PlanPtr MakeScan(int atom_idx, VarMask atom_vars, VarMask extra_vars = 0);

/// Creates a projection-with-duplicate-elimination onto `head`.
/// `head` must be a subset of the child's head.
PlanPtr MakeProject(VarMask head, PlanPtr child);

/// Creates a natural join; head = union of child heads.
PlanPtr MakeJoin(std::vector<PlanPtr> children);

/// Creates a per-answer minimum over score-equivalent subplans (Opt. 1).
/// All children must share the same head.
PlanPtr MakeMin(std::vector<PlanPtr> children);

/// True iff every join in the plan has children with identical heads
/// (Definition 5), ignoring `head_vars` (the query's head variables act as
/// per-answer constants). Safe plans compute exact probabilities
/// (Proposition 6).
///
/// `det_atoms` (bitmask of atom indices known deterministic) relaxes the
/// join rule for the deterministic refinement: a child whose scans are all
/// deterministic is a probability-1 existence filter, so it may
/// broadcast-join against the common probabilistic head with any subset of
/// it — the plan stays exact. Such children still must not introduce
/// variables outside that head (aggregating a probabilistic subscore once
/// per deterministic row would double-count it).
bool IsSafePlan(const PlanPtr& plan, VarMask head_vars = 0,
                uint64_t det_atoms = 0);

/// Atoms referenced below `plan` (set of atom indices as a bitmask).
uint64_t PlanAtomSet(const PlanPtr& plan);

/// Number of distinct nodes in the DAG and in the expanded tree.
struct PlanSize {
  size_t dag_nodes;
  size_t tree_nodes;
};
PlanSize MeasurePlan(const PlanPtr& plan);

/// Canonical structural key: equal strings iff plans are structurally equal
/// up to join/min child order. Used for deduplication in tests and for
/// hash-consing.
std::string CanonicalKey(const PlanPtr& plan);

/// Query-independent fingerprint for the workload-level result cache
/// (serving layer). Unlike CanonicalKey, scan leaves are rendered through
/// the query: relation name plus the full term pattern (variable ids and
/// constants), so the fingerprint pins down exactly which relation is
/// scanned and which selections apply. Child order is preserved (not
/// sorted): equal fingerprints guarantee the evaluator performs the
/// identical computation and produces a bit-identical Rel on the same
/// database version, which is what makes cached results safe to share
/// across queries. Plans from queries that name the same subexpression
/// with different variable ids fingerprint differently and simply don't
/// share — a sound under-approximation.
///
/// `memo` (keyed by node identity) makes repeated fingerprinting of a DAG
/// linear: the evaluator fingerprints every node it visits, and without
/// memoization each parent would re-render all of its children's strings.
std::string PlanFingerprint(
    const PlanPtr& plan, const ConjunctiveQuery& q,
    std::unordered_map<const PlanNode*, std::string>* memo = nullptr);

/// The compiled form of a query: either the single min-plan (Opt. 1) or the
/// list of minimal plans evaluated separately. Immutable and shared between
/// the engine's plan cache and every PreparedQuery handle derived from it.
struct CompiledPlans {
  PlanPtr single_plan;           // non-null iff opt1_single_plan
  std::vector<PlanPtr> plans;    // used when opt1 is off
  /// True iff the query is safe given the schema knowledge (Corollary 28):
  /// the compiled plan's scores are exact probabilities, not upper bounds.
  /// Under Opt. 1 it is the lifted compiler's verdict (src/lift/); with
  /// Opt. 1 off, a single minimal plan. The two always agree.
  bool exact = false;
};

}  // namespace dissodb

#endif  // DISSODB_PLAN_PLAN_H_
