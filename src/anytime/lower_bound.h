// Symmetric lower bounds from oblivious weight scaling.
//
// The dissociation plans give per-answer *upper* bounds: each minimal plan
// P with induced dissociation Delta_P treats the d distinct dissociated
// copies of a tuple as independent events with the tuple's own probability
// p, which can only raise the score (Theorem 12). Rescaling every weight to
// p' = 1 - (1-p)^(1/d) makes those d independent copies *jointly* as likely
// as the original tuple (1 - (1-p')^d = p), so the same plan over the
// rescaled weights computes the probability of a query that is implied by
// q — a lower bound on P(q). This is the symmetric instance of the
// oblivious-bounds framework (Gatterbauer & Suciu, "Oblivious bounds on
// the probability of Boolean functions", TODS 2014; Section 6.3 of the
// VLDB'15 paper points to it): it needs only a per-relation exponent, no
// per-tuple bookkeeping.
//
// One evaluation, two lanes: the rescaled weights differ from the stored
// ones only in value, never in which rows a plan reads, groups or joins.
// So the anytime controller hands them to the evaluator as score lane 2
// (src/exec/rel.h) and evaluates the plans once; every operator folds the
// lower bound beside the upper bound with the same selection, grouping and
// fold order, which makes lane 2 bit-identical to a second evaluation over
// rescaled tables.
//
// Soundness needs d_i >= the number of dissociated copies any tuple of
// atom i actually has, i.e. the product of active-domain sizes of the
// atom's extra variables. Over-estimating d only loosens the bound (p'
// shrinks monotonically in d, and plan scores are monotone in the input
// probabilities), so we take, per atom, the union of extra variables over
// *all* compiled plans (including every Min branch) and exact — not
// hash-approximate — active-domain counts. A column holding values of
// several types counts (type, payload) pairs: the Int64 1 and the string
// code 1 are two values.
//
// "No table copies": the transform touches only a shallow (copy-on-write)
// copy of an atom's weight column; payload columns are never copied.
#ifndef DISSODB_ANYTIME_LOWER_BOUND_H_
#define DISSODB_ANYTIME_LOWER_BOUND_H_

#include <vector>

#include "src/exec/evaluator.h"
#include "src/plan/plan.h"
#include "src/query/cq.h"
#include "src/storage/columnar.h"
#include "src/storage/snapshot.h"

namespace dissodb {

/// Per-atom dissociation exponents d_i for the compiled plans of `q`:
/// the product of exact active-domain sizes of every extra variable any
/// plan attaches to atom i (1.0 for undissociated atoms), clamped to
/// [1, 1e15]. `overrides` (canonical atom index space) substitute the
/// tables used both for counting and, later, for evaluation. Each count
/// reads the column's chunk spans: a bitmap over a narrow zone-map range
/// (DenseRangeFor), else a hash of the values.
std::vector<double> ObliviousExponents(const Snapshot& snap,
                                       const ConjunctiveQuery& q,
                                       const CompiledPlans& compiled,
                                       const AtomOverrides& overrides);

/// Lane-2 weights for the oblivious lower bound, one entry per atom: for
/// an atom with d_i > 1 bound to a non-empty probabilistic table, a
/// shallow copy of that table's weight column rescaled to
/// p' = 1 - (1-p)^(1/d_i) (bit-identical to
/// Table::DissociateProbabilitiesObliviously); null for every other atom,
/// whose lane 2 is then its lane 1. `exponents` must come from
/// ObliviousExponents (or be elementwise >= it).
std::vector<WeightsPtr> ObliviousLowerWeights(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const AtomOverrides& overrides, const std::vector<double>& exponents);

}  // namespace dissodb

#endif  // DISSODB_ANYTIME_LOWER_BOUND_H_
