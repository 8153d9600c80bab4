// Exact probability of monotone DNF formulas by weighted model counting:
// Shannon expansion + independent-component decomposition + memoization +
// absorption. This is the project's substitute for the paper's external
// exact solver (SampleSearch): both compute exact lineage probabilities and
// both degrade with formula treewidth, reproducing the "exact inference does
// not scale" behaviour of Figures 5e-5h.
#ifndef DISSODB_INFER_EXACT_H_
#define DISSODB_INFER_EXACT_H_

#include "src/common/status.h"
#include "src/lineage/formula.h"

namespace dissodb {

struct WmcOptions {
  /// Abort (OutOfRange) after this many recursive calls — mirrors the
  /// paper's practice of computing ground truth only where feasible.
  size_t max_calls = 20'000'000;
};

/// Counters of one ExactDnfProbability call.
struct WmcStats {
  size_t calls = 0;
  size_t memo_hits = 0;
  size_t components_split = 0;
};

/// Exact P(F) for a monotone DNF with independent variables. The
/// `max_calls` budget is this call's own, so concurrent calls never spend
/// each other's. `stats`, if given, receives the call's counters (also
/// when the budget runs out).
Result<double> ExactDnfProbability(const Dnf& f, const WmcOptions& opts = {},
                                   WmcStats* stats = nullptr);

}  // namespace dissodb

#endif  // DISSODB_INFER_EXACT_H_
