// The anytime controller: staged escalation from dissociation bounds to
// certified exactness.
//
//   1. Safe query?  The compiled plan's scores are exact probabilities —
//      point intervals, everything certified, done (verdict kExact).
//   2. Bounds (unconditional, even under an already-expired deadline):
//      the dissociation plans give per-answer upper bounds; the same plans
//      over obliviously rescaled weights give lower bounds
//      (src/anytime/lower_bound.h). One evaluation computes both: the
//      rescaled weights ride as score lane 2 (src/exec/rel.h). Every
//      answer now carries [lower, upper].
//   3. Guarantees requested and not yet met?  Ground the lineage once
//      against the pinned snapshot, then refine in rounds: interval
//      ranking picks only the answers whose intervals still contest a rank
//      boundary or exceed the width budget (src/anytime/interval_rank.h);
//      each gets exact WMC when its lineage fits the budget, else an
//      incremental MC batch. Rounds run as cancellable Scheduler tasks —
//      an expired deadline skips queued tasks and discards in-flight
//      batches whole, and the round barrier always joins before returning
//      (no leaked workers).
//   4. Terminate as soon as the top-k order is certified / every width is
//      within epsilon (kCertified), the refinement budget dries up
//      (kBoundsOnly), or the deadline fires (kBoundsOnly, deadline_hit).
//
// Determinism: refinement is bit-reproducible across thread counts and
// scheduling orders. Each answer's round-r batch draws from an Rng seeded
// by (plan fingerprint, answer key, r); batches either fold in whole or
// not at all; and intervals are folded into the ranking only at the round
// barrier, on the controller thread.
#ifndef DISSODB_ANYTIME_CONTROLLER_H_
#define DISSODB_ANYTIME_CONTROLLER_H_

#include <vector>

#include "src/anytime/anytime.h"
#include "src/common/status.h"
#include "src/exec/evaluator.h"
#include "src/obs/trace.h"
#include "src/plan/plan.h"
#include "src/query/cq.h"
#include "src/serve/scheduler.h"
#include "src/storage/snapshot.h"

namespace dissodb {

/// Everything RunAnytime needs from the engine layer. The query must be
/// the *executed* one: canonical variable space, parameters already
/// substituted. `overrides` use canonical atom indices. All pointers must
/// outlive the call.
struct AnytimeInput {
  Snapshot snap;
  const ConjunctiveQuery* query = nullptr;
  const CompiledPlans* compiled = nullptr;
  AtomOverrides overrides;
  /// Canonical -> caller variable ids (RemapRelVars convention); nullptr
  /// when the canonicalization was the identity. Answers are reported in
  /// caller variable order, matching QueryEngine::Execute.
  const std::vector<VarId>* var_map = nullptr;
  Scheduler* scheduler = nullptr;  ///< nullptr = refine inline on the caller
  obs::TraceContext* trace = nullptr;
  uint32_t trace_parent = 0;
};

struct AnytimeOutput {
  /// Sorted by descending point score (ties: ascending tuple) — the same
  /// convention as QueryResult::answers, so certified prefixes are
  /// positionally comparable to exact rankings.
  std::vector<BoundedAnswer> answers;
  AnytimeVerdict verdict = AnytimeVerdict::kBoundsOnly;
  AnytimeStats stats;
  /// Per-atom oblivious exponents d_i used for the lower bound (empty on
  /// the safe-exact route). Exposed for tests and plan exploration.
  std::vector<double> exponents;
  /// The bounds evaluation's plan nodes and scan counters.
  size_t nodes_evaluated = 0;
  ChunkedScanStats scans;
};

Result<AnytimeOutput> RunAnytime(const AnytimeInput& in,
                                 const GuaranteeSpec& spec);

}  // namespace dissodb

#endif  // DISSODB_ANYTIME_CONTROLLER_H_
