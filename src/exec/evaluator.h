// Plan evaluation with extensional (score) semantics.
//
// The evaluator caches results by DAG node identity, so hash-consed shared
// subplans (Opt. 2, the paper's views) are computed exactly once. A second,
// optional cache level — the serving layer's shared ResultCache — extends
// the same sharing across queries: nodes whose fingerprints match a
// previously evaluated (and still version-current) subplan are served from
// the cache instead of recomputed.
#ifndef DISSODB_EXEC_EVALUATOR_H_
#define DISSODB_EXEC_EVALUATOR_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/exec/operators.h"
#include "src/exec/rel.h"
#include "src/obs/trace.h"
#include "src/plan/plan.h"
#include "src/query/cq.h"
#include "src/storage/snapshot.h"

namespace dissodb {

struct DeltaRecipe;  // src/serve/delta_maintenance.h
class ResultCache;   // src/serve/result_cache.h
class Scheduler;     // src/serve/scheduler.h

/// One per-atom table override. An empty `tag` means the table's content is
/// not identified by anything stable, so subplans touching the atom must
/// not be exchanged with the shared result cache. A non-empty tag asserts:
/// two executions presenting the same tag for the same atom bind *identical
/// table contents* — which makes bound subplans fingerprintable (the tag
/// joins the subplan fingerprint) and restores cross-query sharing, e.g.
/// for Opt. 3 semi-join-reduced inputs tagged by (query, db version).
struct AtomOverride {
  const Table* table = nullptr;
  std::string tag;
};

/// Per-atom overrides in deterministic (ascending atom index) order.
using AtomOverrides = std::map<int, AtomOverride>;

/// \brief Evaluates plans for one query over one pinned snapshot.
class PlanEvaluator {
 public:
  /// Evaluates against the pinned snapshot: every scan of every plan node
  /// reads the same immutable state, so results are bit-identical no
  /// matter how many commits run concurrently. The evaluator keeps its own
  /// (cheap) Snapshot handle, so the caller's copy may go away.
  PlanEvaluator(Snapshot snap, const ConjunctiveQuery& q)
      : snap_(std::move(snap)), q_(q) {}

  /// Overrides the table bound to `atom_idx` (per-query selections or
  /// semi-join-reduced inputs). The pointer must outlive the evaluator.
  /// With an empty `tag`, subplans touching the atom are never exchanged
  /// with the shared result cache; a non-empty tag makes them shareable
  /// under fingerprint+tag (see AtomOverride).
  void SetAtomTable(int atom_idx, const Table* table, std::string tag = {}) {
    overrides_[atom_idx] = AtomOverride{table, std::move(tag)};
    if (atom_idx >= 0 && atom_idx < 64) {
      const uint64_t bit = uint64_t{1} << atom_idx;
      override_atoms_ |= bit;
      if (overrides_[atom_idx].tag.empty()) {
        untagged_override_atoms_ |= bit;
      } else {
        untagged_override_atoms_ &= ~bit;
      }
    }
  }

  /// Attaches the workload-shared result cache. `db_version` must be the
  /// version of the snapshot (Snapshot::version()) the evaluation runs
  /// against; entries are stored and matched under that stamp, so a held
  /// snapshot keeps hitting its own entries across later commits. Entries
  /// this evaluator publishes for maintainable root shapes —
  /// project(scan), project(join(scan, scan)), join(scan, scan), no
  /// overridden atoms, non-boolean projections — carry a DeltaRecipe so the
  /// serving layer can roll them forward across append-only commits (see
  /// src/serve/delta_maintenance.h).
  void SetResultCache(ResultCache* cache, uint64_t db_version) {
    result_cache_ = cache;
    db_version_ = db_version;
  }

  /// Attaches a scheduler: the vectorized operators fan large row ranges
  /// out as morsels. Results are bit-identical with or without it.
  void SetScheduler(Scheduler* scheduler) { scheduler_ = scheduler; }

  /// Turns on score lane 2 (see Rel): `lane2[i]` weighs the rows of the
  /// table bound to atom i (a null entry, or an atom past the end, scores
  /// lane 2 as lane 1), and every operator folds both lanes through the
  /// one evaluation. Lane-2 scores are part of no fingerprint, so
  /// Evaluate refuses to run with both lane 2 and a result cache.
  void SetLane2Weights(std::vector<WeightsPtr> lane2) {
    lane2_ = std::move(lane2);
  }

  /// Attaches a trace context: every Evaluate call opens one span (named
  /// by node kind, scans by relation) under `parent`, annotated with row
  /// counts, chunk-pruning deltas, cache interactions, and the SIMD path.
  /// Null (the default) keeps evaluation on the untraced fast path — the
  /// only cost is one branch per node.
  void SetTrace(obs::TraceContext* trace, uint32_t parent) {
    trace_ = trace;
    trace_parent_ = parent;
  }

  /// Evaluates `plan`; results of shared nodes are cached by node identity
  /// for the lifetime of the evaluator. InvalidArgument when both lane 2
  /// and a result cache are set.
  Result<std::shared_ptr<const Rel>> Evaluate(const PlanPtr& plan);

  /// Number of plan-node evaluations actually executed (cache misses).
  size_t nodes_evaluated() const { return nodes_evaluated_; }

  /// Nodes served from the shared result cache instead of evaluated —
  /// plain hits plus results obtained by waiting on a concurrent
  /// evaluation of the same fingerprint (in-flight dedup).
  size_t result_cache_hits() const { return result_cache_hits_; }

  /// Chunked-scan counters accumulated over every ScanAtom this evaluator
  /// executed (zone-map pruning, chunk morsels).
  const ChunkedScanStats& scan_stats() const { return scan_stats_; }

 private:
  /// Result-cache key for `plan`: base fingerprint plus the tags of every
  /// overridden atom the subplan touches.
  std::string SharedCacheKey(const PlanPtr& plan);

  /// Evaluate() body past the node-identity memo: result-cache exchange
  /// plus the operator switch. `span` is the node's open trace span (0
  /// when untraced).
  Result<std::shared_ptr<const Rel>> EvaluateUncached(const PlanPtr& plan,
                                                      uint32_t span);

  /// Span label for `plan` ("scan R", "join", "project", "min").
  std::string NodeLabel(const PlanPtr& plan) const;

  /// Builds the maintenance recipe for `plan` (a maintainable shape whose
  /// result `rel` this evaluator just computed): captures a copy of the
  /// executed query, the scan-input sizes from the node-identity memo,
  /// and — for projections — the raw per-group accumulators `acc`.
  /// Returns null when the node turns out non-maintainable (boolean
  /// projection, missing memo entries).
  std::shared_ptr<const DeltaRecipe> BuildDeltaRecipe(
      const PlanPtr& plan, const std::shared_ptr<const Rel>& rel,
      std::vector<double>&& acc);

  Snapshot snap_;
  const ConjunctiveQuery& q_;
  AtomOverrides overrides_;
  uint64_t override_atoms_ = 0;
  uint64_t untagged_override_atoms_ = 0;
  std::unordered_map<const PlanNode*, std::shared_ptr<const Rel>> cache_;
  std::unordered_map<const PlanNode*, std::string> fingerprint_memo_;
  size_t nodes_evaluated_ = 0;
  size_t result_cache_hits_ = 0;
  ChunkedScanStats scan_stats_;
  ResultCache* result_cache_ = nullptr;
  uint64_t db_version_ = 0;
  Scheduler* scheduler_ = nullptr;
  std::vector<WeightsPtr> lane2_;  ///< empty: single-lane evaluation
  obs::TraceContext* trace_ = nullptr;
  uint32_t trace_parent_ = 0;  ///< parent for the next span Evaluate opens
};

/// Evaluates each plan independently (no sharing) and min-merges the
/// per-answer scores: the naive "evaluate all minimal plans" strategy that
/// Opt. 1-3 improve upon. `scan_stats`, if given, accumulates the chunked
/// scan counters across all per-plan evaluators. All plans read the one
/// pinned snapshot. When `trace` is given, each plan evaluates under its
/// own "plan k" span (parent `trace_parent`) followed by a "min-merge"
/// span. A non-empty `lane2` turns on score lane 2 in every per-plan
/// evaluator (see PlanEvaluator::SetLane2Weights); the min-merge then takes
/// the minimum per lane.
Result<Rel> EvaluatePlansSeparately(const Snapshot& snap,
                                    const ConjunctiveQuery& q,
                                    const std::vector<PlanPtr>& plans,
                                    const AtomOverrides& overrides = {},
                                    ChunkedScanStats* scan_stats = nullptr,
                                    obs::TraceContext* trace = nullptr,
                                    uint32_t trace_parent = 0,
                                    const std::vector<WeightsPtr>& lane2 = {});

/// What EvaluatePlans computed: the answer relation (the query's
/// variable space) and the work it took.
struct EvaluatedPlans {
  Rel rel;
  /// Plan-DAG nodes evaluated; for the minimal plans, their tree sizes.
  size_t nodes_evaluated = 0;
  /// Nodes served from the result cache (single plan only).
  size_t result_cache_hits = 0;
  ChunkedScanStats scans;
};

/// The evaluate stage of every engine execution (QueryEngine::Execute,
/// Submit, and the anytime controller's bounds): the single min-plan
/// through one PlanEvaluator, or every minimal plan through
/// EvaluatePlansSeparately, over `snap` with `overrides` (atom indices of
/// `q`). A null `scheduler` runs sequentially. `result_cache` (single plan
/// only; nullptr = none) exchanges subplans, with their delta recipes,
/// under snap.version(). A non-empty `lane2` turns on score
/// lane 2; with a result cache too, evaluation fails with InvalidArgument.
/// Spans go under `trace_parent` when `trace` is non-null.
Result<EvaluatedPlans> EvaluatePlans(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const CompiledPlans& compiled, const AtomOverrides& overrides,
    Scheduler* scheduler, ResultCache* result_cache,
    const std::vector<WeightsPtr>& lane2, obs::TraceContext* trace,
    uint32_t trace_parent);

}  // namespace dissodb

#endif  // DISSODB_EXEC_EVALUATOR_H_
