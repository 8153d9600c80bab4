// Relational operators with extensional probability semantics (Def. 4):
// joins multiply scores, projections-with-duplicate-elimination combine
// scores as 1 - prod(1 - s), and Min merges score-equivalent results.
#ifndef DISSODB_EXEC_OPERATORS_H_
#define DISSODB_EXEC_OPERATORS_H_

#include <vector>

#include "src/common/status.h"
#include "src/exec/rel.h"
#include "src/query/cq.h"
#include "src/storage/snapshot.h"

namespace dissodb {

class Scheduler;  // src/serve/scheduler.h

/// One equality constraint an atom imposes on its table: column `pos` must
/// equal column `other_pos` (repeated variable) or `constant` (other_pos -1).
struct AtomEqCheck {
  int pos;
  int other_pos;
  Value constant;
};

/// How an atom binds to its table: the first table column of each variable
/// (indexed by VarId; -1 when the variable does not occur) plus the equality
/// checks a scan or reduction must apply. Shared by ScanAtom and the
/// semi-join reducer so selection semantics cannot diverge.
struct AtomBinding {
  std::vector<int> first_pos_of_var;
  std::vector<AtomEqCheck> checks;
};
AtomBinding BindAtom(const Atom& atom);

/// In-place filters `sel` down to the rows of `t` satisfying `check`.
void ApplyAtomCheck(const Table& t, const AtomEqCheck& check,
                    std::vector<uint32_t>* sel);

/// Observability counters for the chunked scan path, accumulated per
/// evaluator and surfaced through EngineStats / plan_explorer.
struct ChunkedScanStats {
  size_t filtered_scans = 0;   ///< scans that ran the filtered path
  size_t parallel_scans = 0;   ///< ... of which fanned out chunk morsels
  size_t chunks_scanned = 0;   ///< chunks actually filtered
  size_t chunks_pruned = 0;    ///< chunks skipped entirely via zone maps
  size_t rows_scanned = 0;     ///< rows in the scanned (non-pruned) chunks
  size_t rows_selected = 0;    ///< rows surviving the selection

  void MergeFrom(const ChunkedScanStats& o) {
    filtered_scans += o.filtered_scans;
    parallel_scans += o.parallel_scans;
    chunks_scanned += o.chunks_scanned;
    chunks_pruned += o.chunks_pruned;
    rows_scanned += o.rows_scanned;
    rows_selected += o.rows_selected;
  }
};

/// Scans the table bound to atom `atom_idx`, applying constant selections
/// and repeated-variable equalities, and emitting the atom's distinct
/// variables as columns. The catalog binding resolves against `snap` — an
/// immutable snapshot, so concurrent commits cannot change what a scan
/// reads mid-flight; `table` overrides it (per-query selections and
/// semi-join-reduced inputs).
///
/// The unfiltered scan is zero-copy. The filtered scan is chunk-at-a-time:
/// per-chunk zone maps prune chunks that cannot contain a constant
/// predicate's value, each surviving chunk yields one selection vector,
/// and — with a scheduler and a large enough table — chunks are filtered
/// and output columns assembled in parallel. Per-chunk selections always
/// concatenate in chunk order, so the emitted Rel is bit-identical (row
/// order included) with or without a scheduler. `stats`, if given,
/// accumulates the chunk counters.
///
/// `lane2`, if given, is a second weight per table row (same row count as
/// the table); the scan emits it as the relation's lane 2 — zero-copy when
/// unfiltered, else gathered with lane 1's selection.
Result<Rel> ScanAtom(const Snapshot& snap, const ConjunctiveQuery& q,
                     int atom_idx, const Table* table = nullptr,
                     Scheduler* scheduler = nullptr,
                     ChunkedScanStats* stats = nullptr,
                     WeightsPtr lane2 = nullptr);

/// Delta scan: ScanAtom restricted to table rows >= `begin_row`. It runs
/// the same checks, zone-map rule, chunk filter and gathers, so the emitted
/// rows are exactly the suffix of the full scan's ascending selection that
/// falls in the appended range — the semi-naive delta of an append-only
/// commit. Cost is proportional to the chunks overlapping the appended
/// rows, not the table.
Result<Rel> ScanAtomTail(const Snapshot& snap, const ConjunctiveQuery& q,
                         int atom_idx, size_t begin_row,
                         Scheduler* scheduler = nullptr);

/// Which paths a join took, for trace annotations.
struct JoinPath {
  /// The build side was indexed by a direct-address head array over its
  /// key range instead of a hash index.
  bool dense_index = false;
  /// The output shares the probe's columns instead of gathering them.
  bool probe_cols_reused = false;
};

/// Natural hash join; scores multiply, lane by lane. The smaller input
/// builds, the other probes; output rows come in probe-row order, and each
/// probe row's matches in descending build-row order.
///
/// Dense keys: when the join key is one column, both key columns are
/// type-uniform with one type, and the build column passes
/// DenseIndexRangeFor over the build plus probe rows, the build rows are
/// chained from a direct-address head array over the column's zone-map
/// range. Probes then read each key payload, skip values outside the range
/// and walk the chain, with no hashing, key comparison or Bloom filter.
/// Every other join hashes its keys into one flat index. Both paths emit
/// the same pairs in the same order.
///
/// The build is sequential. With a scheduler and a large enough input, key
/// hashing fans out in chunk-aligned morsels, the probe side is split into
/// row-range morsels, and the output columns are gathered as separate
/// tasks, all on the pool. Morsel outputs concatenate in probe-row order,
/// so results are bit-identical either way.
///
/// Probe-column reuse: when every probe row matches exactly one build row,
/// the output rows are the probe rows in order, so the output shares every
/// probe column (shared keys included — KeysEqual matched type and
/// payload) instead of gathering it; only build-only variables and the
/// scores are assembled. Columns are copy-on-write, so the sharing is as
/// safe as a zero-copy scan's.
///
/// `path` (here and on HashJoinBuildProbe), if given, receives which index
/// the build used and whether the output shares the probe's columns.
Rel HashJoin(const Rel& left, const Rel& right, Scheduler* scheduler = nullptr,
             JoinPath* path = nullptr);

/// HashJoin with the build/probe roles pinned by the caller instead of
/// chosen by size. Delta maintenance joins a tiny appended probe delta
/// against the unchanged build side; letting the size heuristic flip the
/// roles would change the output row order and break bit-identity with the
/// from-scratch join, which probes the full (old + delta) side.
Rel HashJoinBuildProbe(const Rel& build, const Rel& probe,
                       Scheduler* scheduler = nullptr,
                       JoinPath* path = nullptr);

/// Projection with duplicate elimination onto `keep_mask` (must be a subset
/// of the input variables); scores combine independently:
/// s(group) = 1 - prod(1 - s_i), in each lane. Groups come out in
/// first-occurrence order, and each group's scores fold in row order.
///
/// Dense keys: when the kept variables are one column that passes
/// DenseIndexRangeFor over the input rows, a row's group id is read from a
/// direct-address array over the column's zone-map range, assigned at the
/// group's first row. Other keys are hashed and grouped through one flat
/// index. Grouping is sequential on both paths; a scheduler, with a large
/// enough input, fans out only the key hashing and the gathers of the
/// output columns. Both paths produce the same groups and score bits.
///
/// `raw_acc_out`, if given, receives the per-group complement products
/// before finalization (acc_g = prod(1 - s_i)); delta maintenance stores
/// them so appended rows can continue each group's sequential fold exactly
/// where the from-scratch evaluation would. Only populated on the grouped
/// path (keep_mask != 0 or empty input). `dense_grouping`, if given,
/// receives whether the grouped path took the dense array.
Rel ProjectIndependent(const Rel& in, VarMask keep_mask,
                       Scheduler* scheduler = nullptr,
                       std::vector<double>* raw_acc_out = nullptr,
                       bool* dense_grouping = nullptr);

/// Deterministic projection: distinct rows, scores forced to 1.
Rel ProjectDistinct(const Rel& in, VarMask keep_mask,
                    Scheduler* scheduler = nullptr);

/// Per-row minimum across score-equivalent inputs (same variable sets and,
/// for plans of the same query, the same row sets), taken per lane. Rows
/// present in only some inputs keep the minimum over the inputs containing
/// them.
Result<Rel> MinMerge(const std::vector<Rel>& inputs);

}  // namespace dissodb

#endif  // DISSODB_EXEC_OPERATORS_H_
