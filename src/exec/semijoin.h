// Optimization 3 (Section 4.3): deterministic semi-join reduction.
//
// Before any probabilistic evaluation, every input relation is reduced to
// the tuples that can participate in some full join of the query. Removed
// tuples appear in no lineage (of q or of any dissociation q^Delta, whose
// joins are strictly finer), so all plan scores are unchanged while the
// expensive probabilistic group-bys see far fewer rows.
//
// Each pairwise semi-join a ⋉ b takes one of two paths, chosen from what
// the inputs show:
//   - dense: the pair shares one variable, both key columns are
//     type-uniform with one type, and b's payload range hi - lo (from its
//     chunk zone maps, unsigned raw bits) is below 2^22 with no more
//     bitmap words than the pair has rows. b sets one bit per value in a
//     bitmap over [lo, hi]; a streams past it and keeps each row whose bit
//     is set. Dense integer ids and dictionary-coded strings qualify.
//   - hashed: every other pair (doubles, wide or zero-straddling integers,
//     multi-column keys, mixed-type columns) hashes both sides, indexes b,
//     and probes a, with a blocked Bloom pre-filter in front of build
//     sides of at least 4096 rows.
// Both keep exactly the rows of a whose key equals some key of b, in
// ascending order.
#ifndef DISSODB_EXEC_SEMIJOIN_H_
#define DISSODB_EXEC_SEMIJOIN_H_

#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/query/cq.h"
#include "src/storage/snapshot.h"

namespace dissodb {

struct SemiJoinStats {
  std::vector<size_t> rows_before;
  std::vector<size_t> rows_after;
  /// Pairwise semi-joins run, and the build-side rows they indexed in
  /// total (each run indexes its build side's current rows once, into a
  /// bitmap or a hash index).
  size_t semijoins = 0;
  size_t build_rows = 0;
  /// Semi-joins answered by the dense bitmap path, and the probe plus
  /// build rows the hash path hashed (the dense path hashes none).
  size_t dense_semijoins = 0;
  size_t hashed_rows = 0;
  /// Build sides large enough to get a blocked Bloom pre-filter, and probe
  /// rows the filter rejected without touching the hash index. The filter
  /// has no false negatives, so it never changes which rows survive.
  size_t bloom_filters_built = 0;
  size_t bloom_probes_skipped = 0;
};

/// Pairwise semi-join reduction to fixpoint: removes from each atom's table
/// the tuples with no match in some other atom on their shared variables,
/// until no pair removes anything. Returns one reduced table per atom, rows
/// in their input order. Pairs run from a worklist, most selective build
/// side first (current rows over the relation's catalog rows), and a pair
/// reruns only after its build side shrank, so big relations are indexed
/// only once the selective bindings have pruned them. Each ordered pair
/// runs at most 4 times; below that cap the result is the unique pairwise
/// fixpoint, whatever the order (a dangling tuple at one end of a chain
/// cascades through every atom, so no fixed number of passes suffices).
/// Catalog bindings resolve against the pinned snapshot `snap`, so a
/// reduction is internally consistent no matter how many commits run
/// concurrently.
Result<std::vector<Table>> SemiJoinReduce(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides = {},
    SemiJoinStats* stats = nullptr);

}  // namespace dissodb

#endif  // DISSODB_EXEC_SEMIJOIN_H_
