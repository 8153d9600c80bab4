// Deterministic query evaluation ("standard SQL" baseline): the distinct
// answer tuples of q on D, ignoring probabilities.
#ifndef DISSODB_EXEC_DETERMINISTIC_H_
#define DISSODB_EXEC_DETERMINISTIC_H_

#include <unordered_map>

#include "src/common/status.h"
#include "src/exec/rel.h"
#include "src/query/cq.h"
#include "src/storage/snapshot.h"

namespace dissodb {

/// Evaluates q deterministically: joins all atoms (greedy order) and
/// projects the distinct head tuples. All scores are 1. Reads the pinned
/// snapshot.
Result<Rel> EvaluateDeterministic(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides = {});

}  // namespace dissodb

#endif  // DISSODB_EXEC_DETERMINISTIC_H_
