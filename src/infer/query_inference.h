// Query-level inference facades: exact probabilities (ground truth), Monte
// Carlo estimates, and the non-probabilistic lineage-size ranking used as a
// baseline throughout Section 5.
#ifndef DISSODB_INFER_QUERY_INFERENCE_H_
#define DISSODB_INFER_QUERY_INFERENCE_H_

#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/exec/ranking.h"
#include "src/infer/exact.h"
#include "src/lineage/lineage.h"
#include "src/query/cq.h"
#include "src/storage/database.h"

namespace dissodb {

/// Exact P(q = a) for every answer, by grounding + weighted model counting.
/// Fails with OutOfRange when a lineage is infeasible within `wmc` budget
/// (the paper computed ground truth only where feasible, too).
Result<std::vector<RankedAnswer>> ExactProbabilities(
    const Database& db, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides = {},
    const WmcOptions& wmc = {});

/// Ranking by lineage size (number of DNF terms), the paper's
/// non-probabilistic baseline.
std::vector<RankedAnswer> LineageSizeRanking(const LineageResult& lineage);

/// Exact per-answer probabilities from an already-computed lineage.
Result<std::vector<RankedAnswer>> ExactFromLineage(
    const LineageResult& lineage, const WmcOptions& wmc = {});

/// MC per-answer estimates from an already-computed lineage.
std::vector<RankedAnswer> McFromLineage(const LineageResult& lineage,
                                        size_t samples, Rng* rng);

/// Size of the largest per-answer lineage (the paper's max[lin]).
size_t MaxLineageSize(const LineageResult& lineage);

}  // namespace dissodb

#endif  // DISSODB_INFER_QUERY_INFERENCE_H_
