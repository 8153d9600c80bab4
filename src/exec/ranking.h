// Answer ranking utilities: turning score relations into ranked lists and
// aligning answer tuples across evaluation methods.
#ifndef DISSODB_EXEC_RANKING_H_
#define DISSODB_EXEC_RANKING_H_

#include <string>
#include <vector>

#include "src/exec/rel.h"
#include "src/storage/snapshot.h"

namespace dissodb {

/// One ranked answer: the head-variable values and a score.
struct RankedAnswer {
  std::vector<Value> tuple;
  double score;
};

/// Extracts answers from a score relation, sorted by descending score
/// (ties broken by tuple value for determinism).
std::vector<RankedAnswer> RankAnswers(const Rel& rel);

/// Aligns `scores` (any order) to the tuple order of `reference`; answers
/// missing from `scores` get `missing_value`. Useful for computing ranking
/// metrics where both rankings must index the same answer set.
std::vector<double> AlignScores(const std::vector<RankedAnswer>& reference,
                                const std::vector<RankedAnswer>& scores,
                                double missing_value = 0.0);

/// Pretty-prints a ranking (string values resolved through `snap`).
std::string RankingToString(const std::vector<RankedAnswer>& ranking,
                            const Snapshot& snap, size_t max_rows = 10);

}  // namespace dissodb

#endif  // DISSODB_EXEC_RANKING_H_
