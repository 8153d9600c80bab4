// Lineage computation: grounding a query into per-answer DNF formulas over
// base tuples (the "lineage query" of Section 5).
#ifndef DISSODB_LINEAGE_LINEAGE_H_
#define DISSODB_LINEAGE_LINEAGE_H_

#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/lineage/formula.h"
#include "src/query/cq.h"
#include "src/storage/snapshot.h"

namespace dissodb {

/// One base tuple participating in some lineage ("ground variable").
struct GroundTuple {
  int atom_idx;       ///< atom whose table the tuple comes from
  uint32_t row;       ///< row in the table actually scanned for that atom
  double prob;        ///< its probability
  bool deterministic; ///< true when the relation is deterministic
};

/// Lineage of one answer: DNF terms over dense ground-tuple ids.
struct AnswerLineage {
  std::vector<Value> answer;            ///< head-variable values
  std::vector<std::vector<int>> terms;  ///< each term: one id per atom

  size_t Size() const { return terms.size(); }
};

/// Result of grounding a query: the dense ground-tuple table plus one
/// lineage per answer (ordered by answer tuple).
struct LineageResult {
  std::vector<GroundTuple> tuples;
  std::vector<AnswerLineage> answers;

  /// Converts one answer's lineage to a self-contained DNF. Deterministic
  /// (p==1) tuples are dropped from terms — they never affect probability.
  Dnf ToDnf(const AnswerLineage& al) const;

  /// Average number of distinct ground tuples of `atom_idx` per answer term
  /// group, used by the Figure 5l avg[d] analysis.
  double MeanDistinctTuplesOfAtom(const AnswerLineage& al, int atom_idx) const;
};

struct LineageOptions {
  /// Guard against grounding blowup (total satisfying assignments).
  size_t max_total_terms = 50'000'000;
};

/// Grounds q on the pinned snapshot `snap`: the full lineage of every
/// answer. Atoms without an override resolve against `snap`; `overrides`
/// rebinds atoms to filtered tables (pointers must outlive the result's
/// row ids' use).
Result<LineageResult> ComputeLineage(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides = {},
    const LineageOptions& opts = {});

}  // namespace dissodb

#endif  // DISSODB_LINEAGE_LINEAGE_H_
