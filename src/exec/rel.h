// Intermediate results of plan evaluation: a bag of rows over a set of
// query variables, each row carrying a probability score (and, optionally,
// a second score in lane 2).
#ifndef DISSODB_EXEC_REL_H_
#define DISSODB_EXEC_REL_H_

#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/query/cq.h"
#include "src/storage/columnar.h"

namespace dissodb {

/// \brief Columns are query variables in ascending VarId order (canonical),
/// so relations over the same variable set align positionally.
///
/// Storage is columnar (one shared typed column per variable plus a score
/// column, see ColumnarRows); scans and pass-through operators share input
/// columns zero-copy, and copies are shallow.
///
/// Score lanes: lane 1 is the score column. A relation may also carry a
/// lane-2 column: a second score per row that every operator folds exactly
/// like lane 1 (same rows, same grouping, same fold order), so one
/// evaluation computes two plan scores per answer — the anytime
/// controller's upper bound (lane 1) and oblivious lower bound (lane 2).
/// A relation without a lane 2 of its own scores lane 2 as lane 1; an
/// operator emits lane 2 iff one of its inputs has one.
class Rel : public ColumnarRows {
 public:
  explicit Rel(std::vector<VarId> vars);

  /// Zero-copy constructor: adopts existing columns (one per var, ascending
  /// var order), a score column and an optional lane-2 column without
  /// copying payloads.
  static Rel FromColumns(std::vector<VarId> vars, std::vector<ColumnPtr> cols,
                         WeightsPtr scores, size_t rows,
                         WeightsPtr lane2 = nullptr);

  const std::vector<VarId>& vars() const { return vars_; }
  VarMask var_mask() const { return mask_; }
  int arity() const { return static_cast<int>(vars_.size()); }

  /// Single-lane only.
  void AddRow(std::span<const Value> row, double score) {
    assert(lane2_ == nullptr);
    AppendRowImpl(row, score);
  }

  double Score(size_t r) const { return Weight(r); }
  void SetScore(size_t r, double s) { MutableWeights()->Set(r, s); }

  /// The lane-2 column, or null when this relation has none.
  const WeightsPtr& lane2() const { return lane2_; }
  /// Lane 2 when present, else lane 1.
  const WeightColumn& Lane2OrScores() const {
    return lane2_ != nullptr ? *lane2_ : *weights();
  }

  /// Appends every row of `src` (same variable set, single-lane, like this
  /// relation) to this relation. Sealed chunks of this relation stay
  /// shared; cost is O(src rows).
  void AppendRows(const Rel& src);

  /// Column position of variable `v`, or -1.
  int ColIndex(VarId v) const;

  std::string ToString(const ConjunctiveQuery& q, size_t max_rows = 20) const;

 private:
  std::vector<VarId> vars_;  // ascending
  VarMask mask_ = 0;
  WeightsPtr lane2_;  // null: single-lane
};

/// Renames the variables of `in` through `var_map` (var_map[v] = new id of
/// variable v) and re-sorts the columns into the new ascending-VarId order.
/// Zero-copy: the output shares `in`'s columns and scores. Used by the
/// prepared-query path to map an answer relation computed in canonical
/// variable space back to the caller's variable ids. Lane 2 comes along.
Rel RemapRelVars(const Rel& in, const std::vector<VarId>& var_map);

}  // namespace dissodb

#endif  // DISSODB_EXEC_REL_H_
