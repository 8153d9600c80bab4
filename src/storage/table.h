// Columnar in-memory table with per-tuple probabilities.
#ifndef DISSODB_STORAGE_TABLE_H_
#define DISSODB_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/storage/columnar.h"
#include "src/storage/schema.h"

namespace dissodb {

/// \brief A tuple-independent probabilistic relation.
///
/// Storage is column-major: one typed 64-bit payload array per attribute
/// plus a parallel probability column (see ColumnarRows). Deterministic
/// relations keep probabilities pinned at 1. Copies are shallow — columns
/// are shared with copy-on-write, so passing tables around is cheap and
/// scans can reference table columns zero-copy.
class Table : public ColumnarRows {
 public:
  explicit Table(RelationSchema schema) : schema_(std::move(schema)) {
    InitCols(schema_.arity());
    for (int c = 0; c < schema_.arity(); ++c) {
      *cols_[c] = Column(schema_.column_types[c]);
    }
  }

  const RelationSchema& schema() const { return schema_; }

  int arity() const { return schema_.arity(); }

  /// Appends a row; `row.size()` must equal arity. Deterministic relations
  /// force p = 1.
  void AddRow(std::span<const Value> row, double p = 1.0) {
    AppendRowImpl(row, schema_.deterministic ? 1.0 : p);
  }
  void AddRow(std::initializer_list<Value> row, double p = 1.0) {
    AddRow(std::span<const Value>(row.begin(), row.size()), p);
  }

  double Prob(size_t row) const { return Weight(row); }
  void SetProb(size_t row, double p) {
    MutableWeights()->Set(row, schema_.deterministic ? 1.0 : p);
    NoteOverwrite();
  }

  /// Returns a table with the same schema containing rows where `pred` holds.
  /// (Row-at-a-time convenience; hot paths use Select on a selection vector.)
  Table Filter(const std::function<bool(std::span<const Value>)>& pred) const;

  /// Returns a table with the same schema containing rows `sel`, gathered
  /// column-at-a-time. The identity selection shares the columns zero-copy.
  Table Select(std::span<const uint32_t> sel) const;

  /// Multiplies every probability by `f` (clamped to [0,1]); used by the
  /// Proposition 21 / Figure 5n–5p scaling experiments. No-op on
  /// deterministic relations.
  void ScaleProbabilities(double f);

  /// Rewrites every probability p to 1 - (1-p)^(1/d): the symmetric
  /// oblivious dissociation weights for a tuple copied at most `d` times.
  /// Monotone plan scores over a shallow copy transformed this way
  /// *lower*-bound the true query probability (see
  /// src/anytime/lower_bound.h); over-estimating d keeps the bound valid,
  /// it only loosens it. No-op on deterministic relations or d <= 1.
  void DissociateProbabilitiesObliviously(double d);

  /// Checks whether the data satisfies a declared FD.
  bool SatisfiesFD(const FunctionalDependency& fd) const;

  /// Verifies all schema-declared FDs hold on the data.
  Status ValidateFDs() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  RelationSchema schema_;
};

}  // namespace dissodb

#endif  // DISSODB_STORAGE_TABLE_H_
