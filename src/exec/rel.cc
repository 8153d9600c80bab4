#include "src/exec/rel.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"
#include "src/common/string_util.h"

namespace dissodb {

Rel::Rel(std::vector<VarId> vars) : vars_(std::move(vars)) {
  assert(std::is_sorted(vars_.begin(), vars_.end()));
  for (VarId v : vars_) mask_ |= MaskOf(v);
  InitCols(static_cast<int>(vars_.size()));
}

Rel Rel::FromColumns(std::vector<VarId> vars, std::vector<ColumnPtr> cols,
                     WeightsPtr scores, size_t rows, WeightsPtr lane2) {
  Rel out(std::move(vars));
  assert(cols.size() == out.vars_.size());
  assert(scores && scores->size() == rows);
  assert(lane2 == nullptr || lane2->size() == rows);
  out.AdoptImpl(std::move(cols), std::move(scores), rows);
  out.lane2_ = std::move(lane2);
  return out;
}

void Rel::AppendRows(const Rel& src) {
  assert(src.mask_ == mask_);
  assert(lane2_ == nullptr && src.lane2_ == nullptr);
  const size_t n = src.NumRows();
  if (n == 0) return;
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  GatherImpl(src, sel);
}

int Rel::ColIndex(VarId v) const {
  auto it = std::lower_bound(vars_.begin(), vars_.end(), v);
  if (it == vars_.end() || *it != v) return -1;
  return static_cast<int>(it - vars_.begin());
}

std::string Rel::ToString(const ConjunctiveQuery& q, size_t max_rows) const {
  std::vector<std::string> names;
  for (VarId v : vars_) names.push_back(q.var_name(v));
  std::string out = "Rel(" + Join(names, ",") + ") [" +
                    std::to_string(NumRows()) + " rows]\n";
  for (size_t r = 0; r < NumRows() && r < max_rows; ++r) {
    out += "  (";
    for (int c = 0; c < arity(); ++c) {
      if (c > 0) out += ", ";
      out += At(r, c).ToString();
    }
    out += StrFormat(") score=%.6f\n", Score(r));
  }
  if (NumRows() > max_rows) out += "  ...\n";
  return out;
}

Rel RemapRelVars(const Rel& in, const std::vector<VarId>& var_map) {
  std::vector<std::pair<VarId, int>> mapped;  // (new var id, old column)
  mapped.reserve(in.vars().size());
  for (int c = 0; c < in.arity(); ++c) {
    VarId v = in.vars()[c];
    assert(v >= 0 && v < static_cast<VarId>(var_map.size()) &&
           var_map[v] >= 0 && "remap must cover every column variable");
    mapped.emplace_back(var_map[v], c);
  }
  std::sort(mapped.begin(), mapped.end());
  std::vector<VarId> vars;
  std::vector<ColumnPtr> cols;
  vars.reserve(mapped.size());
  cols.reserve(mapped.size());
  for (const auto& [v, c] : mapped) {
    vars.push_back(v);
    cols.push_back(in.col(c));
  }
  return Rel::FromColumns(std::move(vars), std::move(cols), in.weights(),
                          in.NumRows(), in.lane2());
}

}  // namespace dissodb
