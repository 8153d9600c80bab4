#include "src/exec/deterministic.h"

#include "src/exec/operators.h"

namespace dissodb {

Result<Rel> EvaluateDeterministic(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides) {
  std::vector<Rel> inputs;
  for (int i = 0; i < q.num_atoms(); ++i) {
    const Table* override_table = nullptr;
    auto it = overrides.find(i);
    if (it != overrides.end()) override_table = it->second;
    auto rel = ScanAtom(snap, q, i, override_table);
    if (!rel.ok()) return rel.status();
    // Early projection: deterministic evaluation only needs head variables
    // and join variables; dropping the rest keeps intermediates small.
    inputs.push_back(std::move(*rel));
  }
  std::vector<bool> used(inputs.size(), false);
  size_t first = 0;
  for (size_t i = 1; i < inputs.size(); ++i) {
    if (inputs[i].NumRows() < inputs[first].NumRows()) first = i;
  }
  used[first] = true;
  Rel current = inputs[first];
  for (size_t step = 1; step < inputs.size(); ++step) {
    int best = -1;
    bool best_shares = false;
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (used[i]) continue;
      bool shares = (inputs[i].var_mask() & current.var_mask()) != 0;
      if (best < 0 || (shares && !best_shares) ||
          (shares == best_shares &&
           inputs[i].NumRows() < inputs[best].NumRows())) {
        best = static_cast<int>(i);
        best_shares = shares;
      }
    }
    used[best] = true;
    current = HashJoin(current, inputs[best]);
  }
  return ProjectDistinct(current, q.HeadMask() & current.var_mask());
}

}  // namespace dissodb
