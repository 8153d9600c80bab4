#include "src/anytime/lower_bound.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "src/dissociation/dissociation.h"
#include "src/exec/hash_table.h"

namespace dissodb {

namespace {

/// Largest exponent we distinguish: beyond this 1-(1-p)^(1/d) underflows
/// towards 0 anyway and the product of domain sizes risks overflow.
constexpr double kMaxExponent = 1e15;

const std::vector<PlanPtr>& PlansOf(const CompiledPlans& compiled,
                                    std::vector<PlanPtr>* single_storage) {
  if (compiled.single_plan != nullptr) {
    single_storage->assign(1, compiled.single_plan);
    return *single_storage;
  }
  return compiled.plans;
}

/// The table bound to atom `idx`: the override when present, else the
/// snapshot table of the atom's relation (nullptr when absent — the
/// subsequent evaluation will fail with the proper error).
const Table* AtomTable(const Snapshot& snap, const ConjunctiveQuery& q,
                       const AtomOverrides& overrides, int idx) {
  auto it = overrides.find(idx);
  if (it != overrides.end()) return it->second.table;
  int t = snap.FindTable(q.atom(idx).relation);
  return t < 0 ? nullptr : &snap.table(t);
}

/// Exact number of distinct values in `col`, read over its chunk spans. A
/// type-uniform column over a narrow zone-map range sets one bit per value
/// in a bitmap over that range; any other column is hashed, with real
/// comparisons of (type, payload), so equal payloads of different types
/// count as different values.
size_t CountDistinct(const Column& col) {
  const size_t n = col.size();
  if (n == 0) return 0;
  if (std::optional<DenseRange> range = DenseRangeFor(col, n)) {
    std::vector<uint64_t> bitmap(range->width / 64 + 1);
    for (size_t ci = 0; ci < col.num_chunks(); ++ci) {
      for (uint64_t v : col.ChunkBits(ci)) {
        const uint64_t off = v - range->lo;
        bitmap[off >> 6] |= uint64_t{1} << (off & 63);
      }
    }
    size_t count = 0;
    for (uint64_t word : bitmap) count += std::popcount(word);
    return count;
  }
  HashVector h(n);
  col.HashCombineInto(h, /*init=*/true);
  FlatHashIndex index(n);
  std::vector<uint32_t> reps;  // first row of each distinct value
  std::vector<uint32_t> next;  // chain of values sharing a hash
  for (size_t r = 0; r < n; ++r) {
    uint32_t& head = index.HeadFor(h[r]);
    uint32_t g = head;
    while (g != FlatHashIndex::kNil && !col.ElemEquals(r, col, reps[g])) {
      g = next[g];
    }
    if (g == FlatHashIndex::kNil) {
      next.push_back(head);
      head = static_cast<uint32_t>(reps.size());
      reps.push_back(static_cast<uint32_t>(r));
    }
  }
  return reps.size();
}

/// Exact count of distinct values variable `v` takes in the tables of the
/// atoms natively containing it; minimum over those atoms (every atom's
/// column bounds the join's active domain). Exact counts matter — a
/// sketch could undercount and make the bound unsound. Returns 1 when no
/// atom binds `v` (cannot happen for extra variables of a valid
/// dissociation) or a table is missing.
double ActiveDomainSize(const Snapshot& snap, const ConjunctiveQuery& q,
                        const AtomOverrides& overrides, VarId v) {
  double best = kMaxExponent;
  bool found = false;
  for (int i = 0; i < q.num_atoms(); ++i) {
    if (!MaskContains(q.AtomMask(i), v)) continue;
    const Atom& atom = q.atom(i);
    int col = -1;
    for (int j = 0; j < atom.arity(); ++j) {
      if (atom.terms[j].is_var && atom.terms[j].var == v) {
        col = j;
        break;
      }
    }
    if (col < 0) continue;
    const Table* t = AtomTable(snap, q, overrides, i);
    if (t == nullptr) continue;
    best = std::min(best, static_cast<double>(CountDistinct(*t->col(col))));
    found = true;
  }
  if (!found) return 1.0;
  return std::max(best, 1.0);
}

}  // namespace

std::vector<double> ObliviousExponents(const Snapshot& snap,
                                       const ConjunctiveQuery& q,
                                       const CompiledPlans& compiled,
                                       const AtomOverrides& overrides) {
  std::vector<PlanPtr> single_storage;
  const std::vector<PlanPtr>& plans = PlansOf(compiled, &single_storage);

  // Union of extra variables per atom over every plan (Min branches
  // included via ExtractDissociation's recursion): a superset of the
  // dissociation any single branch induces, hence a valid d for all.
  std::vector<VarMask> extra(q.num_atoms(), 0);
  for (const PlanPtr& p : plans) {
    Dissociation delta = ExtractDissociation(p, q);
    for (int i = 0; i < q.num_atoms(); ++i) extra[i] |= delta.extra[i];
  }

  // Active-domain sizes, computed once per variable and shared.
  std::vector<double> adom(q.num_vars(), 0.0);
  std::vector<double> d(q.num_atoms(), 1.0);
  for (int i = 0; i < q.num_atoms(); ++i) {
    for (VarId v : MaskToVars(extra[i])) {
      if (adom[v] == 0.0) adom[v] = ActiveDomainSize(snap, q, overrides, v);
      d[i] = std::min(d[i] * adom[v], kMaxExponent);
    }
  }
  return d;
}

std::vector<WeightsPtr> ObliviousLowerWeights(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const AtomOverrides& overrides, const std::vector<double>& exponents) {
  std::vector<WeightsPtr> lane2(q.num_atoms());
  for (int i = 0; i < q.num_atoms(); ++i) {
    const double d = i < static_cast<int>(exponents.size()) ? exponents[i]
                                                            : 1.0;
    // A missing table is left to the evaluation, which reports it.
    const Table* t = AtomTable(snap, q, overrides, i);
    if (t == nullptr || d <= 1.0 || t->schema().deterministic ||
        t->NumRows() == 0) {
      continue;
    }
    auto w = std::make_shared<WeightColumn>(*t->weights());
    w->ComplementPow(1.0 / d);
    lane2[i] = std::move(w);
  }
  return lane2;
}

}  // namespace dissodb
