#include "src/exec/semijoin.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <optional>

#include "src/common/hash.h"
#include "src/exec/bloom.h"
#include "src/exec/hash_table.h"
#include "src/exec/operators.h"
#include "src/exec/rel.h"

namespace dissodb {

namespace {

/// Build-side row count at which a reduction pair gets a blocked Bloom
/// pre-filter in front of the hash-index probes. Below it the index is
/// cache-resident and the filter is pure overhead.
constexpr size_t kBloomMinBuildRows = 4096;

/// Positions (column indices) of the variables `vars` in atom `atom_idx`,
/// using the first occurrence of each variable.
std::vector<int> VarPositions(const ConjunctiveQuery& q, int atom_idx,
                              const std::vector<VarId>& vars) {
  const Atom& a = q.atom(atom_idx);
  std::vector<int> pos;
  for (VarId v : vars) {
    for (int p = 0; p < a.arity(); ++p) {
      if (a.terms[p].is_var && a.terms[p].var == v) {
        pos.push_back(p);
        break;
      }
    }
  }
  return pos;
}

/// Applies the atom's constant selections and repeated-variable equalities
/// column-at-a-time (same BindAtom/ApplyAtomCheck semantics as ScanAtom);
/// atoms without such constraints share the source columns zero-copy.
Table FilterAtomTable(const Table& src, const Atom& a) {
  AtomBinding binding = BindAtom(a);
  if (binding.checks.empty()) return src;  // shallow copy: columns shared

  std::vector<uint32_t> sel(src.NumRows());
  std::iota(sel.begin(), sel.end(), 0u);
  for (const auto& c : binding.checks) ApplyAtomCheck(src, c, &sel);
  return src.Select(sel);
}

/// Runs before any pair of the worklist may be rerun. A pair reruns only
/// when its build side shrank, so real inputs reach the fixpoint far below
/// this; the cap bounds the work on adversarial cascades.
constexpr int kMaxRunsPerPair = 4;

/// One atom's filtered input plus the row count of its relation in the
/// catalog, the denominator of its surviving fraction.
struct AtomInput {
  Table table;
  size_t catalog_rows;
};

/// Resolves each atom's source table (override first, then `snap`) and
/// applies the atom-local filters.
Result<std::vector<AtomInput>> ResolveAndFilter(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides,
    SemiJoinStats* stats) {
  const int m = q.num_atoms();
  std::vector<AtomInput> inputs;
  inputs.reserve(m);
  for (int i = 0; i < m; ++i) {
    auto catalog = snap.GetTable(q.atom(i).relation);
    const Table* src = nullptr;
    auto it = overrides.find(i);
    if (it != overrides.end()) {
      src = it->second;
    } else {
      if (!catalog.ok()) return catalog.status();
      src = *catalog;
    }
    if (src->arity() != q.atom(i).arity()) {
      return Status::InvalidArgument("atom " + q.atom(i).relation +
                                     " arity mismatch");
    }
    // Start from the constant/repeated-variable filtered table so that
    // selections also prune join partners. An override whose relation is
    // not in the catalog counts its own rows as the full relation.
    inputs.push_back(AtomInput{FilterAtomTable(*src, q.atom(i)),
                               catalog.ok() ? (*catalog)->NumRows()
                                            : src->NumRows()});
    if (stats) stats->rows_before.push_back(inputs.back().table.NumRows());
  }
  return inputs;
}

/// Dense-path semi-join: one bit per build value over `range`, then one
/// streaming pass over the probe column that keeps each row whose bit is
/// set. Rows come out ascending, as from the hash path.
std::vector<uint32_t> DenseSemiJoinSelect(const Column& a, const Column& b,
                                          DenseRange range) {
  std::vector<uint64_t> bitmap(range.width / 64 + 1);
  for (size_t ci = 0; ci < b.num_chunks(); ++ci) {
    for (uint64_t v : b.ChunkBits(ci)) {
      const uint64_t off = v - range.lo;
      assert(off <= range.width);  // zone maps are exact
      bitmap[off >> 6] |= uint64_t{1} << (off & 63);
    }
  }
  std::vector<uint32_t> sel;
  sel.reserve(a.size());
  for (size_t ci = 0; ci < a.num_chunks(); ++ci) {
    uint32_t r = static_cast<uint32_t>(a.ChunkBegin(ci));
    for (uint64_t v : a.ChunkBits(ci)) {
      const uint64_t off = v - range.lo;
      if (off <= range.width && (bitmap[off >> 6] >> (off & 63) & 1) != 0) {
        sel.push_back(r);
      }
      ++r;
    }
  }
  return sel;
}

/// Pairwise semi-join reduction of one ordered atom pair: the row indices
/// of `ta` with a key match in `tb`, in ascending order. One-column keys
/// over a narrow build range take the dense bitmap path; every other pair
/// is hashed.
std::vector<uint32_t> SemiJoinSelect(const Table& ta,
                                     const std::vector<int>& pos_a,
                                     const Table& tb,
                                     const std::vector<int>& pos_b,
                                     SemiJoinStats* stats) {
  const size_t bn = tb.NumRows();
  if (stats) {
    ++stats->semijoins;
    stats->build_rows += bn;
  }
  if (pos_a.size() == 1) {
    // Dense path: both key columns type-uniform with one type (so equal raw
    // bits mean equal keys, exactly as KeysEqual), and the build column
    // dense over the rows of the pair.
    const Column& a = *ta.col(pos_a[0]);
    const Column& b = *tb.col(pos_b[0]);
    if (a.uniform() && a.type() == b.type()) {
      if (std::optional<DenseRange> range =
              DenseRangeFor(b, a.size() + b.size())) {
        if (stats) ++stats->dense_semijoins;
        return DenseSemiJoinSelect(a, b, *range);
      }
    }
  }
  // Index b's key values (batch hash + chain; real key comparison on
  // probe avoids hash-collision survivors).
  HashVector bh = HashKeyColumns(tb, pos_b);
  FlatHashIndex index(bn);
  std::vector<uint32_t> next(bn);
  for (size_t r = 0; r < bn; ++r) {
    uint32_t& head = index.HeadFor(bh[r]);
    next[r] = head;
    head = static_cast<uint32_t>(r);
  }
  // Blocked Bloom pre-filter over the build-side hashes: a probe with
  // no possible partner pays one filter cache line instead of an index
  // walk. No false negatives, so the surviving selection is identical
  // with or without it.
  std::unique_ptr<BlockedBloomFilter> bloom;
  if (bn >= kBloomMinBuildRows) {
    bloom = std::make_unique<BlockedBloomFilter>(bn);
    for (uint64_t h : bh) bloom->Add(h);
    if (stats) ++stats->bloom_filters_built;
  }
  HashVector ah = HashKeyColumns(ta, pos_a);
  const size_t an = ta.NumRows();
  std::vector<uint32_t> sel;
  sel.reserve(an);
  // Probe in blocks: Bloom-reject first, prefetch the survivors' index
  // slots, then walk the chains — the slot misses overlap across the
  // block. Survivors keep their ascending order, so `sel` is identical
  // to the plain loop's.
  constexpr size_t kProbeBlock = 64;
  uint32_t survivors[kProbeBlock];
  size_t bloom_skipped = 0;
  for (size_t lo = 0; lo < an; lo += kProbeBlock) {
    const size_t hi = std::min(lo + kProbeBlock, an);
    size_t nsurv = 0;
    for (size_t r = lo; r < hi; ++r) {
      if (bloom != nullptr && !bloom->MayContain(ah[r])) {
        ++bloom_skipped;
        continue;
      }
      index.PrefetchSlot(ah[r]);
      survivors[nsurv++] = static_cast<uint32_t>(r);
    }
    for (size_t s = 0; s < nsurv; ++s) {
      const uint32_t r = survivors[s];
      for (uint32_t br = index.Find(ah[r]); br != FlatHashIndex::kNil;
           br = next[br]) {
        if (KeysEqual(ta, r, pos_a, tb, br, pos_b)) {
          sel.push_back(r);
          break;
        }
      }
    }
  }
  if (stats) {
    stats->hashed_rows += an + bn;
    stats->bloom_probes_skipped += bloom_skipped;
  }
  return sel;
}

std::vector<Table> ReduceResolved(std::vector<AtomInput> inputs,
                                  const ConjunctiveQuery& q,
                                  SemiJoinStats* stats) {
  const int m = q.num_atoms();

  // Shared-variable pairs (a ⋉ b): a is probed against an index over b.
  struct Pair {
    int a, b;
    std::vector<int> pos_a, pos_b;
    bool pending = true;
    int runs = 0;
  };
  std::vector<Pair> pairs;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i == j) continue;
      // Head variables participate in joins too (per-answer grouping), so
      // reduce on every shared variable.
      VarMask shared = q.AtomMask(i) & q.AtomMask(j);
      if (!shared) continue;
      std::vector<VarId> vars = MaskToVars(shared);
      pairs.push_back(Pair{i, j, VarPositions(q, i, vars),
                           VarPositions(q, j, vars)});
    }
  }

  // Worklist to the fixpoint. Every pair starts pending; a pair that ran
  // stays done until its build side shrinks. The next pair is the pending
  // one whose build side has the lowest surviving fraction (current rows
  // over catalog rows), then the fewest build rows, then the lowest index:
  // on foreign-key joins that fraction is the share of probe rows that
  // survive, so selective bindings prune the big relations before those
  // are ever indexed. Select keeps row order and the pairwise fixpoint is
  // unique, so below the per-pair cap the result does not depend on the
  // order.
  auto fraction = [&](int atom) {
    const size_t base = inputs[atom].catalog_rows;
    return base == 0 ? 0.0
                     : static_cast<double>(inputs[atom].table.NumRows()) /
                           static_cast<double>(base);
  };
  for (;;) {
    Pair* pick = nullptr;
    double pick_fraction = 0.0;
    for (Pair& pr : pairs) {
      if (!pr.pending || pr.runs >= kMaxRunsPerPair) continue;
      const double f = fraction(pr.b);
      if (pick == nullptr || f < pick_fraction ||
          (f == pick_fraction && inputs[pr.b].table.NumRows() <
                                     inputs[pick->b].table.NumRows())) {
        pick = &pr;
        pick_fraction = f;
      }
    }
    if (pick == nullptr) break;
    pick->pending = false;
    ++pick->runs;
    const Table& ta = inputs[pick->a].table;
    if (ta.NumRows() == 0) continue;  // nothing left to remove
    std::vector<uint32_t> sel = SemiJoinSelect(
        ta, pick->pos_a, inputs[pick->b].table, pick->pos_b, stats);
    if (sel.size() == ta.NumRows()) continue;
    inputs[pick->a].table = ta.Select(sel);
    for (Pair& pr : pairs) {
      if (pr.b == pick->a) pr.pending = true;
    }
  }

  std::vector<Table> tables;
  tables.reserve(m);
  for (AtomInput& in : inputs) {
    if (stats) stats->rows_after.push_back(in.table.NumRows());
    tables.push_back(std::move(in.table));
  }
  return tables;
}

}  // namespace

Result<std::vector<Table>> SemiJoinReduce(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides,
    SemiJoinStats* stats) {
  auto inputs = ResolveAndFilter(snap, q, overrides, stats);
  if (!inputs.ok()) return inputs.status();
  return ReduceResolved(std::move(*inputs), q, stats);
}

}  // namespace dissodb
