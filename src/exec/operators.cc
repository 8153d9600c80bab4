#include "src/exec/operators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <span>

#include "src/common/hash.h"
#include "src/common/simd.h"
#include "src/exec/bloom.h"
#include "src/exec/hash_table.h"
#include "src/serve/scheduler.h"

#if DISSODB_SIMD_COMPILED
#include <immintrin.h>
#endif

namespace dissodb {

namespace {

/// Rows per morsel for the parallel operator paths; inputs smaller than one
/// morsel run sequentially (the fan-out overhead would dominate).
constexpr size_t kMorselRows = 16384;

/// Probe rows per prefetch block: pass one prefetches the home slots of a
/// block of hashes, pass two walks them — by then the lines have arrived.
/// 64 in-flight lines stay within what the load units track while keeping
/// the block resident in L1.
constexpr size_t kProbeBlock = 64;

/// Build sides below this fit comfortably in L2; prefetching them only
/// costs instruction bandwidth.
constexpr size_t kPrefetchMinBuildRows = 4096;

}  // namespace

AtomBinding BindAtom(const Atom& atom) {
  AtomBinding b;
  for (int p = 0; p < atom.arity(); ++p) {
    const Term& t = atom.terms[p];
    if (!t.is_var) {
      b.checks.push_back(AtomEqCheck{p, -1, t.constant});
      continue;
    }
    if (t.var >= static_cast<int>(b.first_pos_of_var.size())) {
      b.first_pos_of_var.resize(t.var + 1, -1);
    }
    if (b.first_pos_of_var[t.var] < 0) {
      b.first_pos_of_var[t.var] = p;
    } else {
      b.checks.push_back(AtomEqCheck{p, b.first_pos_of_var[t.var], Value()});
    }
  }
  return b;
}

void ApplyAtomCheck(const Table& t, const AtomEqCheck& check,
                    std::vector<uint32_t>* sel) {
  const Column& lhs = *t.col(check.pos);
  size_t w = 0;
  if (check.other_pos >= 0) {
    const Column& rhs = *t.col(check.other_pos);
    for (uint32_t r : *sel) {
      if (lhs.ElemEquals(r, rhs, r)) (*sel)[w++] = r;
    }
  } else {
    const uint64_t bits = check.constant.RawBits();
    const ValueType type = check.constant.type();
    for (uint32_t r : *sel) {
      if (lhs.RawBits(r) == bits && lhs.TypeAt(r) == type) (*sel)[w++] = r;
    }
  }
  sel->resize(w);
}

namespace {

/// Fills `sel` with the ascending global row ids of chunk `ci` that satisfy
/// every check. The first check runs over chunk-local spans (flat fast path
/// on uniform columns); the remaining checks compact the survivors through
/// ApplyAtomCheck, so selection semantics cannot diverge from the
/// row-at-a-time path.
void FilterChunk(const Table& t, std::span<const AtomEqCheck> checks,
                 size_t ci, std::vector<uint32_t>* sel) {
  const AtomEqCheck& check = checks[0];
  const Column& lhs = *t.col(check.pos);
  const std::span<const uint64_t> lb = lhs.ChunkBits(ci);
  const uint32_t base = static_cast<uint32_t>(lhs.ChunkBegin(ci));
  if (check.other_pos >= 0) {
    const Column& rhs = *t.col(check.other_pos);
    if (lhs.uniform() && rhs.uniform() && lhs.type() == rhs.type()) {
      const std::span<const uint64_t> rb = rhs.ChunkBits(ci);
      for (size_t k = 0; k < lb.size(); ++k) {
        if (lb[k] == rb[k]) sel->push_back(base + static_cast<uint32_t>(k));
      }
    } else {
      for (size_t k = 0; k < lb.size(); ++k) {
        const size_t g = base + k;
        if (lhs.ElemEquals(g, rhs, g)) {
          sel->push_back(static_cast<uint32_t>(g));
        }
      }
    }
  } else {
    const uint64_t bits = check.constant.RawBits();
    const ValueType type = check.constant.type();
    if (lhs.uniform()) {
      if (lhs.type() == type) {
        for (size_t k = 0; k < lb.size(); ++k) {
          if (lb[k] == bits) sel->push_back(base + static_cast<uint32_t>(k));
        }
      }
      // Uniform column of another type: no row can match.
    } else {
      for (size_t k = 0; k < lb.size(); ++k) {
        const size_t g = base + k;
        if (lb[k] == bits && lhs.TypeAt(g) == type) {
          sel->push_back(static_cast<uint32_t>(g));
        }
      }
    }
  }
  for (size_t c = 1; c < checks.size(); ++c) {
    ApplyAtomCheck(t, checks[c], sel);
  }
}

/// Zone-map rule: a constant check on a type-uniform column rules out chunk
/// `ci` when the constant has another type or lies outside the chunk's
/// [min, max] payload range (unsigned order — any total order is sound for
/// equality). Ruling a chunk out never changes a selection; it only skips
/// a chunk that cannot match.
bool ChunkRuledOut(const Table& t, std::span<const AtomEqCheck> checks,
                   size_t ci) {
  for (const auto& check : checks) {
    if (check.other_pos >= 0) continue;
    const Column& col = *t.col(check.pos);
    if (!col.uniform()) continue;
    if (check.constant.type() != col.type()) return true;
    const uint64_t cbits = check.constant.RawBits();
    if (cbits < col.ChunkMinBits(ci) || cbits > col.ChunkMaxBits(ci)) {
      return true;
    }
  }
  return false;
}

/// How a scan reads atom `atom_idx`: its table, its distinct variables with
/// the first table column of each, and the equality checks its constants
/// and repeated variables impose.
struct AtomScan {
  const Table* table;
  std::vector<VarId> vars;
  std::vector<int> first_pos;
  std::vector<AtomEqCheck> checks;
};

/// Binds the atom to `table`, or to the snapshot's table when null.
Result<AtomScan> BindScan(const Snapshot& snap, const ConjunctiveQuery& q,
                          int atom_idx, const Table* table) {
  const Atom& atom = q.atom(atom_idx);
  if (table == nullptr) {
    auto t = snap.GetTable(atom.relation);
    if (!t.ok()) return t.status();
    table = *t;
  }
  if (table->arity() != atom.arity()) {
    return Status::InvalidArgument("atom " + atom.relation +
                                   " arity mismatch with table");
  }
  AtomBinding binding = BindAtom(atom);
  AtomScan scan{table, MaskToVars(q.AtomMask(atom_idx)), {},
                std::move(binding.checks)};
  scan.first_pos.reserve(scan.vars.size());
  for (VarId v : scan.vars) {
    scan.first_pos.push_back(binding.first_pos_of_var[v]);
  }
  return scan;
}

/// The scan's output over the table rows at or after `begin_row` that pass
/// every check, in ascending row order, with lane 1's weights (and `lane2`,
/// if given) gathered by the same selection. Chunk at a time: chunks the
/// zone maps rule out are skipped, the others filtered — on the pool when
/// there is one and the rows in range span at least two morsels — and the
/// per-chunk selections concatenated in chunk order, so the output is the
/// same with or without a scheduler. `stats`, if given, accumulates the
/// chunk counters.
Rel ScanRows(AtomScan scan, size_t begin_row, WeightsPtr lane2,
             Scheduler* scheduler, ChunkedScanStats* stats) {
  const Table& t = *scan.table;
  const size_t n = t.NumRows();
  std::vector<uint32_t> sel;
  if (scan.checks.empty()) {
    sel.resize(n - begin_row);
    std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(begin_row));
  } else {
    // All columns of a table append in lockstep, so they share one chunk
    // geometry; read it off the first checked column.
    const Column& layout = *t.col(scan.checks[0].pos);
    const size_t first_chunk = begin_row / layout.chunk_capacity();
    const size_t num_chunks = layout.num_chunks();
    // Fan out over the surviving chunks only: a fully (or mostly) pruned
    // scan must not spawn tasks for chunks the zone maps already ruled out.
    std::vector<uint32_t> live;
    for (size_t ci = first_chunk; ci < num_chunks; ++ci) {
      if (!ChunkRuledOut(t, scan.checks, ci)) {
        live.push_back(static_cast<uint32_t>(ci));
      }
    }
    std::vector<std::vector<uint32_t>> chunk_sel(live.size());
    const bool parallel = scheduler != nullptr && live.size() >= 2 &&
                          n - begin_row >= 2 * kMorselRows;
    auto scan_range = [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        FilterChunk(t, scan.checks, live[i], &chunk_sel[i]);
      }
    };
    if (parallel) {
      scheduler->ParallelFor(0, live.size(), 1, scan_range);
    } else {
      scan_range(0, live.size());
    }
    size_t total = 0;
    for (const auto& cs : chunk_sel) total += cs.size();
    sel.reserve(total);
    // Only the first chunk can hold rows before `begin_row`.
    for (const auto& cs : chunk_sel) {
      sel.insert(sel.end(), std::lower_bound(cs.begin(), cs.end(), begin_row),
                 cs.end());
    }
    if (stats != nullptr) {
      ++stats->filtered_scans;
      if (parallel) ++stats->parallel_scans;
      stats->chunks_scanned += live.size();
      stats->chunks_pruned += num_chunks - first_chunk - live.size();
      for (uint32_t ci : live) stats->rows_scanned += layout.ChunkSize(ci);
      stats->rows_selected += sel.size();
    }
  }

  std::vector<ColumnPtr> cols;
  cols.reserve(scan.first_pos.size());
  for (int p : scan.first_pos) {
    cols.push_back(std::make_shared<Column>(
        Column::Gathered(*t.col(p), sel, scheduler)));
  }
  auto scores = std::make_shared<WeightColumn>(
      WeightColumn::Gathered(*t.weights(), sel, scheduler));
  if (lane2 != nullptr) {
    lane2 = std::make_shared<WeightColumn>(
        WeightColumn::Gathered(*lane2, sel, scheduler));
  }
  return Rel::FromColumns(std::move(scan.vars), std::move(cols),
                          std::move(scores), sel.size(), std::move(lane2));
}

}  // namespace

Result<Rel> ScanAtom(const Snapshot& snap, const ConjunctiveQuery& q,
                     int atom_idx, const Table* table, Scheduler* scheduler,
                     ChunkedScanStats* stats, WeightsPtr lane2) {
  auto bound = BindScan(snap, q, atom_idx, table);
  if (!bound.ok()) return bound.status();
  AtomScan& scan = *bound;
  const size_t n = scan.table->NumRows();
  if (lane2 != nullptr && lane2->size() != n) {
    return Status::InvalidArgument("lane-2 weights of atom " +
                                   q.atom(atom_idx).relation +
                                   " do not match its table's rows");
  }
  if (!scan.checks.empty()) {
    return ScanRows(std::move(scan), 0, std::move(lane2), scheduler, stats);
  }
  // Unfiltered scan: reference the table's columns and probabilities
  // zero-copy (the dominant case — most atoms have no selections).
  std::vector<ColumnPtr> cols;
  cols.reserve(scan.first_pos.size());
  for (int p : scan.first_pos) cols.push_back(scan.table->col(p));
  return Rel::FromColumns(std::move(scan.vars), std::move(cols),
                          scan.table->weights(), n, std::move(lane2));
}

Result<Rel> ScanAtomTail(const Snapshot& snap, const ConjunctiveQuery& q,
                         int atom_idx, size_t begin_row,
                         Scheduler* scheduler) {
  auto bound = BindScan(snap, q, atom_idx, nullptr);
  if (!bound.ok()) return bound.status();
  if (begin_row > bound->table->NumRows()) {
    return Status::InvalidArgument("delta scan begins past table " +
                                   q.atom(atom_idx).relation);
  }
  // The ascending full-scan selection restricted to the appended suffix;
  // only chunks overlapping [begin_row, n) are touched.
  return ScanRows(std::move(*bound), begin_row, nullptr, scheduler, nullptr);
}

namespace {

/// Join probes consult a build-side Bloom filter before touching the slot
/// table. The filter is worth a probe-side pre-check only while it
/// actually rejects: each probe_range call watches the reject rate over
/// its first blocks and drops the filter for the rest of the range when
/// most probes pass anyway (high-hit-rate joins), keeping the overhead a
/// bounded prefix. Consulting or dropping the filter never changes which
/// chains are walked, so output is unaffected.
///
/// Probes checked before the reject-rate verdict, and the rate (in
/// eighths) below which the filter is dropped: a rejected probe saves a
/// slot-table miss (~3x the cost of the filter check), so the filter pays
/// for itself down to roughly three rejects in eight.
constexpr size_t kBloomAdaptProbes = 8192;
constexpr size_t kBloomMinRejectEighths = 3;

/// The (build row, probe row) pairs of a join, in output order.
struct JoinPairs {
  std::vector<uint32_t> build;
  std::vector<uint32_t> probe;
};

/// Runs `probe_range(lo, hi, &build_rows, &probe_rows)` over probe rows
/// [0, pn): in row-range morsels on the pool when there is one and the
/// probe is large, else in one call. Each morsel fills its own pair
/// buffers; concatenating them in morsel order reproduces the sequential
/// probe-row order exactly.
template <typename ProbeRange>
JoinPairs ProbeMorsels(size_t pn, Scheduler* scheduler,
                       ProbeRange probe_range) {
  JoinPairs out;
  if (scheduler != nullptr && pn >= 2 * kMorselRows) {
    const size_t num_morsels = (pn + kMorselRows - 1) / kMorselRows;
    std::vector<std::vector<uint32_t>> mb(num_morsels), mp(num_morsels);
    scheduler->ParallelFor(0, pn, kMorselRows, [&](size_t lo, size_t hi) {
      const size_t k = lo / kMorselRows;
      probe_range(lo, hi, &mb[k], &mp[k]);
    });
    size_t total = 0;
    for (const auto& v : mb) total += v.size();
    out.build.reserve(total);
    out.probe.reserve(total);
    for (size_t k = 0; k < num_morsels; ++k) {
      out.build.insert(out.build.end(), mb[k].begin(), mb[k].end());
      out.probe.insert(out.probe.end(), mp[k].begin(), mp[k].end());
    }
  } else {
    out.build.reserve(pn);
    out.probe.reserve(pn);
    probe_range(0, pn, &out.build, &out.probe);
  }
  return out;
}

/// Dense join: build rows chained in ascending order from a direct-address
/// head array over `range`, so each chain lists its rows in descending
/// order, as the hash path's chains do. A probe reads its key payload,
/// skips values outside the range and walks the chain: equal payloads are
/// equal keys on type-uniform columns of one type, so nothing is hashed or
/// compared.
JoinPairs DenseJoinPairs(const Column& bk, const Column& pk, DenseRange range,
                         Scheduler* scheduler) {
  DenseKeyIndex heads(range.lo, range.width);
  std::vector<uint32_t> next(bk.size());
  uint32_t r = 0;
  for (size_t ci = 0; ci < bk.num_chunks(); ++ci) {
    for (uint64_t v : bk.ChunkBits(ci)) {
      uint32_t& head = heads.At(v);
      next[r] = head;
      head = r++;
    }
  }
  const size_t cap = pk.chunk_capacity();
  return ProbeMorsels(pk.size(), scheduler,
                      [&](size_t lo, size_t hi, std::vector<uint32_t>* bs,
                          std::vector<uint32_t>* ps) {
    for (size_t ci = lo / cap; ci < pk.num_chunks(); ++ci) {
      const size_t begin = pk.ChunkBegin(ci);
      if (begin >= hi) break;
      const std::span<const uint64_t> bits = pk.ChunkBits(ci);
      const size_t end = std::min(hi, begin + bits.size());
      for (size_t pr = std::max(lo, begin); pr < end; ++pr) {
        for (uint32_t br = heads.Find(bits[pr - begin]);
             br != DenseKeyIndex::kNil; br = next[br]) {
          bs->push_back(br);
          ps->push_back(static_cast<uint32_t>(pr));
        }
      }
    }
  });
}

/// Hash join: one flat table over the batch-hashed build keys (hashing fans
/// out in chunk-aligned morsels), probed with the batch-hashed probe keys
/// and real key comparisons. Build rows are chained in ascending order
/// through `next`, so each chain lists its rows in descending order.
JoinPairs HashJoinPairs(const Rel& build, std::span<const int> build_key,
                        const Rel& probe, std::span<const int> probe_key,
                        Scheduler* scheduler) {
  const size_t bn = build.NumRows();
  HashVector bh = HashKeyColumns(build, build_key, scheduler);
  FlatHashIndex index(bn);
  std::vector<uint32_t> next(bn);
  const bool want_prefetch = bn >= kPrefetchMinBuildRows;
  // Insert-side lookahead: each HeadFor lands on a random slot of a table
  // that exceeds L2 for large builds, so fetch the slot line (exclusive) a
  // fixed distance ahead. Purely overlaps misses; insertion order — and
  // therefore every chain — is unchanged.
  constexpr size_t kBuildLookahead = 16;
  for (size_t r = 0; r < bn; ++r) {
    if (want_prefetch && r + kBuildLookahead < bn) {
      index.PrefetchSlotWrite(bh[r + kBuildLookahead]);
    }
    uint32_t& head = index.HeadFor(bh[r]);
    next[r] = head;
    head = static_cast<uint32_t>(r);
  }
  HashVector ph = HashKeyColumns(probe, probe_key, scheduler);
  const Column* build_key0 =
      build_key.empty() ? nullptr : &*build.col(build_key[0]);
  // Build-side Bloom filter for probe pre-checks: the filter array is ~10
  // bits/key (cache-resident) while the slot table it short-circuits is a
  // DRAM miss per probe. Built sequentially from the already-computed
  // build hashes; gated like the prefetches (tiny builds fit in cache).
  std::unique_ptr<BlockedBloomFilter> bloom;
  if (want_prefetch) {
    bloom = std::make_unique<BlockedBloomFilter>(bn);
    for (size_t r = 0; r < bn; ++r) bloom->Add(bh[r]);
  }
  return ProbeMorsels(probe.NumRows(), scheduler,
                      [&](size_t lo, size_t hi, std::vector<uint32_t>* bs,
                          std::vector<uint32_t>* ps) {
    if (want_prefetch) {
      // Per block: Bloom-filter the block's rows into a survivor list,
      // prefetch the survivors' home slots, resolve chain heads
      // (prefetching each head's link and first build key word), then
      // walk. Each pass's misses overlap across the whole block instead
      // of serializing one probe at a time. Survivors stay in probe-row
      // order, so output is bit-identical to the plain loop.
      const BlockedBloomFilter* filter = bloom.get();
      size_t seen = 0, rejected = 0;
      uint32_t sur[kProbeBlock];
      uint32_t heads[kProbeBlock];
      for (size_t blo = lo; blo < hi; blo += kProbeBlock) {
        const size_t bhi = std::min(blo + kProbeBlock, hi);
        size_t s = 0;
        if (filter != nullptr) {
          for (size_t pr = blo; pr < bhi; ++pr) {
            if (filter->MayContain(ph[pr])) {
              sur[s++] = static_cast<uint32_t>(pr);
            }
          }
          seen += bhi - blo;
          rejected += (bhi - blo) - s;
          if (seen >= kBloomAdaptProbes &&
              rejected * 8 < seen * kBloomMinRejectEighths) {
            filter = nullptr;  // mostly hits: the pre-check is pure cost
          }
        } else {
          for (size_t pr = blo; pr < bhi; ++pr) {
            sur[s++] = static_cast<uint32_t>(pr);
          }
        }
        for (size_t k = 0; k < s; ++k) index.PrefetchSlot(ph[sur[k]]);
        for (size_t k = 0; k < s; ++k) {
          const uint32_t head = index.Find(ph[sur[k]]);
          heads[k] = head;
          if (head != FlatHashIndex::kNil) {
            __builtin_prefetch(&next[head], 0, 1);
            if (build_key0 != nullptr) build_key0->PrefetchRaw(head);
          }
        }
        for (size_t k = 0; k < s; ++k) {
          const size_t pr = sur[k];
          for (uint32_t br = heads[k]; br != FlatHashIndex::kNil;
               br = next[br]) {
            if (!KeysEqual(build, br, build_key, probe, pr, probe_key)) {
              continue;
            }
            bs->push_back(br);
            ps->push_back(static_cast<uint32_t>(pr));
          }
        }
      }
      return;
    }
    for (size_t pr = lo; pr < hi; ++pr) {
      for (uint32_t br = index.Find(ph[pr]); br != FlatHashIndex::kNil;
           br = next[br]) {
        if (!KeysEqual(build, br, build_key, probe, pr, probe_key)) continue;
        bs->push_back(br);
        ps->push_back(static_cast<uint32_t>(pr));
      }
    }
  });
}

}  // namespace

Rel HashJoin(const Rel& left, const Rel& right, Scheduler* scheduler,
             JoinPath* path) {
  const bool build_left = left.NumRows() <= right.NumRows();
  return HashJoinBuildProbe(build_left ? left : right,
                            build_left ? right : left, scheduler, path);
}

Rel HashJoinBuildProbe(const Rel& build, const Rel& probe,
                       Scheduler* scheduler, JoinPath* path) {
  VarMask shared = build.var_mask() & probe.var_mask();
  std::vector<int> build_key, probe_key;
  for (VarId v : MaskToVars(shared)) {
    build_key.push_back(build.ColIndex(v));
    probe_key.push_back(probe.ColIndex(v));
  }
  const size_t pn = probe.NumRows();

  // Dense path: one key column, both sides type-uniform with one type (so
  // equal raw bits mean equal keys, exactly as KeysEqual), and a build
  // column narrow enough for a head array over the rows of the join.
  std::optional<DenseRange> dense;
  if (build_key.size() == 1) {
    const Column& bk = *build.col(build_key[0]);
    const Column& pk = *probe.col(probe_key[0]);
    if (pk.uniform() && pk.type() == bk.type()) {
      dense = DenseIndexRangeFor(bk, build.NumRows() + pn);
    }
  }
  JoinPairs pairs =
      dense ? DenseJoinPairs(*build.col(build_key[0]),
                             *probe.col(probe_key[0]), *dense, scheduler)
            : HashJoinPairs(build, build_key, probe, probe_key, scheduler);
  const std::vector<uint32_t>& build_sel = pairs.build;
  const std::vector<uint32_t>& probe_sel = pairs.probe;

  // Every probe row matched exactly once (probe_sel is 0..pn-1): the
  // output rows are the probe rows in order, so every probe column is
  // already an output column.
  bool reuse = pn > 0 && probe_sel.size() == pn;
  for (size_t i = 0; reuse && i < pn; ++i) reuse = probe_sel[i] == i;
  if (path != nullptr) *path = JoinPath{dense.has_value(), reuse};

  // Assemble output columns by gathering from the source side (one
  // independent task per gathered column and score lane when a scheduler
  // is available).
  std::vector<VarId> out_vars = MaskToVars(build.var_mask() | probe.var_mask());
  std::vector<ColumnPtr> cols(out_vars.size());
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < out_vars.size(); ++i) {
    const int pc = probe.ColIndex(out_vars[i]);
    if (reuse && pc >= 0) {
      cols[i] = probe.col(pc);
      continue;
    }
    const int bc = build.ColIndex(out_vars[i]);
    tasks.push_back([&, i, bc, pc] {
      const Column& src = bc >= 0 ? *build.col(bc) : *probe.col(pc);
      cols[i] = std::make_shared<Column>(
          Column::Gathered(src, bc >= 0 ? build_sel : probe_sel, scheduler));
    });
  }
  const size_t out_n = build_sel.size();
  auto fill_lane = [&](const WeightColumn& bsrc, const WeightColumn& psrc,
                       WeightColumn* out) {
    out->Reserve(out_n);
    const WeightColumn::View bw = bsrc.view();
    const WeightColumn::View pw = psrc.view();
    constexpr size_t kScoreLookahead = 16;
    for (size_t i = 0; i < out_n; ++i) {
      if (i + kScoreLookahead < out_n) {
        bw.PrefetchAt(build_sel[i + kScoreLookahead]);
        pw.PrefetchAt(probe_sel[i + kScoreLookahead]);
      }
      out->Append(bw[build_sel[i]] * pw[probe_sel[i]]);
    }
  };
  auto scores = std::make_shared<WeightColumn>();
  tasks.push_back([&] { fill_lane(*build.weights(), *probe.weights(),
                                  scores.get()); });
  WeightsPtr lane2;
  if (build.lane2() != nullptr || probe.lane2() != nullptr) {
    lane2 = std::make_shared<WeightColumn>();
    tasks.push_back([&] {
      fill_lane(build.Lane2OrScores(), probe.Lane2OrScores(), lane2.get());
    });
  }
  if (scheduler != nullptr && out_n >= 2 * kMorselRows && tasks.size() > 1) {
    scheduler->RunAll(std::move(tasks));
  } else {
    for (auto& task : tasks) task();
  }
  return Rel::FromColumns(std::move(out_vars), std::move(cols),
                          std::move(scores), out_n, std::move(lane2));
}

namespace {

/// Row ids written by index after an uninitialized resize.
using RowIds = std::vector<uint32_t, internal::DefaultInitAllocator<uint32_t>>;

/// Per-group fold state of a grouping pass: each group's representative
/// input row and its folded score in each lane (`acc2` stays empty on a
/// single-lane input).
struct Groups {
  RowIds rep;
  std::vector<double> acc;
  std::vector<double> acc2;
};

/// Hash grouping kernel shared by both projection flavors: assign each row
/// of `in`, in row order, to a group via a flat index over the row hashes
/// `h` (groups with equal hashes chain; real key comparison on the input
/// columns) and fold scores per group, in every lane, into the empty `out`.
/// `kTwoLanes` must say whether `in` has a lane 2; the single-lane
/// instantiation carries no lane-2 work in its loop.
template <bool kTwoLanes, typename Init, typename Update>
void GroupRowsKernel(const Rel& in, std::span<const int> key_pos,
                     std::span<const uint64_t> h, Init init, Update update,
                     Groups* out) {
  assert(out->rep.empty() && out->acc.empty() && out->acc2.empty());
  const size_t nr = h.size();
  FlatHashIndex index(nr);
  // Near-distinct keys create a group per row. The group arrays are sized
  // for that worst case up front (uninitialized), written by index and
  // trimmed at the end, so the loop makes no capacity checks or calls for
  // them; the score vectors are reserved for the same worst case.
  out->rep.resize(nr);
  RowIds group_next(nr);  // chain of groups sharing a hash
  out->acc.reserve(nr);
  if constexpr (kTwoLanes) out->acc2.reserve(nr);
  const WeightColumn::View w = in.weights()->view();
  [[maybe_unused]] const WeightColumn::View w2 = in.Lane2OrScores().view();
  // Fixed-distance lookahead: the index exceeds L2 for large groupings and
  // every HeadFor lands on a random slot, so fetch the slot a few rows
  // early. (Pure overlap; does not change which slot any row claims.)
  constexpr size_t kGroupLookahead = 16;
  const bool prefetch = nr >= kPrefetchMinBuildRows;
  uint32_t num_groups = 0;
  for (size_t t = 0; t < nr; ++t) {
    if (prefetch && t + kGroupLookahead < nr) {
      index.PrefetchSlotWrite(h[t + kGroupLookahead]);
    }
    const uint32_t r = static_cast<uint32_t>(t);
    uint32_t& head = index.HeadFor(h[r]);
    uint32_t g = head;
    while (g != FlatHashIndex::kNil &&
           !KeysEqual(in, r, key_pos, in, out->rep[g], key_pos)) {
      g = group_next[g];
    }
    if (g == FlatHashIndex::kNil) {
      g = num_groups++;
      out->rep[g] = r;
      group_next[g] = head;
      head = g;
      out->acc.push_back(init(w[r]));
      if constexpr (kTwoLanes) out->acc2.push_back(init(w2[r]));
    } else {
      out->acc[g] = update(out->acc[g], w[r]);
      if constexpr (kTwoLanes) out->acc2[g] = update(out->acc2[g], w2[r]);
    }
  }
  out->rep.resize(num_groups);
}

/// Dense grouping over one type-uniform key column whose payloads lie in
/// `range`: a row's group id is read from a direct-address array at offset
/// v - lo and assigned at the group's first row, so groups come out in
/// first-occurrence order and each group's scores fold in row order, in
/// every lane, exactly as the hash kernel's do. `kTwoLanes` must say
/// whether `in` has a lane 2.
template <bool kTwoLanes, typename Init, typename Update>
void GroupDenseKernel(const Rel& in, const Column& key, DenseRange range,
                      Init init, Update update, Groups* out) {
  assert(out->rep.empty() && out->acc.empty() && out->acc2.empty());
  DenseKeyIndex group_of(range.lo, range.width);
  // Sized for the most groups the rows or the range allow, written by
  // index and trimmed at the end, as in GroupRowsKernel.
  const size_t max_groups =
      std::min<uint64_t>(key.size(), range.width + 1);
  out->rep.resize(max_groups);
  out->acc.reserve(max_groups);
  if constexpr (kTwoLanes) out->acc2.reserve(max_groups);
  const WeightColumn::View w = in.weights()->view();
  [[maybe_unused]] const WeightColumn::View w2 = in.Lane2OrScores().view();
  uint32_t num_groups = 0;
  uint32_t r = 0;
  for (size_t ci = 0; ci < key.num_chunks(); ++ci) {
    for (uint64_t v : key.ChunkBits(ci)) {
      uint32_t& g = group_of.At(v);
      if (g == DenseKeyIndex::kNil) {
        g = num_groups++;
        out->rep[g] = r;
        out->acc.push_back(init(w[r]));
        if constexpr (kTwoLanes) out->acc2.push_back(init(w2[r]));
      } else {
        out->acc[g] = update(out->acc[g], w[r]);
        if constexpr (kTwoLanes) out->acc2[g] = update(out->acc2[g], w2[r]);
      }
      ++r;
    }
  }
  out->rep.resize(num_groups);
}

/// Shared grouping loop for both projection flavors: group the rows by the
/// kept columns and fold scores per group. One kept column that passes
/// DenseIndexRangeFor is grouped through a direct-address array; other
/// keys are batch-hashed (in morsels on the pool, when there is one) and
/// grouped by the sequential hash kernel. Both paths yield the same groups,
/// in first-occurrence order, with the same fold order.
template <typename Init, typename Update, typename Finalize>
Rel ProjectImpl(const Rel& in, VarMask keep_mask, Scheduler* scheduler,
                Init init, Update update, Finalize finalize,
                std::vector<double>* raw_acc_out = nullptr,
                bool* dense_grouping = nullptr) {
  assert((keep_mask & ~in.var_mask()) == 0);
  std::vector<VarId> keep_vars = MaskToVars(keep_mask);
  std::vector<int> key_pos;
  key_pos.reserve(keep_vars.size());
  for (VarId v : keep_vars) key_pos.push_back(in.ColIndex(v));

  const size_t n = in.NumRows();
  const bool two_lanes = in.lane2() != nullptr;
  std::optional<DenseRange> dense;
  if (key_pos.size() == 1) dense = DenseIndexRangeFor(*in.col(key_pos[0]), n);
  if (dense_grouping != nullptr) *dense_grouping = dense.has_value();

  Groups groups;
  if (dense) {
    const Column& key = *in.col(key_pos[0]);
    if (two_lanes) {
      GroupDenseKernel<true>(in, key, *dense, init, update, &groups);
    } else {
      GroupDenseKernel<false>(in, key, *dense, init, update, &groups);
    }
  } else {
    HashVector h = HashKeyColumns(in, key_pos, scheduler);
    if (two_lanes) {
      GroupRowsKernel<true>(in, key_pos, h, init, update, &groups);
    } else {
      GroupRowsKernel<false>(in, key_pos, h, init, update, &groups);
    }
  }

  std::vector<ColumnPtr> cols;
  cols.reserve(keep_vars.size());
  for (int c : key_pos) {
    cols.push_back(std::make_shared<Column>(
        Column::Gathered(*in.col(c), groups.rep, scheduler)));
  }
  if (raw_acc_out != nullptr) *raw_acc_out = groups.acc;
  // Per-group score rewrite applied on the raw fold vectors; doing it here
  // (instead of per-row through the Rel accessors) avoids a copy-on-write
  // check per call on outputs with millions of groups.
  for (double& a : groups.acc) a = finalize(a);
  for (double& a : groups.acc2) a = finalize(a);
  auto scores = std::make_shared<WeightColumn>(groups.acc);
  WeightsPtr lane2;
  if (two_lanes) lane2 = std::make_shared<WeightColumn>(groups.acc2);
  return Rel::FromColumns(std::move(keep_vars), std::move(cols),
                          std::move(scores), groups.rep.size(),
                          std::move(lane2));
}

#if DISSODB_SIMD_COMPILED

/// Boolean projections with at least this many rows take the fused SIMD
/// accumulator; below it the scalar fold is already a handful of cycles.
constexpr size_t kFusedMinRows = 256;

/// Fused Boolean-projection accumulator: returns 1 - prod_k (1 - w[k]).
///
/// Four complement-product lanes, checked every kFlushCheck elements and
/// drained into log space before they can underflow to zero. Lane
/// assignment (k mod 4), flush order (lane 0 through 3), and the final
/// reduction ((l0*l1)*(l2*l3), then the scalar tail in index order) are
/// all fixed and data-independent, so the score is bit-identical run to
/// run; versus the scalar sequential fold it differs by reassociation
/// only (ULP-bounded; the differential test pins the tolerance).
///
/// Iterates the weight column chunk span by chunk span. Every sealed chunk
/// holds a multiple of 4 elements (power-of-two capacity; the caller gates
/// on capacity % 4 == 0), so the vector loop never straddles a seam, the
/// global lane assignment (k mod 4) is preserved across chunks, and only
/// the final chunk can leave a scalar tail — the exact op sequence of a
/// single flat pass.
__attribute__((target("avx2"))) double FusedComplementScoreAvx2(
    const WeightColumn& w) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d prod = one;
  double log_acc = 0.0;
  bool flushed = false;
  constexpr size_t kFlushCheck = 512;
  constexpr double kTiny = 1e-128;
  size_t next_check = kFlushCheck;
  size_t k = 0;  // global element index
  alignas(32) double lanes[4];
  std::span<const double> tail;  // last chunk's sub-vector remainder
  for (size_t ci = 0; ci < w.num_chunks(); ++ci) {
    const std::span<const double> p = w.ChunkVals(ci);
    size_t j = 0;
    for (; j + 4 <= p.size(); j += 4, k += 4) {
      prod = _mm256_mul_pd(prod, _mm256_sub_pd(one, _mm256_loadu_pd(p.data() + j)));
      if (k + 4 >= next_check) {
        next_check += kFlushCheck;
        _mm256_store_pd(lanes, prod);
        if (lanes[0] < kTiny || lanes[1] < kTiny || lanes[2] < kTiny ||
            lanes[3] < kTiny) {
          // Factors are complements of probabilities, so lanes are
          // non-negative and log() is defined; log(0) folds through exp()
          // below to the same certain-truth score the scalar path reaches.
          for (double l : lanes) log_acc += std::log(l);
          prod = one;
          flushed = true;
        }
      }
    }
    if (j < p.size()) tail = p.subspan(j);  // last chunk only
  }
  _mm256_store_pd(lanes, prod);
  double rest = (lanes[0] * lanes[1]) * (lanes[2] * lanes[3]);
  for (double v : tail) rest *= 1.0 - v;
  if (!flushed) return 1.0 - rest;
  return 1.0 - std::exp(log_acc + std::log(rest));
}

#endif  // DISSODB_SIMD_COMPILED

/// Boolean-projection score of one non-empty lane, 1 - prod(1 - w[r]):
/// the fused SIMD accumulator when it engages, else the sequential fold.
double BooleanScore(const WeightColumn& w) {
  const size_t n = w.size();
#if DISSODB_SIMD_COMPILED
  if (n >= kFusedMinRows && simd::UseAvx2() && w.chunk_capacity() % 4 == 0) {
    return FusedComplementScoreAvx2(w);
  }
#endif
  // Same multiply sequence as the grouped fold, so the scalar fast path is
  // bit-identical to the pre-fast-path behavior.
  double acc = 1.0 - w[0];
  for (size_t r = 1; r < n; ++r) acc *= 1.0 - w[r];
  return 1.0 - acc;
}

}  // namespace

Rel ProjectIndependent(const Rel& in, VarMask keep_mask, Scheduler* scheduler,
                       std::vector<double>* raw_acc_out, bool* dense_grouping) {
  const size_t n = in.NumRows();
  if (keep_mask == 0 && n > 0) {
    // Boolean projection: every row folds into the single empty-tuple
    // group, so skip hashing and grouping entirely and accumulate the
    // complement product directly over each lane's chunk spans.
    auto scores = std::make_shared<WeightColumn>(
        std::vector<double>(1, BooleanScore(*in.weights())));
    WeightsPtr lane2;
    if (in.lane2() != nullptr) {
      lane2 = std::make_shared<WeightColumn>(
          std::vector<double>(1, BooleanScore(*in.lane2())));
    }
    return Rel::FromColumns({}, {}, std::move(scores), 1, std::move(lane2));
  }

  // Accumulate the complement product: acc = prod(1 - s_i); final score is
  // 1 - acc, rewritten over the fold vector before the output is built.
  return ProjectImpl(
      in, keep_mask, scheduler, [](double s) { return 1.0 - s; },
      [](double acc, double s) { return acc * (1.0 - s); },
      [](double acc) { return 1.0 - acc; }, raw_acc_out, dense_grouping);
}

Rel ProjectDistinct(const Rel& in, VarMask keep_mask, Scheduler* scheduler) {
  return ProjectImpl(
      in, keep_mask, scheduler, [](double) { return 1.0; },
      [](double, double) { return 1.0; }, [](double acc) { return acc; });
}

Result<Rel> MinMerge(const std::vector<Rel>& inputs) {
  if (inputs.empty()) return Status::InvalidArgument("MinMerge of nothing");
  const VarMask mask = inputs[0].var_mask();
  for (const auto& r : inputs) {
    if (r.var_mask() != mask) {
      return Status::InvalidArgument("MinMerge inputs differ in variables");
    }
  }
  if (inputs.size() == 1) return inputs[0];  // shallow copy: shares columns

  const int arity = inputs[0].arity();
  std::vector<int> identity(arity);
  std::iota(identity.begin(), identity.end(), 0);

  size_t total = 0;
  bool two_lanes = false;
  for (const auto& in : inputs) {
    total += in.NumRows();
    two_lanes = two_lanes || in.lane2() != nullptr;
  }

  // Groups across all inputs; a representative is an (input, row) pair.
  FlatHashIndex index(total);
  std::vector<uint32_t> group_input, group_row, group_next;
  std::vector<double> best, best2;
  for (size_t k = 0; k < inputs.size(); ++k) {
    const Rel& in = inputs[k];
    HashVector h = HashKeyColumns(in, identity);
    const WeightColumn::View w = in.weights()->view();
    const WeightColumn::View w2 = in.Lane2OrScores().view();
    for (size_t r = 0; r < in.NumRows(); ++r) {
      uint32_t& head = index.HeadFor(h[r]);
      uint32_t g = head;
      while (g != FlatHashIndex::kNil &&
             !KeysEqual(in, r, identity, inputs[group_input[g]], group_row[g],
                        identity)) {
        g = group_next[g];
      }
      if (g == FlatHashIndex::kNil) {
        g = static_cast<uint32_t>(group_row.size());
        group_input.push_back(static_cast<uint32_t>(k));
        group_row.push_back(static_cast<uint32_t>(r));
        group_next.push_back(head);
        head = g;
        best.push_back(w[r]);
        if (two_lanes) best2.push_back(w2[r]);
      } else {
        best[g] = std::min(best[g], w[r]);
        if (two_lanes) best2[g] = std::min(best2[g], w2[r]);
      }
    }
  }

  std::vector<ColumnPtr> cols;
  cols.reserve(arity);
  for (int c = 0; c < arity; ++c) {
    // Fast path when every input stores column c uniformly with one type:
    // copy raw 64-bit payloads without per-cell Value construction.
    bool uniform = true;
    bool have_type = false;
    ValueType type = ValueType::kInt64;
    for (const auto& in : inputs) {
      const Column& cc = *in.col(c);
      if (!cc.uniform()) {
        uniform = false;
        break;
      }
      if (cc.size() == 0) continue;
      if (!have_type) {
        type = cc.type();
        have_type = true;
      } else if (cc.type() != type) {
        uniform = false;
        break;
      }
    }
    auto col = std::make_shared<Column>(type);
    col->Reserve(group_row.size());
    if (uniform) {
      for (size_t g = 0; g < group_row.size(); ++g) {
        col->AppendRaw(inputs[group_input[g]].col(c)->RawBits(group_row[g]));
      }
    } else {
      for (size_t g = 0; g < group_row.size(); ++g) {
        col->Append(inputs[group_input[g]].At(group_row[g], c));
      }
    }
    cols.push_back(std::move(col));
  }
  auto scores = std::make_shared<WeightColumn>(best);
  WeightsPtr lane2;
  if (two_lanes) lane2 = std::make_shared<WeightColumn>(best2);
  return Rel::FromColumns(inputs[0].vars(), std::move(cols), std::move(scores),
                          group_row.size(), std::move(lane2));
}

}  // namespace dissodb
