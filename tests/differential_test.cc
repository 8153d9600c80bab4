// Differential testing: the vectorized columnar operators must agree with
// the naive row-at-a-time reference implementations on seeded random
// instances — 100+ instances per operator (joins, both projections,
// MinMerge, semi-join reduction).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/operators.h"
#include "src/exec/semijoin.h"
#include "src/serve/scheduler.h"
#include "src/workload/random_instance.h"
#include "src/workload/tpch.h"
#include "tests/reference_ops.h"
#include "tests/test_util.h"

namespace dissodb {
namespace {

using testing_util::Canonical;
using testing_util::Q;
using testing_util::RefJoin;
using testing_util::RefMinMerge;
using testing_util::RefProject;
using testing_util::RefRel;
using testing_util::RefSortJoin;
using testing_util::ToRef;
using testing_util::kWideKeyStride;

constexpr int kInstances = 120;

/// Exactly `rows` rows over `vars`; column c is drawn from [1, domains[c]]
/// and scores from U[0,1].
Rel SizedRel(Rng* rng, const std::vector<VarId>& vars, size_t rows,
             const std::vector<int64_t>& domains) {
  Rel out(vars);
  std::vector<Value> row(vars.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < vars.size(); ++c) {
      row[c] = Value::Int64(
          1 + static_cast<int64_t>(rng->NextBounded(domains[c])));
    }
    out.AddRow(row, rng->NextDouble());
  }
  return out;
}

/// `r` with every value multiplied by `stride` (all-integer relations).
Rel Strided(const Rel& r, int64_t stride) {
  Rel out(r.vars());
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    for (int c = 0; c < r.arity(); ++c) {
      row[c] = Value::Int64(r.At(i, c).AsInt64() * stride);
    }
    out.AddRow(row, r.Score(i));
  }
  return out;
}

/// Random relation over `vars` with up to `max_rows` rows, values in
/// [1, domain] and U[0,1] scores.
Rel RandomRel(Rng* rng, const std::vector<VarId>& vars, size_t max_rows,
              int64_t domain) {
  const size_t rows = rng->NextBounded(max_rows + 1);
  return SizedRel(rng, vars, rows, std::vector<int64_t>(vars.size(), domain));
}

/// Random sorted variable subset of 0..pool_size-1 with `count` members.
std::vector<VarId> RandomVars(Rng* rng, int pool_size, int count) {
  std::vector<VarId> all(pool_size);
  for (int i = 0; i < pool_size; ++i) all[i] = i;
  for (int i = pool_size - 1; i > 0; --i) {
    std::swap(all[i], all[rng->NextBounded(i + 1)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

/// `got` equals `want` row for row, in order, with the same score bits.
void ExpectSameRowForRow(const RefRel& got, const RefRel& want,
                         const std::string& context) {
  ASSERT_EQ(got.vars, want.vars) << context;
  ASSERT_EQ(got.rows.size(), want.rows.size()) << context;
  for (size_t i = 0; i < got.rows.size(); ++i) {
    ASSERT_EQ(got.rows[i], want.rows[i]) << context << " row " << i;
    ASSERT_EQ(got.scores[i], want.scores[i]) << context << " row " << i;
  }
}

void ExpectSameRelation(const RefRel& got, const RefRel& want,
                        const std::string& context) {
  auto g = Canonical(got);
  auto w = Canonical(want);
  ASSERT_EQ(g.size(), w.size()) << context;
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].first, w[i].first) << context << " row " << i;
    EXPECT_NEAR(g[i].second, w[i].second, 1e-12) << context << " row " << i;
  }
}

TEST(DifferentialTest, HashJoinMatchesNestedLoopReference) {
  for (int seed = 0; seed < kInstances; ++seed) {
    Rng rng(1000 + seed);
    int pool = 2 + static_cast<int>(rng.NextBounded(4));  // 2..5 variables
    int la = 1 + static_cast<int>(rng.NextBounded(pool));
    int lb = 1 + static_cast<int>(rng.NextBounded(pool));
    Rel a = RandomRel(&rng, RandomVars(&rng, pool, la), 24, 3);
    Rel b = RandomRel(&rng, RandomVars(&rng, pool, lb), 24, 3);
    Rel joined = HashJoin(a, b);
    ExpectSameRelation(ToRef(joined), RefJoin(ToRef(a), ToRef(b)),
                       "join seed " + std::to_string(seed));
  }
}

TEST(DifferentialTest, BloomFilteredHashJoinMatchesReference) {
  // The join puts a Bloom filter in front of build sides of at least 4096
  // rows, and drops it after 8192 probes when it rejects fewer than 3 in
  // 8. A 4500-row build side over 1024 keys, probed by 9000 rows, covers
  // both regimes: probe keys spread over 10x the build's keys mostly
  // dangle, so the filter stays on; probe keys over the build's keys
  // almost all match, so the filter is dropped. Wide keys keep the join
  // hashed.
  constexpr int64_t kBuildKeys = 1024;
  Scheduler pool(4);
  for (int64_t probe_keys : {10 * kBuildKeys, kBuildKeys}) {
    Rng rng(6000 + probe_keys);
    Rel build = Strided(SizedRel(&rng, {0, 1}, 4500, {1000, kBuildKeys}),
                        kWideKeyStride);
    Rel probe = Strided(SizedRel(&rng, {1, 2}, 9000, {probe_keys, 1000}),
                        kWideKeyStride);
    const RefRel want = RefJoin(ToRef(build), ToRef(probe));
    const std::string context = "probe keys " + std::to_string(probe_keys);
    JoinPath path;
    ExpectSameRelation(ToRef(HashJoin(build, probe, nullptr, &path)), want,
                       context);
    EXPECT_FALSE(path.dense_index) << context;
    ExpectSameRelation(ToRef(HashJoin(build, probe, &pool)), want,
                       context + ", 4 threads");
  }
}

TEST(DifferentialTest, MorselParallelJoinMatchesSortJoinReference) {
  // The probe fans out in morsels only from 32768 probe rows, where the
  // nested-loop reference would compare ~10^9 row pairs. 45000 probe rows
  // against 20000 build rows: probe keys over [1, 40000], build keys over
  // [1, 30000], so most probes miss and the rest match one or more rows.
  // Narrow keys take the dense build; wide keys take one hash index, with a
  // Bloom filter that stays on. Under the pool the probe fans out either
  // way.
  Scheduler pool(4);
  for (int64_t stride : {int64_t{1}, kWideKeyStride}) {
    Rng rng(6100);
    Rel build =
        Strided(SizedRel(&rng, {0, 1}, 20'000, {1000, 30'000}), stride);
    Rel probe =
        Strided(SizedRel(&rng, {1, 2}, 45'000, {40'000, 1000}), stride);
    const RefRel want = RefSortJoin(ToRef(build), ToRef(probe));
    EXPECT_GT(want.rows.size(), 0u);
    for (Scheduler* s : {static_cast<Scheduler*>(nullptr), &pool}) {
      const std::string context = "stride " + std::to_string(stride) +
                                  (s != nullptr ? ", 4 threads" : "");
      JoinPath path;
      Rel got = HashJoinBuildProbe(build, probe, s, &path);
      EXPECT_EQ(path.dense_index, stride == 1) << context;
      ExpectSameRowForRow(ToRef(got), want, context);
    }
  }
}

TEST(DifferentialTest, ProjectIndependentMatchesReference) {
  for (int seed = 0; seed < kInstances; ++seed) {
    Rng rng(2000 + seed);
    int arity = 1 + static_cast<int>(rng.NextBounded(3));
    std::vector<VarId> vars = RandomVars(&rng, 5, arity);
    Rel in = RandomRel(&rng, vars, 40, 3);
    // Random subset of the variables (possibly empty: Boolean projection).
    VarMask keep = 0;
    for (VarId v : vars) {
      if (rng.NextBounded(2)) keep |= MaskOf(v);
    }
    Rel out = ProjectIndependent(in, keep);
    ExpectSameRelation(ToRef(out), RefProject(ToRef(in), keep, true),
                       "pi seed " + std::to_string(seed));
  }
}

TEST(DifferentialTest, ProjectDistinctMatchesReference) {
  for (int seed = 0; seed < kInstances; ++seed) {
    Rng rng(3000 + seed);
    int arity = 1 + static_cast<int>(rng.NextBounded(3));
    std::vector<VarId> vars = RandomVars(&rng, 5, arity);
    Rel in = RandomRel(&rng, vars, 40, 3);
    VarMask keep = 0;
    for (VarId v : vars) {
      if (rng.NextBounded(2)) keep |= MaskOf(v);
    }
    Rel out = ProjectDistinct(in, keep);
    ExpectSameRelation(ToRef(out), RefProject(ToRef(in), keep, false),
                       "distinct seed " + std::to_string(seed));
  }
}

TEST(DifferentialTest, MinMergeMatchesReference) {
  for (int seed = 0; seed < kInstances; ++seed) {
    Rng rng(4000 + seed);
    int arity = static_cast<int>(rng.NextBounded(3));  // 0..2 (incl Boolean)
    std::vector<VarId> vars = RandomVars(&rng, 4, arity);
    size_t k = 2 + rng.NextBounded(3);
    std::vector<Rel> inputs;
    std::vector<RefRel> ref_inputs;
    for (size_t i = 0; i < k; ++i) {
      inputs.push_back(RandomRel(&rng, vars, 16, 3));
      ref_inputs.push_back(ToRef(inputs.back()));
    }
    auto merged = MinMerge(inputs);
    ASSERT_TRUE(merged.ok());
    ExpectSameRelation(ToRef(*merged), RefMinMerge(ref_inputs),
                       "min seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Chunk-boundary pinning: every operator must be bit-compatible with the
// reference on inputs sized exactly at, one below, and one above the chunk
// capacity, and on multi-chunk inputs whose gathers span chunk seams.
// ---------------------------------------------------------------------------

using testing_util::ChunkCapOverride;

/// Random relation over `vars` with exactly `rows` rows.
Rel ExactRel(Rng* rng, const std::vector<VarId>& vars, size_t rows,
             int64_t domain) {
  Rel out(vars);
  std::vector<Value> row(vars.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < vars.size(); ++c) {
      row[c] =
          Value::Int64(1 + static_cast<int64_t>(rng->NextBounded(domain)));
    }
    out.AddRow(row, rng->NextDouble());
  }
  return out;
}

TEST(ChunkBoundaryDifferentialTest, OperatorsAgreeAtAndAroundChunkCapacity) {
  constexpr size_t kCap = 128;
  ChunkCapOverride cap(kCap);
  // Sizes pinned to the seams: one below, exactly at, one above capacity,
  // and a multi-chunk size crossing two seams.
  const size_t sizes[] = {kCap - 1, kCap, kCap + 1, 2 * kCap + 1};
  int seed = 0;
  for (size_t rows : sizes) {
    Rng rng(7000 + seed++);
    Rel a = ExactRel(&rng, {0, 1}, rows, 12);
    Rel b = ExactRel(&rng, {1, 2}, rows, 12);

    Rel joined = HashJoin(a, b);
    EXPECT_GT(joined.NumRows(), 0u) << rows;
    ExpectSameRelation(ToRef(joined), RefJoin(ToRef(a), ToRef(b)),
                       "boundary join rows=" + std::to_string(rows));

    Rel pi = ProjectIndependent(a, MaskOf(0));
    ExpectSameRelation(ToRef(pi), RefProject(ToRef(a), MaskOf(0), true),
                       "boundary pi rows=" + std::to_string(rows));

    Rel pd = ProjectDistinct(a, MaskOf(1));
    ExpectSameRelation(ToRef(pd), RefProject(ToRef(a), MaskOf(1), false),
                       "boundary distinct rows=" + std::to_string(rows));

    Rel c = ExactRel(&rng, {0, 1}, rows, 12);
    auto merged = MinMerge({a, c});
    ASSERT_TRUE(merged.ok());
    ExpectSameRelation(ToRef(*merged), RefMinMerge({ToRef(a), ToRef(c)}),
                       "boundary min rows=" + std::to_string(rows));
  }
}

TEST(ChunkBoundaryDifferentialTest, MultiChunkGatherSpansChunkSeams) {
  constexpr size_t kCap = 64;
  ChunkCapOverride cap(kCap);
  Rng rng(8123);
  // A gather whose selection jumps back and forth across 5 chunks, sized
  // so the *output* also crosses several seams.
  Rel src = ExactRel(&rng, {0, 1}, 5 * kCap + 7, 1000);
  std::vector<uint32_t> sel;
  for (size_t k = 0; k < 3 * kCap + 5; ++k) {
    sel.push_back(static_cast<uint32_t>(rng.NextBounded(src.NumRows())));
  }
  for (int c = 0; c < src.arity(); ++c) {
    Column seq;
    seq.AppendGather(*src.col(c), sel);
    Column built = Column::Gathered(*src.col(c), sel);
    ASSERT_EQ(seq.size(), sel.size());
    ASSERT_EQ(built.size(), sel.size());
    for (size_t k = 0; k < sel.size(); ++k) {
      EXPECT_EQ(seq.Get(k), src.col(c)->Get(sel[k])) << "col " << c << " " << k;
      EXPECT_EQ(built.Get(k), seq.Get(k)) << "col " << c << " " << k;
    }
  }
}

/// Reference semi-join reduction: the naive pairwise fixpoint. Sweeps every
/// ordered atom pair in index order until a whole sweep removes nothing,
/// with no cap on the sweeps, checking membership against an ordered set of
/// the partner's surviving keys. Returns the kept row indices per atom, into
/// the atom's source table (its override, else its catalog table).
std::vector<std::vector<size_t>> RefSemiJoinRows(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides = {}) {
  const int m = q.num_atoms();
  // Kept row indices per atom (into the source table), after the
  // constant / repeated-variable filter.
  std::vector<const Table*> tables(m);
  std::vector<std::vector<size_t>> kept(m);
  for (int i = 0; i < m; ++i) {
    auto ov = overrides.find(i);
    tables[i] = ov != overrides.end() ? ov->second
                                      : *snap.GetTable(q.atom(i).relation);
    const Atom& a = q.atom(i);
    for (size_t r = 0; r < tables[i]->NumRows(); ++r) {
      bool pass = true;
      std::map<VarId, Value> bound;
      for (int p = 0; p < a.arity() && pass; ++p) {
        const Term& t = a.terms[p];
        Value v = tables[i]->At(r, p);
        if (!t.is_var) {
          pass = v == t.constant;
        } else {
          auto [it, inserted] = bound.try_emplace(t.var, v);
          if (!inserted) pass = it->second == v;
        }
      }
      if (pass) kept[i].push_back(r);
    }
  }
  auto positions = [&](int atom_idx, const std::vector<VarId>& vars) {
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
  };
  auto key = [&](int atom_idx, size_t r, const std::vector<int>& pos) {
    std::vector<Value> k;
    for (int p : pos) k.push_back(tables[atom_idx]->At(r, p));
    return k;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < m; ++j) {
        if (i == j) continue;
        VarMask shared = q.AtomMask(i) & q.AtomMask(j);
        if (!shared) continue;
        std::vector<VarId> vars = MaskToVars(shared);
        std::vector<int> pi = positions(i, vars);
        std::vector<int> pj = positions(j, vars);
        std::set<std::vector<Value>> partner;
        for (size_t s : kept[j]) partner.insert(key(j, s, pj));
        std::vector<size_t> still;
        for (size_t r : kept[i]) {
          if (partner.count(key(i, r, pi))) still.push_back(r);
        }
        if (still.size() != kept[i].size()) {
          kept[i] = std::move(still);
          changed = true;
        }
      }
    }
  }
  return kept;
}

/// Asserts that `reduced` holds exactly the reference rows, in order, with
/// the source rows' values and probabilities.
void ExpectReductionMatchesReference(
    const std::vector<Table>& reduced, const Snapshot& snap,
    const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides,
    const std::string& context) {
  auto ref = RefSemiJoinRows(snap, q, overrides);
  ASSERT_EQ(reduced.size(), ref.size()) << context;
  for (int i = 0; i < q.num_atoms(); ++i) {
    auto ov = overrides.find(i);
    const Table* orig = ov != overrides.end()
                            ? ov->second
                            : *snap.GetTable(q.atom(i).relation);
    ASSERT_EQ(reduced[i].NumRows(), ref[i].size())
        << "atom " << i << " " << context;
    for (size_t k = 0; k < ref[i].size(); ++k) {
      for (int c = 0; c < orig->arity(); ++c) {
        ASSERT_EQ(reduced[i].At(k, c), orig->At(ref[i][k], c))
            << "atom " << i << " row " << k << " " << context;
      }
      ASSERT_DOUBLE_EQ(reduced[i].Prob(k), orig->Prob(ref[i][k]))
          << "atom " << i << " row " << k << " " << context;
    }
  }
}

TEST(DifferentialTest, SemiJoinReduceMatchesReference) {
  for (int seed = 0; seed < kInstances; ++seed) {
    Rng rng(5000 + seed);
    RandomQuerySpec qs;
    qs.min_atoms = 2;
    qs.max_atoms = 6;
    qs.max_vars = 6;
    ConjunctiveQuery q = RandomQuery(&rng, qs);
    RandomInstanceSpec is;
    is.max_rows = 8;
    is.domain = 3;
    Database db = RandomDatabaseFor(q, &rng, is);
    const Snapshot snap = db.snapshot();

    auto reduced = SemiJoinReduce(snap, q);
    ASSERT_TRUE(reduced.ok()) << seed;
    ExpectReductionMatchesReference(*reduced, snap, q, {},
                                    "seed " + std::to_string(seed) + " " +
                                        q.ToString());
  }
}

TEST(DifferentialTest, TpchSelectionsReduceToReferenceWithoutIndexingPartsupp) {
  // The paper's TPC-H query with a one-colour Part selection ($2) and the
  // first half of the suppliers ($1). The reduction must match the
  // reference row for row, and the selective bindings must prune Partsupp
  // before it is indexed: every index built stays far below Partsupp's
  // size, so their total does too.
  TpchOptions opts;
  opts.scale = 0.05;
  Database db = MakeTpchDatabase(opts);
  const Snapshot snap = db.snapshot();
  const size_t partsupp_rows = (*snap.GetTable("Partsupp"))->NumRows();
  const int64_t half = static_cast<int64_t>(
      (*snap.GetTable("Supplier"))->NumRows() / 2);
  auto sel = MakeTpchSelections(db, half, "%red%");
  ASSERT_TRUE(sel.ok());
  const ConjunctiveQuery q = TpchQuery();

  SemiJoinStats stats;
  auto reduced = SemiJoinReduce(snap, q, (*sel)->overrides, &stats);
  ASSERT_TRUE(reduced.ok());
  ExpectReductionMatchesReference(*reduced, snap, q, (*sel)->overrides,
                                  "tpch");
  EXPECT_GT((*reduced)[1].NumRows(), 0u);
  EXPECT_LT((*reduced)[1].NumRows(), partsupp_rows / 10);
  EXPECT_LT(stats.build_rows, partsupp_rows);
  // Dense integer ids take the bitmap path, so Partsupp is never hashed
  // in full.
  EXPECT_GE(stats.dense_semijoins, 1u);
  EXPECT_LT(stats.hashed_rows, partsupp_rows);
}

// --- Dense vs hashed semi-joins --------------------------------------------
//
// Each case builds R and S from key generators, checks SemiJoinReduce row
// for row against the reference, and checks through the stats which path
// its pairs took.

/// Keys of row `row` of a generated table (one value per key column).
using KeyGen = std::function<std::vector<Value>(Rng*, Database*, size_t row)>;

/// Adds relation `name` with `rows` rows of `gen`'s keys and U[0,1]
/// probabilities. Columns take the type of their first value.
void AddKeyTable(Database* db, const std::string& name, int arity,
                 size_t rows, const KeyGen& gen, Rng* rng) {
  Table t(RelationSchema::AllInt64(name, arity));
  for (size_t r = 0; r < rows; ++r) {
    t.AddRow(gen(rng, db, r), rng->NextDouble());
  }
  ASSERT_TRUE(db->AddTable(std::move(t)).ok());
}

enum class SemiJoinPath { kDense, kHashed };
enum class Matches { kSome, kNone };

/// Reduces `query` over R (`r_rows` rows of `r_gen`) and S (`s_rows` rows
/// of `s_gen`) for a few seeds. Each result must equal the reference, every
/// pair must take `path`, and the reduction must keep some rows and drop
/// others over the seeds (kSome) or empty every table (kNone). When
/// `bloom` is given, the seeds' Bloom counters are added to it.
void ExpectReductionOnPath(const std::string& query, int arity, size_t r_rows,
                           const KeyGen& r_gen, size_t s_rows,
                           const KeyGen& s_gen, SemiJoinPath path,
                           Matches matches, const std::string& context,
                           SemiJoinStats* bloom = nullptr) {
  const ConjunctiveQuery q = Q(query);
  size_t kept = 0;
  size_t dropped = 0;
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(9100 + seed);
    Database db;
    AddKeyTable(&db, "R", arity, r_rows, r_gen, &rng);
    AddKeyTable(&db, "S", arity, s_rows, s_gen, &rng);
    const Snapshot snap = db.snapshot();
    SemiJoinStats stats;
    auto reduced = SemiJoinReduce(snap, q, {}, &stats);
    ASSERT_TRUE(reduced.ok()) << context;
    const std::string where = context + " seed " + std::to_string(seed);
    ExpectReductionMatchesReference(*reduced, snap, q, {}, where);
    ASSERT_GE(stats.semijoins, 1u) << where;
    if (path == SemiJoinPath::kDense) {
      EXPECT_EQ(stats.dense_semijoins, stats.semijoins) << where;
      EXPECT_EQ(stats.hashed_rows, 0u) << where;
    } else {
      EXPECT_EQ(stats.dense_semijoins, 0u) << where;
      EXPECT_GT(stats.hashed_rows, 0u) << where;
    }
    for (size_t i = 0; i < stats.rows_after.size(); ++i) {
      kept += stats.rows_after[i];
      dropped += stats.rows_before[i] - stats.rows_after[i];
    }
    if (bloom != nullptr) {
      bloom->bloom_filters_built += stats.bloom_filters_built;
      bloom->bloom_probes_skipped += stats.bloom_probes_skipped;
    }
  }
  if (matches == Matches::kSome) {
    EXPECT_GT(kept, 0u) << context;
    EXPECT_GT(dropped, 0u) << context;
  } else {
    EXPECT_EQ(kept, 0u) << context;
  }
}

/// One key per row, drawn by `draw`.
KeyGen OneKey(std::function<Value(Rng*, Database*, size_t)> draw) {
  return [draw](Rng* rng, Database* db, size_t row) {
    return std::vector<Value>{draw(rng, db, row)};
  };
}

/// Integer keys `(base + U[0, 64)) * stride`.
KeyGen IntKeys(int64_t base, int64_t stride) {
  return OneKey([base, stride](Rng* rng, Database*, size_t) {
    return Value::Int64(
        (base + static_cast<int64_t>(rng->NextBounded(64))) * stride);
  });
}

/// String keys: dictionary codes of 64 interned names.
KeyGen StringKeys() {
  return OneKey([](Rng* rng, Database* db, size_t) {
    return db->Str("name" + std::to_string(rng->NextBounded(64)));
  });
}

const char kOneVarQuery[] = "q() :- R(x), S(x)";

/// The dense cases: narrow, all-negative and string keys.
void ExpectDenseCases(const std::string& context) {
  ExpectReductionOnPath(kOneVarQuery, 1, 48, IntKeys(1000, 1), 24,
                        IntKeys(1000, 1), SemiJoinPath::kDense, Matches::kSome,
                        context + " narrow ints");
  // Negative integers sit at the top of the unsigned raw-bit order; their
  // offsets from the minimum stay small.
  ExpectReductionOnPath(kOneVarQuery, 1, 48, IntKeys(-64, 1), 24,
                        IntKeys(-64, 1), SemiJoinPath::kDense, Matches::kSome,
                        context + " negative ints");
  ExpectReductionOnPath(kOneVarQuery, 1, 48, StringKeys(), 24, StringKeys(),
                        SemiJoinPath::kDense, Matches::kSome,
                        context + " strings");
}

TEST(DenseSemiJoinTest, DenseKeysMatchReference) { ExpectDenseCases(""); }

TEST(DenseSemiJoinTest, DenseRangeSpansSeveralZoneMaps) {
  // 8-row chunks: each build range is the union of several chunks' zone
  // maps.
  ChunkCapOverride cap(8);
  ExpectDenseCases("8-row chunks");
}

TEST(DenseSemiJoinTest, HashedKeysMatchReference) {
  // Integers spread wider than the 2^22 dense range.
  ExpectReductionOnPath(kOneVarQuery, 1, 48, IntKeys(0, int64_t{1} << 23), 24,
                        IntKeys(0, int64_t{1} << 23), SemiJoinPath::kHashed,
                        Matches::kSome, "wide ints");
  // The same on 6000 and 5000 rows: build sides of at least 4096 rows get
  // a Bloom filter, and the half of either side's keys the other side
  // lacks is rejected by it.
  SemiJoinStats bloom;
  ExpectReductionOnPath(kOneVarQuery, 1, 6000, IntKeys(0, int64_t{1} << 23),
                        5000, IntKeys(32, int64_t{1} << 23),
                        SemiJoinPath::kHashed, Matches::kSome,
                        "wide ints, Bloom-sized", &bloom);
  EXPECT_GE(bloom.bloom_filters_built, 1u);
  EXPECT_GT(bloom.bloom_probes_skipped, 0u);
  // Keys on both sides of zero: the unsigned range covers almost 2^64.
  const KeyGen straddle = OneKey([](Rng* rng, Database*, size_t row) {
    const int64_t v = 1 + static_cast<int64_t>(rng->NextBounded(32));
    return Value::Int64(row % 2 == 0 ? v : -v);
  });
  ExpectReductionOnPath(kOneVarQuery, 1, 48, straddle, 24, straddle,
                        SemiJoinPath::kHashed, Matches::kSome,
                        "straddling zero");
  const KeyGen doubles = OneKey([](Rng* rng, Database*, size_t) {
    return Value::Double(0.5 * static_cast<double>(1 + rng->NextBounded(64)));
  });
  ExpectReductionOnPath(kOneVarQuery, 1, 48, doubles, 24, doubles,
                        SemiJoinPath::kHashed, Matches::kSome, "doubles");
  // Two shared variables, each narrow: multi-column keys are hashed.
  const KeyGen pairs = [](Rng* rng, Database*, size_t) {
    return std::vector<Value>{
        Value::Int64(static_cast<int64_t>(rng->NextBounded(8))),
        Value::Int64(static_cast<int64_t>(rng->NextBounded(8)))};
  };
  ExpectReductionOnPath("q() :- R(x,y), S(x,y)", 2, 48, pairs, 24, pairs,
                        SemiJoinPath::kHashed, Matches::kSome,
                        "two shared variables");
  // Both columns mix integers and strings, so neither is type-uniform.
  // Strings come from four names, so both types keep matches and the
  // reduced columns stay mixed.
  const KeyGen mixed = OneKey([](Rng* rng, Database* db, size_t row) {
    if (row % 3 == 2) {
      return db->Str("name" + std::to_string(rng->NextBounded(4)));
    }
    return Value::Int64(static_cast<int64_t>(rng->NextBounded(64)));
  });
  ExpectReductionOnPath(kOneVarQuery, 1, 48, mixed, 24, mixed,
                        SemiJoinPath::kHashed, Matches::kSome,
                        "mixed-type columns");
  // A range below 2^22 whose bitmap (2^15 + 1 words) dwarfs the pair's
  // ten rows: clearing it would cost more than hashing them.
  const KeyGen sparse = OneKey([](Rng* rng, Database*, size_t row) {
    return Value::Int64(row == 0 ? int64_t{1} << 21
                                 : static_cast<int64_t>(rng->NextBounded(8)));
  });
  ExpectReductionOnPath(kOneVarQuery, 1, 6, sparse, 4, sparse,
                        SemiJoinPath::kHashed, Matches::kSome,
                        "wide range, few rows");
}

TEST(DenseSemiJoinTest, NoMatchCasesMatchReference) {
  // The same raw bits on both sides, but an integer never equals a string
  // code.
  const KeyGen ints = OneKey([](Rng* rng, Database*, size_t) {
    return Value::Int64(static_cast<int64_t>(rng->NextBounded(8)));
  });
  const KeyGen codes = OneKey([](Rng* rng, Database*, size_t) {
    return Value::StringCode(static_cast<int64_t>(rng->NextBounded(8)));
  });
  ExpectReductionOnPath(kOneVarQuery, 1, 48, ints, 24, codes,
                        SemiJoinPath::kHashed, Matches::kNone,
                        "int vs string");
  // An empty build side has no range to set bits over; the pair is hashed
  // and keeps no probe row.
  ExpectReductionOnPath(kOneVarQuery, 1, 48, ints, 0, ints,
                        SemiJoinPath::kHashed, Matches::kNone,
                        "empty build side");
}

// --- Dense vs hashed joins and groupings -----------------------------------
//
// A join whose key is one column, type-uniform with one type on both sides
// and narrow on the build side, chains build rows from a head array; a
// projection onto one such column groups through a direct-address array.
// Each case checks the operators against the references, in one lane and
// in two, and checks through the operators' path reports which path ran.

/// One key value per row.
using ValueGen = std::function<Value(Rng*, size_t row)>;

/// Integers in [lo, lo + count).
ValueGen IntsFrom(int64_t lo, int64_t count) {
  return [lo, count](Rng* rng, size_t) {
    return Value::Int64(lo + static_cast<int64_t>(rng->NextBounded(count)));
  };
}

/// Dictionary codes in [0, count).
ValueGen CodesBelow(int64_t count) {
  return [count](Rng* rng, size_t) {
    return Value::StringCode(static_cast<int64_t>(rng->NextBounded(count)));
  };
}

/// Integers in [0, 64) with every third row a dictionary code in [0, 4):
/// the column is not type-uniform, and both types keep matches.
Value MixedValue(Rng* rng, size_t row) {
  if (row % 3 == 2) {
    return Value::StringCode(static_cast<int64_t>(rng->NextBounded(4)));
  }
  return Value::Int64(static_cast<int64_t>(rng->NextBounded(64)));
}

/// `rows` rows over the two variables `vars`: `vars[key_col]` drawn by
/// `key`, the other from [1, 8]. U[0,1] scores, and with `two_lanes` a
/// second U[0,1] lane.
Rel KeyedRel(Rng* rng, const std::vector<VarId>& vars, int key_col,
             size_t rows, const ValueGen& key, bool two_lanes) {
  Rel lane1(vars);
  std::vector<Value> row(2);
  for (size_t r = 0; r < rows; ++r) {
    row[key_col] = key(rng, r);
    row[1 - key_col] =
        Value::Int64(1 + static_cast<int64_t>(rng->NextBounded(8)));
    lane1.AddRow(row, rng->NextDouble());
  }
  if (!two_lanes) return lane1;
  auto lane2 = std::make_shared<WeightColumn>();
  for (size_t r = 0; r < rows; ++r) lane2->Append(rng->NextDouble());
  return Rel::FromColumns(vars, {lane1.col(0), lane1.col(1)},
                          lane1.weights(), rows, std::move(lane2));
}

/// The reference relation of `r`'s lane 2.
RefRel Lane2Ref(const Rel& r) {
  RefRel out = ToRef(r);
  for (size_t i = 0; i < out.scores.size(); ++i) {
    out.scores[i] = r.Lane2OrScores()[i];
  }
  return out;
}

enum class IndexPath { kDense, kHashed };

/// Joins B(x,y) (`build_rows` rows, y drawn by `build_key`) as the build
/// side with P(y,z) (`probe_rows` rows, y drawn by `probe_key`) over a few
/// seeds, in one lane and in two. Each join must take `path` and match
/// RefJoin in every lane and RefSortJoin row for row; over the seeds the
/// joins emit some rows (kSome) or none (kNone).
void ExpectJoinOnPath(size_t build_rows, const ValueGen& build_key,
                      size_t probe_rows, const ValueGen& probe_key,
                      IndexPath path, Matches matches,
                      const std::string& context) {
  size_t emitted = 0;
  for (bool two_lanes : {false, true}) {
    for (int seed = 0; seed < 4; ++seed) {
      Rng rng(9300 + seed);
      Rel build = KeyedRel(&rng, {0, 1}, 1, build_rows, build_key, two_lanes);
      Rel probe = KeyedRel(&rng, {1, 2}, 0, probe_rows, probe_key, two_lanes);
      const std::string where = context + (two_lanes ? ", two lanes" : "") +
                                " seed " + std::to_string(seed);
      JoinPath jp;
      Rel out = HashJoinBuildProbe(build, probe, nullptr, &jp);
      EXPECT_EQ(jp.dense_index, path == IndexPath::kDense) << where;
      ExpectSameRelation(ToRef(out), RefJoin(ToRef(build), ToRef(probe)),
                         where);
      ExpectSameRowForRow(ToRef(out), RefSortJoin(ToRef(build), ToRef(probe)),
                          where);
      if (two_lanes) {
        ASSERT_NE(out.lane2(), nullptr) << where;
        ExpectSameRelation(Lane2Ref(out),
                           RefJoin(Lane2Ref(build), Lane2Ref(probe)), where);
      }
      emitted += out.NumRows();
    }
  }
  if (matches == Matches::kSome) {
    EXPECT_GT(emitted, 0u) << context;
  } else {
    EXPECT_EQ(emitted, 0u) << context;
  }
}

/// Groups `rows` rows of R(x,y) by x (drawn by `key`) over a few seeds, in
/// one lane and in two, with both projections. Each grouping must take
/// `path` and match RefProject row for row, in first-occurrence order with
/// the same score bits.
void ExpectGroupingOnPath(size_t rows, const ValueGen& key, IndexPath path,
                          const std::string& context) {
  for (bool two_lanes : {false, true}) {
    for (int seed = 0; seed < 4; ++seed) {
      Rng rng(9400 + seed);
      Rel in = KeyedRel(&rng, {0, 1}, 0, rows, key, two_lanes);
      const std::string where = context + (two_lanes ? ", two lanes" : "") +
                                " seed " + std::to_string(seed);
      bool dense = path != IndexPath::kDense;
      Rel out = ProjectIndependent(in, MaskOf(0), nullptr, nullptr, &dense);
      EXPECT_EQ(dense, path == IndexPath::kDense) << where;
      ExpectSameRowForRow(ToRef(out), RefProject(ToRef(in), MaskOf(0), true),
                          where);
      if (two_lanes) {
        ASSERT_NE(out.lane2(), nullptr) << where;
        ExpectSameRowForRow(Lane2Ref(out),
                            RefProject(Lane2Ref(in), MaskOf(0), true), where);
      }
      ExpectSameRowForRow(ToRef(ProjectDistinct(in, MaskOf(0))),
                          RefProject(ToRef(in), MaskOf(0), false),
                          where + ", distinct");
    }
  }
}

/// The dense cases, then the cases the rule sends to the hash path.
void ExpectJoinAndGroupingCases(const std::string& context) {
  // Probe keys reach below and above the build's range [100, 164).
  ExpectJoinOnPath(48, IntsFrom(100, 64), 64, IntsFrom(80, 104),
                   IndexPath::kDense, Matches::kSome,
                   context + " narrow ints");
  // Negative integers sit at the top of the unsigned raw-bit order; their
  // offsets from the minimum stay small, and positive probes lie outside.
  ExpectJoinOnPath(48, IntsFrom(-64, 64), 64, IntsFrom(-80, 96),
                   IndexPath::kDense, Matches::kSome,
                   context + " negative ints");
  ExpectJoinOnPath(48, CodesBelow(64), 64, CodesBelow(80), IndexPath::kDense,
                   Matches::kSome, context + " strings");
  // The same raw bits on both sides, but an integer never equals a string.
  ExpectJoinOnPath(48, IntsFrom(0, 8), 64, CodesBelow(8), IndexPath::kHashed,
                   Matches::kNone, context + " int build, string probe");
  ExpectJoinOnPath(48, MixedValue, 64, MixedValue, IndexPath::kHashed,
                   Matches::kSome, context + " mixed-type columns");
  ExpectJoinOnPath(48, IntsFrom(0, 64), 64, MixedValue, IndexPath::kHashed,
                   Matches::kSome, context + " mixed-type probe column");

  ExpectGroupingOnPath(96, IntsFrom(100, 64), IndexPath::kDense,
                       context + " narrow ints");
  ExpectGroupingOnPath(96, IntsFrom(-64, 64), IndexPath::kDense,
                       context + " negative ints");
  ExpectGroupingOnPath(96, CodesBelow(64), IndexPath::kDense,
                       context + " strings");
  ExpectGroupingOnPath(96, MixedValue, IndexPath::kHashed,
                       context + " mixed-type column");
  // A range below 2^22 whose array (2^21 + 1 slots) dwarfs the six rows.
  ExpectGroupingOnPath(
      6,
      [](Rng* rng, size_t row) {
        return Value::Int64(row == 0 ? int64_t{1} << 21
                                     : static_cast<int64_t>(rng->NextBounded(4)));
      },
      IndexPath::kHashed, context + " wide range, few rows");
}

TEST(DenseJoinAndGroupingTest, MatchReferences) {
  ExpectJoinAndGroupingCases("");
}

TEST(DenseJoinAndGroupingTest, DenseRangeSpansSeveralZoneMaps) {
  // 8-row chunks: each key range is the union of several chunks' zone
  // maps, and probes walk chunk spans across seams.
  ChunkCapOverride cap(8);
  ExpectJoinAndGroupingCases("8-row chunks");
}

}  // namespace
}  // namespace dissodb
