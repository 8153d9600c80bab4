// Shared helpers for DissoDB tests.
#ifndef DISSODB_TESTS_TEST_UTIL_H_
#define DISSODB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/query/cq.h"
#include "src/query/parser.h"
#include "src/storage/columnar.h"
#include "src/storage/database.h"

namespace dissodb {
namespace testing_util {

/// Scoped override of the default Column chunk capacity, so chunk-seam
/// behavior is exercisable on small inputs. Columns capture the capacity
/// at construction; build all test inputs while the override is alive.
class ChunkCapOverride {
 public:
  explicit ChunkCapOverride(size_t cap)
      : old_(Column::default_chunk_capacity()) {
    Column::SetDefaultChunkCapacityForTesting(cap);
  }
  ~ChunkCapOverride() { Column::SetDefaultChunkCapacityForTesting(old_); }

  ChunkCapOverride(const ChunkCapOverride&) = delete;
  ChunkCapOverride& operator=(const ChunkCapOverride&) = delete;

 private:
  size_t old_;
};

/// Parses a query or fails the test.
inline ConjunctiveQuery Q(const std::string& text, StringPool* pool = nullptr) {
  auto r = ParseQuery(text, pool);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.ok() ? *r : ConjunctiveQuery{};
}

/// Adds an all-INT64 table named `name` with the given rows/probabilities.
inline void AddTable(Database* db, const std::string& name, int arity,
                     const std::vector<std::pair<std::vector<int64_t>, double>>&
                         rows,
                     bool deterministic = false) {
  Table t(RelationSchema::AllInt64(name, arity, deterministic));
  for (const auto& [vals, p] : rows) {
    std::vector<Value> row;
    for (int64_t v : vals) row.push_back(Value::Int64(v));
    t.AddRow(row, p);
  }
  auto r = db->AddTable(std::move(t));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

/// Keys times 2^23 span more than the 2^22 range of the dense semi-join,
/// join and grouping (kDenseMaxRange), so operators over them hash their
/// keys.
inline constexpr int64_t kWideKeyStride = int64_t{1} << 23;

/// R(x), S(x,y), T(y) with 5000 rows each, so reductions clear the
/// semi-join's 4096-row Bloom rule. Keys are multiples of kWideKeyStride,
/// so every pair is hashed. In units of kWideKeyStride,
/// half the keys of every pair dangle:
///   R(x):   x in [0, 5000)
///   S(x,y): (i + 2500, i) for i in [0, 5000)
///   T(y):   y in [1250, 6250)
/// Only x in [3750, 5000) and y in [1250, 2500) join all the way, so 1250
/// rows of each relation survive the reduction.
inline Database WideKeyBloomDatabase() {
  constexpr int64_t k = kWideKeyStride;
  constexpr int64_t n = 5000;
  std::vector<std::pair<std::vector<int64_t>, double>> r, s, t;
  for (int64_t i = 0; i < n; ++i) {
    r.push_back({{i * k}, 0.5});
    s.push_back({{(i + 2500) * k, i * k}, 0.5});
    t.push_back({{(i + 1250) * k}, 0.5});
  }
  Database db;
  AddTable(&db, "R", 1, r);
  AddTable(&db, "S", 2, s);
  AddTable(&db, "T", 1, t);
  return db;
}

/// Prepare + Execute: compiles `query` (datalog text or a parsed query) on
/// `engine` and executes it once with `bindings`.
template <class Query>
Result<QueryResult> PrepareAndExecute(QueryEngine& engine, const Query& query,
                                      const Bindings& bindings = {}) {
  auto prepared = engine.Prepare(query);
  if (!prepared.ok()) return prepared.status();
  return engine.Execute(*prepared, bindings);
}

/// The VarMask of named variables in q.
inline VarMask Vars(const ConjunctiveQuery& q,
                    std::initializer_list<const char*> names) {
  VarMask m = 0;
  for (const char* n : names) {
    VarId v = q.FindVar(n);
    EXPECT_GE(v, 0) << "unknown variable " << n;
    if (v >= 0) m |= MaskOf(v);
  }
  return m;
}

}  // namespace testing_util
}  // namespace dissodb

#endif  // DISSODB_TESTS_TEST_UTIL_H_
