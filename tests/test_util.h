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
