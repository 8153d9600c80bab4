// Quickstart: build a probabilistic database, run an unsafe query, compare
// the dissociation upper bound with the exact probability.
//
//   $ ./quickstart
//
// The query q() :- R(x), S(x,y), T(y) is the canonical #P-hard query: its
// probability cannot be computed efficiently in general, but every query
// plan gives an upper bound and the propagation score (the minimum over all
// minimal plans) is usually very close.
#include <cstdio>

#include "src/dissodb.h"

using namespace dissodb;  // NOLINT: example brevity

int main() {
  // 1. A tuple-independent probabilistic database: every tuple carries the
  //    probability that it exists; tuples are independent.
  Database db;
  {
    Table r(RelationSchema::AllInt64("R", 1));
    r.AddRow({Value::Int64(1)}, 0.7);
    r.AddRow({Value::Int64(2)}, 0.5);
    Table s(RelationSchema::AllInt64("S", 2));
    s.AddRow({Value::Int64(1), Value::Int64(10)}, 0.9);
    s.AddRow({Value::Int64(1), Value::Int64(20)}, 0.4);
    s.AddRow({Value::Int64(2), Value::Int64(20)}, 0.8);
    Table t(RelationSchema::AllInt64("T", 1));
    t.AddRow({Value::Int64(10)}, 0.6);
    t.AddRow({Value::Int64(20)}, 0.3);
    (void)db.AddTable(std::move(r));
    (void)db.AddTable(std::move(s));
    (void)db.AddTable(std::move(t));
  }

  // 2. Parse a query in datalog syntax.
  const char* kQueryText = "q() :- R(x), S(x,y), T(y)";
  auto q = ParseQuery(kQueryText);
  if (!q.ok()) {
    std::printf("parse error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  std::printf("query:  %s\n", q->ToString().c_str());
  std::printf("safe:   %s (hierarchical: %s)\n\n",
              IsHierarchical(*q) ? "yes" : "no",
              IsHierarchical(*q) ? "yes" : "no");

  // 3. Enumerate the minimal plans (Algorithm 1). Each plan is an upper
  //    bound; a safe query would have exactly one plan, which is exact.
  auto plans = EnumerateMinimalPlans(*q);
  std::printf("minimal plans (%zu):\n", plans->size());
  for (const auto& p : *plans) {
    auto scores = PlanScore(db, *q, p);
    std::printf("  %-55s score = %.6f\n", PlanToString(p, *q).c_str(),
                scores->empty() ? 0.0 : (*scores)[0].score);
  }

  // 4. The propagation score through the QueryEngine facade: one object
  //    owning parse -> plan choice -> vectorized evaluation, with compiled
  //    plans cached across calls (safe for concurrent readers). Prepare
  //    compiles once; Execute evaluates.
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(kQueryText);
  if (!prepared.ok()) {
    std::printf("query failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  auto result = engine.Execute(*prepared);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  // A Boolean query has one answer, or none when no world satisfies it.
  const double rho =
      result->answers.empty() ? 0.0 : result->answers[0].score;
  std::printf("\npropagation score rho(q) = %.6f\n", rho);
  auto again = engine.Prepare(kQueryText);  // plan-cache hit
  if (again.ok()) (void)engine.Execute(*again);
  auto stats = engine.stats();
  std::printf("engine: %zu queries, %zu plan-cache hits, %zu misses\n",
              stats.queries, stats.plan_cache_hits, stats.plan_cache_misses);

  // 5. Ground truth by exact weighted model counting on the lineage.
  auto exact = ExactProbabilities(db, *q);
  double p_exact = exact->empty() ? 0.0 : (*exact)[0].score;
  std::printf("exact probability  P(q) = %.6f\n", p_exact);
  std::printf("relative error           = %.2f%%\n",
              100.0 * (rho - p_exact) / p_exact);

  // 6. The generated SQL, as it would be pushed into an external DBMS.
  auto sk = SchemaKnowledge::FromSnapshot(*q, db.snapshot());
  auto single = lift::CompileSafePlan(*q, *sk);
  std::printf("\nsingle combined plan (Opt. 1+2):\n%s\n",
              PlanToTreeString(single->plan, *q).c_str());
  std::printf("equivalent SQL:\n%s\n",
              PlanToSql(single->plan, *q, db).c_str());
  return 0;
}
