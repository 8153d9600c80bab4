// Schema knowledge (Section 3.3): deterministic relations and functional
// dependencies can make a #P-hard query safe — and the plan enumeration
// recognizes it, returning a single exact plan.
//
// Scenario: a product catalog where the Category table is deterministic
// (curated, no uncertainty) and a registration table satisfies an FD.
#include <cstdio>

#include "src/dissodb.h"

using namespace dissodb;  // NOLINT: example brevity

void Report(const char* title, const ConjunctiveQuery& q,
            const SchemaKnowledge& sk, const Database& db) {
  auto plans = EnumerateMinimalPlans(q, sk);
  std::printf("%s\n  plans: %zu%s\n", title, plans->size(),
              plans->size() == 1 ? "  -> SAFE (exact)" : "  -> unsafe");
  for (const auto& p : *plans) {
    std::printf("    %s\n", PlanToString(p, q).c_str());
  }
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(q);
  auto rho = prepared.ok() ? engine.Execute(*prepared)
                           : Result<QueryResult>(prepared.status());
  auto exact = ExactProbabilities(db, q);
  double r = rho->answers.empty() ? 0 : rho->answers[0].score;
  double e = exact->empty() ? 0 : (*exact)[0].score;
  std::printf("  rho(q) = %.6f, exact = %.6f%s\n\n", r, e,
              std::abs(r - e) < 1e-9 ? "  (equal)" : "");
}

int main() {
  // q() :- Review(prod), InCategory(prod, cat), Category(cat)
  auto q = ParseQuery("q() :- Review(x), InCategory(x,y), Category(y)");

  // Database: reviews are uncertain; category assignments are uncertain;
  // the category list itself is curated (deterministic).
  auto build = [&](bool det_category, bool fd_on_incategory) {
    Database db;
    Table r(RelationSchema::AllInt64("Review", 1));
    r.AddRow({Value::Int64(1)}, 0.9);
    r.AddRow({Value::Int64(2)}, 0.6);
    r.AddRow({Value::Int64(3)}, 0.4);
    RelationSchema ic_schema = RelationSchema::AllInt64("InCategory", 2);
    if (fd_on_incategory) {
      // Every product belongs to exactly one category: prod -> cat.
      ic_schema.fds.push_back(FunctionalDependency{{0}, {1}});
    }
    Table ic(ic_schema);
    ic.AddRow({Value::Int64(1), Value::Int64(10)}, 0.8);
    ic.AddRow({Value::Int64(2), Value::Int64(10)}, 0.7);
    ic.AddRow({Value::Int64(3), Value::Int64(20)}, 0.9);
    if (!fd_on_incategory) {
      ic.AddRow({Value::Int64(1), Value::Int64(20)}, 0.5);  // violates FD
    }
    Table c(RelationSchema::AllInt64("Category", 1, det_category));
    c.AddRow({Value::Int64(10)}, det_category ? 1.0 : 0.95);
    c.AddRow({Value::Int64(20)}, det_category ? 1.0 : 0.85);
    (void)db.AddTable(std::move(r));
    (void)db.AddTable(std::move(ic));
    (void)db.AddTable(std::move(c));
    return db;
  };

  std::printf("query: %s\n", (*q).ToString().c_str());
  std::printf("hierarchical: %s -> #P-hard without schema knowledge\n\n",
              IsHierarchical(*q) ? "yes" : "no");

  {
    Database db = build(false, false);
    auto sk = SchemaKnowledge::FromSnapshot(*q, db.snapshot());
    Report("1) No schema knowledge:", *q, *sk, db);
  }
  {
    Database db = build(true, false);
    auto sk = SchemaKnowledge::FromSnapshot(*q, db.snapshot());
    Report("2) Category is deterministic (Section 3.3.1):", *q, *sk, db);
  }
  {
    Database db = build(false, true);
    const Snapshot snap = db.snapshot();
    auto st = (*snap.GetTable("InCategory"))->ValidateFDs();
    std::printf("   (FD prod -> cat validated on data: %s)\n",
                st.ok() ? "holds" : st.ToString().c_str());
    auto sk = SchemaKnowledge::FromSnapshot(*q, snap);
    Report("3) InCategory satisfies FD prod -> cat (Section 3.3.2):", *q,
           *sk, db);
  }
  return 0;
}
