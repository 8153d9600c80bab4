// Uncertain knowledge-base scenario (the paper's motivation: NELL, Yago,
// Knowledge Vault): facts extracted from text carry confidences; queries
// must rank answers by probability.
//
// Schema:
//   Scientist(person)            - confidence the entity is a scientist
//   WorksAt(person, inst)        - extracted affiliations
//   LocatedIn(inst, city)        - extracted locations
//
// Query: which cities likely host an institution employing a scientist?
//   q(city) :- Scientist(p), WorksAt(p, i), LocatedIn(i, city)
// This is an unsafe (#P-hard) chain query; dissociation ranks the cities.
#include <cstdio>

#include "src/dissodb.h"

using namespace dissodb;  // NOLINT: example brevity

int main() {
  Database db;
  StringPool* pool = db.strings();

  auto str = [&](const char* s) { return Value::StringCode(pool->Intern(s)); };

  {
    RelationSchema s;
    s.name = "Scientist";
    s.column_names = {"person"};
    s.column_types = {ValueType::kString};
    Table t(s);
    t.AddRow({str("ada")}, 0.95);
    t.AddRow({str("grace")}, 0.9);
    t.AddRow({str("alan")}, 0.85);
    t.AddRow({str("erwin")}, 0.6);
    t.AddRow({str("marie")}, 0.97);
    (void)db.AddTable(std::move(t));
  }
  {
    RelationSchema s;
    s.name = "WorksAt";
    s.column_names = {"person", "inst"};
    s.column_types = {ValueType::kString, ValueType::kString};
    Table t(s);
    t.AddRow({str("ada"), str("analytical_soc")}, 0.7);
    t.AddRow({str("grace"), str("navy_lab")}, 0.8);
    t.AddRow({str("grace"), str("harvard")}, 0.5);
    t.AddRow({str("alan"), str("bletchley")}, 0.9);
    t.AddRow({str("alan"), str("cambridge")}, 0.4);
    t.AddRow({str("erwin"), str("dublin_inst")}, 0.75);
    t.AddRow({str("marie"), str("sorbonne")}, 0.85);
    t.AddRow({str("marie"), str("radium_inst")}, 0.9);
    (void)db.AddTable(std::move(t));
  }
  {
    RelationSchema s;
    s.name = "LocatedIn";
    s.column_names = {"inst", "city"};
    s.column_types = {ValueType::kString, ValueType::kString};
    Table t(s);
    t.AddRow({str("analytical_soc"), str("london")}, 0.8);
    t.AddRow({str("navy_lab"), str("washington")}, 0.9);
    t.AddRow({str("harvard"), str("cambridge_ma")}, 0.95);
    t.AddRow({str("bletchley"), str("london")}, 0.6);
    t.AddRow({str("cambridge"), str("cambridge_uk")}, 0.95);
    t.AddRow({str("dublin_inst"), str("dublin")}, 0.9);
    t.AddRow({str("sorbonne"), str("paris")}, 0.95);
    t.AddRow({str("radium_inst"), str("paris")}, 0.9);
    (void)db.AddTable(std::move(t));
  }

  auto q = ParseQuery("q(city) :- Scientist(p), WorksAt(p, i), LocatedIn(i, city)",
                      pool);
  if (!q.ok()) {
    std::printf("parse error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n", q->ToString().c_str());
  std::printf("hierarchical (safe): %s\n\n", IsHierarchical(*q) ? "yes" : "no");

  // The engine facade ranks answers by propagation score.
  QueryEngine engine = QueryEngine::Borrow(db);
  auto prepared = engine.Prepare(*q);
  auto diss = prepared.ok() ? engine.Execute(*prepared)
                            : Result<QueryResult>(prepared.status());
  if (!diss.ok()) {
    std::printf("query failed: %s\n", diss.status().ToString().c_str());
    return 1;
  }
  std::printf("cities ranked by propagation score (upper bound):\n%s\n",
              RankingToString(diss->answers, db.snapshot()).c_str());

  auto exact = ExactProbabilities(db, *q);
  std::printf("cities ranked by exact probability (ground truth):\n%s\n",
              RankingToString(*exact, db.snapshot()).c_str());

  auto gt = AlignScores(*exact, *exact);
  auto ds = AlignScores(*exact, diss->answers);
  std::printf("AP@10 of the dissociation ranking: %.4f\n",
              AveragePrecisionAtK(gt, ds));
  for (size_t i = 0; i < gt.size(); ++i) {
    if (ds[i] + 1e-12 < gt[i]) {
      std::printf("BOUND VIOLATION at answer %zu!\n", i);
      return 1;
    }
  }
  std::printf("upper-bound property verified for every city.\n");
  return 0;
}
