#include "src/workload/tpch.h"

#include <algorithm>
#include <memory>

#include "src/common/rng.h"
#include "src/common/string_util.h"

namespace dissodb {

const std::vector<std::string>& TpchColorWords() {
  static const std::vector<std::string> kColors = {
      "almond",     "antique",    "aquamarine", "azure",      "beige",
      "bisque",     "black",      "blanched",   "blue",       "blush",
      "brown",      "burlywood",  "burnished",  "chartreuse", "chiffon",
      "chocolate",  "coral",      "cornflower", "cornsilk",   "cream",
      "cyan",       "dark",       "deep",       "dim",        "dodger",
      "drab",       "firebrick",  "floral",     "forest",     "frosted",
      "gainsboro",  "ghost",      "goldenrod",  "green",      "grey",
      "honeydew",   "hot",        "indian",     "ivory",      "khaki",
      "lace",       "lavender",   "lawn",       "lemon",      "light",
      "lime",       "linen",      "magenta",    "maroon",     "medium",
      "metallic",   "midnight",   "mint",       "misty",      "moccasin",
      "navajo",     "navy",       "olive",      "orange",     "orchid",
      "pale",       "papaya",     "peach",      "peru",       "pink",
      "plum",       "powder",     "puff",       "purple",     "red",
      "rose",       "rosy",       "royal",      "saddle",     "salmon",
      "sandy",      "seashell",   "sienna",     "sky",        "slate",
      "smoke",      "snow",       "spring",     "steel",      "tan",
      "thistle",    "tomato",     "turquoise",  "violet",     "wheat",
      "white",      "yellow"};
  return kColors;
}

Database MakeTpchDatabase(const TpchOptions& opts) {
  Database db;
  Rng rng(opts.seed);

  const int64_t num_suppliers =
      std::max<int64_t>(4, static_cast<int64_t>(10000 * opts.scale));
  const int64_t num_parts =
      std::max<int64_t>(4, static_cast<int64_t>(200000 * opts.scale));
  const auto& colors = TpchColorWords();

  // Supplier(suppkey INT64, nationkey INT64).
  {
    RelationSchema s;
    s.name = "Supplier";
    s.column_names = {"s_suppkey", "s_nationkey"};
    s.column_types = {ValueType::kInt64, ValueType::kInt64};
    Table t(s);
    for (int64_t k = 1; k <= num_suppliers; ++k) {
      t.AddRow({Value::Int64(k), Value::Int64(rng.NextInt(0, 24))},
               rng.NextDouble() * opts.pi_max);
    }
    auto r = db.AddTable(std::move(t));
    (void)r;
  }
  // Part(partkey INT64, name STRING): five distinct color words.
  {
    RelationSchema s;
    s.name = "Part";
    s.column_names = {"p_partkey", "p_name"};
    s.column_types = {ValueType::kInt64, ValueType::kString};
    Table t(s);
    for (int64_t k = 1; k <= num_parts; ++k) {
      // Sample 5 distinct color indices.
      int idx[5];
      int chosen = 0;
      while (chosen < 5) {
        int c = static_cast<int>(rng.NextBounded(colors.size()));
        bool dup = false;
        for (int j = 0; j < chosen; ++j) dup |= idx[j] == c;
        if (!dup) idx[chosen++] = c;
      }
      std::string name = colors[idx[0]];
      for (int j = 1; j < 5; ++j) name += " " + colors[idx[j]];
      t.AddRow({Value::Int64(k), db.Str(name)}, rng.NextDouble() * opts.pi_max);
    }
    auto r = db.AddTable(std::move(t));
    (void)r;
  }
  // Partsupp(suppkey INT64, partkey INT64): 4 suppliers per part using the
  // TPC-H supplier-assignment formula.
  {
    RelationSchema s;
    s.name = "Partsupp";
    s.column_names = {"ps_suppkey", "ps_partkey"};
    s.column_types = {ValueType::kInt64, ValueType::kInt64};
    Table t(s);
    const int64_t S = num_suppliers;
    for (int64_t p = 1; p <= num_parts; ++p) {
      int64_t supps[4];
      int n_supps = 0;
      for (int64_t i = 0; i < 4; ++i) {
        // TPC-H supplier-assignment formula; at tiny scale factors the four
        // assignments can collide, and a probabilistic DB is a set of
        // tuples, so duplicates are skipped.
        int64_t supp = (p + i * (S / 4 + (p - 1) / S)) % S + 1;
        bool dup = false;
        for (int j = 0; j < n_supps; ++j) dup |= supps[j] == supp;
        if (dup) continue;
        supps[n_supps++] = supp;
        t.AddRow({Value::Int64(supp), Value::Int64(p)},
                 rng.NextDouble() * opts.pi_max);
      }
    }
    auto r = db.AddTable(std::move(t));
    (void)r;
  }
  return db;
}

ConjunctiveQuery TpchQuery() {
  ConjunctiveQuery q;
  q.SetName("Q");
  VarId s = q.AddVar("s");
  VarId a = q.AddVar("a");
  VarId u = q.AddVar("u");
  VarId m = q.AddVar("m");
  Status st = q.AddHeadVar(a);
  Atom supplier;
  supplier.relation = "Supplier";
  supplier.terms = {Term::Var(s), Term::Var(a)};
  st = q.AddAtom(supplier);
  Atom partsupp;
  partsupp.relation = "Partsupp";
  partsupp.terms = {Term::Var(s), Term::Var(u)};
  st = q.AddAtom(partsupp);
  Atom part;
  part.relation = "Part";
  part.terms = {Term::Var(u), Term::Var(m)};
  st = q.AddAtom(part);
  (void)st;
  return q;
}

Result<std::unique_ptr<TpchSelections>> MakeTpchSelections(
    const Database& db, int64_t dollar1, const std::string& dollar2) {
  const Snapshot snap = db.snapshot();
  auto supplier = snap.GetTable("Supplier");
  if (!supplier.ok()) return supplier.status();
  auto part = snap.GetTable("Part");
  if (!part.ok()) return part.status();

  Table s = (*supplier)->Filter([&](std::span<const Value> row) {
    return row[0].AsInt64() <= dollar1;
  });
  const StringPool& pool = snap.strings();
  Table p = (*part)->Filter([&](std::span<const Value> row) {
    return LikeMatch(pool.Get(row[1].AsStringCode()), dollar2);
  });
  return std::make_unique<TpchSelections>(std::move(s), std::move(p));
}

}  // namespace dissodb
