#include "src/plan/sql_gen.h"

#include <unordered_map>

#include "src/common/string_util.h"

namespace dissodb {

namespace {

struct SqlGenerator {
  const ConjunctiveQuery& q;
  const Snapshot snap;
  const SqlGenOptions& opts;

  std::vector<std::string> ctes;
  std::unordered_map<const PlanNode*, std::string> names;  // node -> CTE name
  std::unordered_map<const PlanNode*, VarMask> actual;     // real columns
  int counter = 0;

  std::string VarName(VarId v) { return q.var_name(v); }

  std::string ColumnList(VarMask m) {
    std::vector<std::string> cols;
    for (VarId v : MaskToVars(m)) cols.push_back(VarName(v));
    return cols.empty() ? "1 AS dummy" : Join(cols, ", ");
  }

  /// Emits a CTE for `p` and returns its name; actual[] gets the real
  /// (non-virtual) columns the CTE exposes.
  std::string Emit(const PlanPtr& p) {
    auto it = names.find(p.get());
    if (it != names.end()) return it->second;
    std::string name;
    std::string body;
    switch (p->kind) {
      case PlanNode::Kind::kScan: {
        const Atom& a = q.atom(p->atom_idx);
        int tidx = snap.FindTable(a.relation);
        const RelationSchema* schema =
            tidx >= 0 ? &snap.table(tidx).schema() : nullptr;
        std::vector<std::string> sel;
        std::vector<std::string> where;
        std::unordered_map<VarId, std::string> first_col;
        for (int i = 0; i < a.arity(); ++i) {
          std::string col = schema ? schema->column_names[i]
                                   : "c" + std::to_string(i);
          const Term& t = a.terms[i];
          if (t.is_var) {
            auto fit = first_col.find(t.var);
            if (fit == first_col.end()) {
              first_col[t.var] = col;
              sel.push_back(col + " AS " + VarName(t.var));
            } else {
              where.push_back(col + " = " + fit->second);
            }
          } else {
            where.push_back(col + " = " + ConstSql(t.constant));
          }
        }
        sel.push_back(opts.prob_column);
        body = "SELECT " + Join(sel, ", ") + " FROM " + a.relation;
        if (!where.empty()) body += " WHERE " + Join(where, " AND ");
        VarMask real = 0;
        for (auto& [v, _] : first_col) real |= MaskOf(v);
        actual[p.get()] = real;
        name = "scan_" + a.relation;
        break;
      }
      case PlanNode::Kind::kProject: {
        std::string child = Emit(p->children[0]);
        VarMask child_real = actual[p->children[0].get()];
        VarMask keep = p->head & child_real;
        actual[p.get()] = keep;
        std::string agg = StrFormat(
            "1.0 - EXP(SUM(LN(GREATEST(%g, 1.0 - %s)))) AS %s",
            opts.ln_guard, opts.prob_column.c_str(), opts.prob_column.c_str());
        if (keep == 0) {
          body = "SELECT " + agg + " FROM " + child;
        } else {
          body = "SELECT " + ColumnList(keep) + ", " + agg + " FROM " + child +
                 " GROUP BY " + ColumnList(keep);
        }
        name = "proj";
        break;
      }
      case PlanNode::Kind::kJoin: {
        std::vector<std::string> childs;
        std::vector<VarMask> reals;
        for (const auto& c : p->children) {
          childs.push_back(Emit(c));
          reals.push_back(actual[c.get()]);
        }
        VarMask all_real = 0;
        for (VarMask r : reals) all_real |= r;
        actual[p.get()] = all_real;
        // SELECT: each real var from the first child exposing it.
        std::vector<std::string> sel;
        for (VarId v : MaskToVars(all_real)) {
          for (size_t i = 0; i < childs.size(); ++i) {
            if (MaskContains(reals[i], v)) {
              sel.push_back(StrFormat("t%zu.%s AS %s", i, VarName(v).c_str(),
                                      VarName(v).c_str()));
              break;
            }
          }
        }
        std::vector<std::string> probs;
        for (size_t i = 0; i < childs.size(); ++i) {
          probs.push_back(StrFormat("t%zu.%s", i, opts.prob_column.c_str()));
        }
        sel.push_back(Join(probs, " * ") + " AS " + opts.prob_column);
        std::vector<std::string> from;
        std::vector<std::string> on;
        VarMask seen = 0;
        for (size_t i = 0; i < childs.size(); ++i) {
          from.push_back(childs[i] + " AS t" + std::to_string(i));
          VarMask shared = reals[i] & seen;
          for (VarId v : MaskToVars(shared)) {
            // Join to the first child exposing v.
            for (size_t j = 0; j < i; ++j) {
              if (MaskContains(reals[j], v)) {
                on.push_back(StrFormat("t%zu.%s = t%zu.%s", i,
                                       VarName(v).c_str(), j,
                                       VarName(v).c_str()));
                break;
              }
            }
          }
          seen |= reals[i];
        }
        body = "SELECT " + Join(sel, ", ") + " FROM " + Join(from, ", ");
        if (!on.empty()) body += " WHERE " + Join(on, " AND ");
        name = "join";
        break;
      }
      case PlanNode::Kind::kMin: {
        std::vector<std::string> childs;
        for (const auto& c : p->children) childs.push_back(Emit(c));
        VarMask real = actual[p->children[0].get()];
        actual[p.get()] = real;
        // All children return the same answer set; join them on the head and
        // take LEAST of the probabilities (Opt. 1's min operator).
        std::vector<std::string> sel;
        for (VarId v : MaskToVars(real)) {
          sel.push_back("t0." + VarName(v) + " AS " + VarName(v));
        }
        std::vector<std::string> probs;
        for (size_t i = 0; i < childs.size(); ++i) {
          probs.push_back(StrFormat("t%zu.%s", i, opts.prob_column.c_str()));
        }
        sel.push_back("LEAST(" + Join(probs, ", ") + ") AS " +
                      opts.prob_column);
        std::vector<std::string> from;
        std::vector<std::string> on;
        for (size_t i = 0; i < childs.size(); ++i) {
          from.push_back(childs[i] + " AS t" + std::to_string(i));
          if (i == 0) continue;
          for (VarId v : MaskToVars(real)) {
            on.push_back(StrFormat("t%zu.%s = t0.%s", i, VarName(v).c_str(),
                                   VarName(v).c_str()));
          }
        }
        body = "SELECT " + Join(sel, ", ") + " FROM " + Join(from, ", ");
        if (!on.empty()) body += " WHERE " + Join(on, " AND ");
        name = "minp";
        break;
      }
    }
    name = StrFormat("%s_%d", name.c_str(), ++counter);
    names[p.get()] = name;
    ctes.push_back(name + " AS (\n  " + body + "\n)");
    return name;
  }

  std::string ConstSql(const Value& v) {
    switch (v.type()) {
      case ValueType::kInt64:
        return std::to_string(v.AsInt64());
      case ValueType::kDouble:
        return StrFormat("%g", v.AsDouble());
      case ValueType::kString:
        return "'" + snap.strings().Get(v.AsStringCode()) + "'";
    }
    return "NULL";
  }
};

}  // namespace

std::string PlanToSql(const PlanPtr& plan, const ConjunctiveQuery& q,
                      const Database& db, const SqlGenOptions& opts) {
  SqlGenerator gen{q, db.snapshot(), opts, {}, {}, {}, 0};
  std::string root = gen.Emit(plan);
  std::string out = "WITH\n" + Join(gen.ctes, ",\n") + "\nSELECT * FROM " +
                    root + " ORDER BY " + opts.prob_column + " DESC;";
  return out;
}

}  // namespace dissodb
