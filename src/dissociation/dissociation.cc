#include "src/dissociation/dissociation.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "src/common/string_util.h"

namespace dissodb {

Dissociation Dissociation::Top(const ConjunctiveQuery& q) {
  Dissociation d = Empty(q);
  VarMask evars = q.EVarMask();
  for (int i = 0; i < q.num_atoms(); ++i) {
    d.extra[i] = evars & ~q.AtomMask(i);
  }
  return d;
}

std::string Dissociation::ToString(const ConjunctiveQuery& q) const {
  std::vector<std::string> parts;
  for (int i = 0; i < q.num_atoms(); ++i) {
    std::vector<std::string> names;
    for (VarId v : MaskToVars(extra[i])) names.push_back(q.var_name(v));
    parts.push_back(q.atom(i).relation + ":{" + Join(names, ",") + "}");
  }
  return "Delta(" + Join(parts, " ") + ")";
}

bool DissociationLeq(const Dissociation& a, const Dissociation& b) {
  assert(a.extra.size() == b.extra.size());
  for (size_t i = 0; i < a.extra.size(); ++i) {
    if ((a.extra[i] & ~b.extra[i]) != 0) return false;
  }
  return true;
}

bool DissociationLeqP(const ConjunctiveQuery& q, const SchemaKnowledge& sk,
                      const Dissociation& a, const Dissociation& b) {
  for (int i = 0; i < q.num_atoms(); ++i) {
    if (sk.IsDeterministic(i)) continue;
    VarMask closure = FDClosure(q.AtomMask(i), sk.fds);
    VarMask ya = a.extra[i] & ~closure;
    VarMask yb = b.extra[i] & ~closure;
    if ((ya & ~yb) != 0) return false;
  }
  return true;
}

std::vector<WorkAtom> ApplyDissociation(const ConjunctiveQuery& q,
                                        const SchemaKnowledge& sk,
                                        const Dissociation& delta) {
  std::vector<WorkAtom> atoms = MakeWorkAtoms(q, sk);
  for (int i = 0; i < q.num_atoms(); ++i) atoms[i].vars |= delta.extra[i];
  return atoms;
}

bool IsSafeDissociation(const ConjunctiveQuery& q, const Dissociation& delta) {
  SchemaKnowledge none = SchemaKnowledge::None(q);
  std::vector<WorkAtom> atoms = ApplyDissociation(q, none, delta);
  return IsHierarchical(atoms, q.EVarMask());
}

Status ValidateDissociation(const ConjunctiveQuery& q,
                            const Dissociation& delta) {
  if (static_cast<int>(delta.extra.size()) != q.num_atoms()) {
    return Status::InvalidArgument("dissociation arity != number of atoms");
  }
  VarMask evars = q.EVarMask();
  for (int i = 0; i < q.num_atoms(); ++i) {
    if ((delta.extra[i] & q.AtomMask(i)) != 0) {
      return Status::InvalidArgument(
          "atom " + q.atom(i).relation + " dissociated on its own variable");
    }
    if ((delta.extra[i] & ~evars) != 0) {
      return Status::InvalidArgument(
          "atom " + q.atom(i).relation +
          " dissociated on a non-existential variable");
    }
  }
  return Status::OK();
}

Result<MaterializedDissociation> MaterializeDissociation(
    const Database& db, const ConjunctiveQuery& q, const Dissociation& delta,
    size_t max_rows) {
  DISSODB_RETURN_NOT_OK(ValidateDissociation(q, delta));

  MaterializedDissociation out;
  out.db = db.Clone();  // keeps original tables and the string pool
  // Read the clone, not `db`: the domains and copies below then match the
  // original tables `out.db` holds, whatever `db` commits meanwhile.
  const Snapshot snap = out.db.snapshot();

  // Active domain per variable: values occurring in any column bound to it,
  // plus the column type (taken from the first occurrence).
  std::vector<std::set<Value>> adom(q.num_vars());
  std::vector<ValueType> var_type(q.num_vars(), ValueType::kInt64);
  std::vector<bool> has_type(q.num_vars(), false);
  for (int i = 0; i < q.num_atoms(); ++i) {
    const Atom& a = q.atom(i);
    auto tr = snap.GetTable(a.relation);
    if (!tr.ok()) return tr.status();
    const Table& t = **tr;
    if (t.arity() != a.arity()) {
      return Status::InvalidArgument("arity mismatch for " + a.relation);
    }
    for (int pos = 0; pos < a.arity(); ++pos) {
      if (!a.terms[pos].is_var) continue;
      VarId v = a.terms[pos].var;
      if (!has_type[v]) {
        var_type[v] = t.schema().column_types[pos];
        has_type[v] = true;
      }
      for (size_t r = 0; r < t.NumRows(); ++r) adom[v].insert(t.At(r, pos));
    }
  }

  ConjunctiveQuery dq;
  for (int v = 0; v < q.num_vars(); ++v) dq.AddVar(q.var_name(v));
  dq.SetName(q.name());
  for (VarId h : q.head_vars()) {
    DISSODB_RETURN_NOT_OK(dq.AddHeadVar(h));
  }

  for (int i = 0; i < q.num_atoms(); ++i) {
    const Atom& a = q.atom(i);
    const Table& t = **snap.GetTable(a.relation);
    std::vector<VarId> extras = MaskToVars(delta.extra[i]);

    RelationSchema schema = t.schema();
    schema.name = a.relation + "__d" + std::to_string(i);
    for (VarId v : extras) {
      schema.column_names.push_back("x_" + q.var_name(v));
      schema.column_types.push_back(var_type[v]);
    }

    // Row blowup guard.
    size_t combos = 1;
    for (VarId v : extras) {
      if (adom[v].empty()) combos = 0;
      if (combos > 0 && adom[v].size() > max_rows / std::max<size_t>(combos, 1)) {
        return Status::OutOfRange("dissociated table too large");
      }
      combos *= std::max<size_t>(adom[v].size(), 1);
    }
    if (t.NumRows() * combos > max_rows) {
      return Status::OutOfRange("dissociated table too large");
    }

    Table dt(schema);
    std::vector<std::vector<Value>> domains;
    for (VarId v : extras) {
      domains.emplace_back(adom[v].begin(), adom[v].end());
    }
    std::vector<Value> row(schema.arity());
    for (size_t r = 0; r < t.NumRows(); ++r) {
      for (int c = 0; c < t.arity(); ++c) row[c] = t.At(r, c);
      // Odometer over the extra-variable domains.
      std::vector<size_t> idx(extras.size(), 0);
      bool more = combos > 0;
      while (more) {
        for (size_t e = 0; e < extras.size(); ++e) {
          row[t.arity() + e] = domains[e][idx[e]];
        }
        dt.AddRow(row, t.Prob(r));
        more = false;
        for (size_t e = 0; e < extras.size(); ++e) {
          if (++idx[e] < domains[e].size()) {
            more = true;
            break;
          }
          idx[e] = 0;
        }
      }
    }
    auto add = out.db.AddTable(std::move(dt));
    if (!add.ok()) return add.status();

    Atom da;
    da.relation = schema.name;
    da.terms = a.terms;
    for (VarId v : extras) da.terms.push_back(Term::Var(v));
    DISSODB_RETURN_NOT_OK(dq.AddAtom(std::move(da)));
  }
  out.query = std::move(dq);
  return out;
}

namespace {

void ExtractRec(const PlanPtr& p, VarMask evars, VarMask inherited,
                Dissociation* d) {
  switch (p->kind) {
    case PlanNode::Kind::kScan:
      d->extra[p->atom_idx] |= (inherited | p->extra_vars) & evars;
      break;
    case PlanNode::Kind::kProject:
      ExtractRec(p->children[0], evars, inherited, d);
      break;
    case PlanNode::Kind::kMin:
      // Not meaningful for min plans; traverse for robustness.
      for (const auto& c : p->children) ExtractRec(c, evars, inherited, d);
      break;
    case PlanNode::Kind::kJoin: {
      VarMask jvar = 0;
      for (const auto& c : p->children) jvar |= c->head;
      for (const auto& c : p->children) {
        VarMask missing = (jvar & ~c->head) & evars;
        ExtractRec(c, evars, inherited | missing, d);
      }
      break;
    }
  }
}

Result<PlanPtr> BuildSafeRec(const ConjunctiveQuery& q,
                             std::vector<WorkAtom> atoms, VarMask head) {
  VarMask all = UnionVars(atoms);
  head &= all;
  if (atoms.size() == 1) {
    const WorkAtom& a = atoms[0];
    PlanPtr scan = MakeScan(a.atom_idx, q.AtomMask(a.atom_idx),
                            a.vars & ~q.AtomMask(a.atom_idx));
    if (head != scan->head) return MakeProject(head, scan);
    return scan;
  }
  VarMask evars = all & ~head;
  auto comps = ConnectedComponents(atoms, evars);
  if (comps.size() > 1) {
    std::vector<PlanPtr> children;
    for (const auto& comp : comps) {
      std::vector<WorkAtom> sub;
      for (int idx : comp) sub.push_back(atoms[idx]);
      VarMask sub_head = head & UnionVars(sub);
      auto child = BuildSafeRec(q, std::move(sub), sub_head);
      if (!child.ok()) return child.status();
      children.push_back(*child);
    }
    return MakeJoin(std::move(children));
  }
  VarMask sep = SeparatorVars(atoms, evars);
  if (sep == 0) {
    return Status::InvalidArgument(
        "query/dissociation is not hierarchical: no separator variable");
  }
  auto child = BuildSafeRec(q, std::move(atoms), head | sep);
  if (!child.ok()) return child.status();
  return MakeProject(head, *child);
}

}  // namespace

Dissociation ExtractDissociation(const PlanPtr& plan,
                                 const ConjunctiveQuery& q) {
  Dissociation d = Dissociation::Empty(q);
  ExtractRec(plan, q.EVarMask(), 0, &d);
  return d;
}

Result<PlanPtr> SafePlanForWorkAtoms(const ConjunctiveQuery& q,
                                     std::vector<WorkAtom> atoms,
                                     VarMask head) {
  return BuildSafeRec(q, std::move(atoms), head);
}

Result<PlanPtr> SafePlanForDissociation(const ConjunctiveQuery& q,
                                        const Dissociation& delta) {
  DISSODB_RETURN_NOT_OK(ValidateDissociation(q, delta));
  SchemaKnowledge none = SchemaKnowledge::None(q);
  std::vector<WorkAtom> atoms = ApplyDissociation(q, none, delta);
  return BuildSafeRec(q, std::move(atoms), q.HeadMask());
}

Result<PlanPtr> SafePlanForQuery(const ConjunctiveQuery& q) {
  return SafePlanForDissociation(q, Dissociation::Empty(q));
}

}  // namespace dissodb
