#include "src/query/cq.h"

#include <cassert>

namespace dissodb {

std::vector<VarId> MaskToVars(VarMask m) {
  std::vector<VarId> out;
  while (m) {
    VarId v = __builtin_ctzll(m);
    out.push_back(v);
    m &= m - 1;
  }
  return out;
}

VarId ConjunctiveQuery::AddVar(const std::string& name) {
  VarId existing = FindVar(name);
  if (existing >= 0) return existing;
  assert(var_names_.size() < static_cast<size_t>(kMaxQueryVars) &&
         "queries are limited to kMaxQueryVars variables");
  var_names_.push_back(name);
  return static_cast<VarId>(var_names_.size()) - 1;
}

VarId ConjunctiveQuery::FindVar(const std::string& name) const {
  for (size_t i = 0; i < var_names_.size(); ++i) {
    if (var_names_[i] == name) return static_cast<VarId>(i);
  }
  return -1;
}

Status ConjunctiveQuery::AddHeadVar(VarId v) {
  if (v < 0 || v >= num_vars()) {
    return Status::InvalidArgument("head variable id out of range");
  }
  for (VarId h : head_vars_) {
    if (h == v) return Status::OK();  // duplicates in the head are idempotent
  }
  head_vars_.push_back(v);
  return Status::OK();
}

Status ConjunctiveQuery::AddAtom(Atom atom) {
  if (num_atoms() >= kMaxQueryAtoms) {
    return Status::InvalidArgument("query has more than " +
                                   std::to_string(kMaxQueryAtoms) + " atoms");
  }
  for (const auto& a : atoms_) {
    if (a.relation == atom.relation) {
      return Status::InvalidArgument(
          "self-join detected: relation " + atom.relation +
          " already used (queries must be self-join-free)");
    }
  }
  for (const auto& t : atom.terms) {
    if (t.is_var && (t.var < 0 || t.var >= num_vars())) {
      return Status::InvalidArgument("atom uses unknown variable id");
    }
    if (t.IsParam() && t.param + 1 > num_params_) num_params_ = t.param + 1;
  }
  atoms_.push_back(std::move(atom));
  return Status::OK();
}

VarMask ConjunctiveQuery::HeadMask() const {
  VarMask m = 0;
  for (VarId v : head_vars_) m |= MaskOf(v);
  return m;
}

VarMask ConjunctiveQuery::AtomMask(int i) const {
  VarMask m = 0;
  for (const auto& t : atoms_[i].terms) {
    if (t.is_var) m |= MaskOf(t.var);
  }
  return m;
}

VarMask ConjunctiveQuery::AllVarsMask() const {
  VarMask m = 0;
  for (int i = 0; i < num_atoms(); ++i) m |= AtomMask(i);
  return m;
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < head_vars_.size(); ++i) {
    if (i > 0) out += ",";
    out += var_names_[head_vars_[i]];
  }
  out += ") :- ";
  for (int i = 0; i < num_atoms(); ++i) {
    if (i > 0) out += ", ";
    out += atoms_[i].relation;
    out += "(";
    for (int j = 0; j < atoms_[i].arity(); ++j) {
      if (j > 0) out += ",";
      const Term& t = atoms_[i].terms[j];
      if (t.is_var) {
        out += var_names_[t.var];
      } else if (t.IsParam()) {
        out += "$" + std::to_string(t.param);
      } else {
        out += t.constant.ToString();
      }
    }
    out += ")";
  }
  return out;
}

}  // namespace dissodb
