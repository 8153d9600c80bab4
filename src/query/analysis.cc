#include "src/query/analysis.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace dissodb {

SchemaKnowledge SchemaKnowledge::None(const ConjunctiveQuery& q) {
  SchemaKnowledge sk;
  sk.deterministic.assign(q.num_atoms(), false);
  return sk;
}

Result<SchemaKnowledge> SchemaKnowledge::FromSnapshot(
    const ConjunctiveQuery& q, const Snapshot& snap) {
  SchemaKnowledge sk;
  sk.deterministic.assign(q.num_atoms(), false);
  for (int i = 0; i < q.num_atoms(); ++i) {
    const Atom& a = q.atom(i);
    auto t = snap.GetTable(a.relation);
    if (!t.ok()) return t.status();
    const RelationSchema& schema = (*t)->schema();
    if (schema.arity() != a.arity()) {
      return Status::InvalidArgument(
          "atom " + a.relation + " arity mismatch with catalog");
    }
    sk.deterministic[i] = schema.deterministic;
    for (const FunctionalDependency& fd : schema.fds) {
      QueryFD qfd{0, 0};
      bool usable = true;
      for (int pos : fd.lhs) {
        if (pos < 0 || pos >= a.arity()) {
          usable = false;
          break;
        }
        if (a.terms[pos].is_var) qfd.lhs |= MaskOf(a.terms[pos].var);
        // Constant lhs positions are fixed by the atom: omit from lhs.
      }
      if (!usable) continue;
      for (int pos : fd.rhs) {
        if (pos < 0 || pos >= a.arity()) continue;
        if (a.terms[pos].is_var) qfd.rhs |= MaskOf(a.terms[pos].var);
      }
      if (qfd.rhs != 0) sk.fds.push_back(qfd);
    }
  }
  return sk;
}

std::vector<WorkAtom> MakeWorkAtoms(const ConjunctiveQuery& q,
                                    const SchemaKnowledge& sk) {
  std::vector<WorkAtom> atoms;
  atoms.reserve(q.num_atoms());
  for (int i = 0; i < q.num_atoms(); ++i) {
    atoms.push_back(WorkAtom{i, q.AtomMask(i), !sk.IsDeterministic(i)});
  }
  return atoms;
}

VarMask UnionVars(std::span<const WorkAtom> atoms) {
  VarMask m = 0;
  for (const auto& a : atoms) m |= a.vars;
  return m;
}

std::vector<std::vector<int>> ConnectedComponents(
    std::span<const WorkAtom> atoms, VarMask connect_vars) {
  const int n = static_cast<int>(atoms.size());
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](int a, int b) { parent[find(a)] = find(b); };

  // Union atoms sharing a connecting variable: group by variable.
  for (VarId v : MaskToVars(connect_vars)) {
    int first = -1;
    for (int i = 0; i < n; ++i) {
      if (!MaskContains(atoms[i].vars, v)) continue;
      if (first < 0) {
        first = i;
      } else {
        unite(first, i);
      }
    }
  }
  std::vector<std::vector<int>> groups;
  std::vector<int> group_of(n, -1);
  for (int i = 0; i < n; ++i) {
    int r = find(i);
    if (group_of[r] < 0) {
      group_of[r] = static_cast<int>(groups.size());
      groups.emplace_back();
    }
    groups[group_of[r]].push_back(i);
  }
  return groups;
}

bool IsConnected(std::span<const WorkAtom> atoms, VarMask connect_vars) {
  return ConnectedComponents(atoms, connect_vars).size() == 1;
}

bool IsHierarchical(std::span<const WorkAtom> atoms, VarMask evars) {
  // at(x) as a bitmask over atom positions (queries have <= 64 atoms by the
  // 64-variable cap, so uint64_t suffices).
  std::vector<VarId> vars = MaskToVars(evars);
  std::vector<uint64_t> at(vars.size(), 0);
  for (size_t vi = 0; vi < vars.size(); ++vi) {
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (MaskContains(atoms[i].vars, vars[vi])) at[vi] |= uint64_t{1} << i;
    }
  }
  for (size_t i = 0; i < vars.size(); ++i) {
    for (size_t j = i + 1; j < vars.size(); ++j) {
      uint64_t inter = at[i] & at[j];
      if (inter == 0) continue;
      if (inter != at[i] && inter != at[j]) return false;
    }
  }
  return true;
}

bool IsHierarchical(const ConjunctiveQuery& q) {
  SchemaKnowledge none = SchemaKnowledge::None(q);
  std::vector<WorkAtom> atoms = MakeWorkAtoms(q, none);
  return IsHierarchical(atoms, q.EVarMask());
}

VarMask SeparatorVars(std::span<const WorkAtom> atoms, VarMask evars) {
  VarMask m = evars;
  for (const auto& a : atoms) m &= a.vars;
  return m;
}

VarMask ProbSeparatorVars(std::span<const WorkAtom> atoms, VarMask evars) {
  VarMask m = evars;
  bool any_prob = false;
  for (const auto& a : atoms) {
    if (!a.probabilistic) continue;
    any_prob = true;
    m &= a.vars;
  }
  return any_prob ? m : 0;
}

size_t CountProbComponents(std::span<const WorkAtom> atoms,
                           VarMask connect_vars) {
  size_t n = 0;
  for (const auto& comp : ConnectedComponents(atoms, connect_vars)) {
    for (int i : comp) {
      if (atoms[i].probabilistic) {
        ++n;
        break;
      }
    }
  }
  return n;
}

VarMask FDClosure(VarMask vars, std::span<const QueryFD> fds) {
  VarMask closure = vars;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& fd : fds) {
      if ((fd.lhs & ~closure) == 0 && (fd.rhs & ~closure) != 0) {
        closure |= fd.rhs;
        changed = true;
      }
    }
  }
  return closure;
}

}  // namespace dissodb
