// Structural analysis of (possibly dissociated) queries: connectivity,
// hierarchy test (Def. 1 / Lemma 3), separator variables, FD closure.
//
// The dissociation algorithms operate on "work atoms": an original atom index
// plus its variable mask, which may include extra (dissociated) variables.
#ifndef DISSODB_QUERY_ANALYSIS_H_
#define DISSODB_QUERY_ANALYSIS_H_

#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/query/cq.h"
#include "src/storage/snapshot.h"

namespace dissodb {

/// An atom as seen by the plan-enumeration algorithms.
struct WorkAtom {
  int atom_idx;        ///< index into the original query's atom list
  VarMask vars;        ///< variables incl. dissociated extras
  bool probabilistic;  ///< false for deterministic relations (Section 3.3.1)
};

/// A functional dependency lifted to query variables: lhs -> rhs.
struct QueryFD {
  VarMask lhs;
  VarMask rhs;
};

/// \brief Schema knowledge for one query: which atoms are deterministic and
/// the query-level FDs (Section 3.3).
struct SchemaKnowledge {
  std::vector<bool> deterministic;  // per atom; empty = all probabilistic
  std::vector<QueryFD> fds;

  bool IsDeterministic(int atom_idx) const {
    return !deterministic.empty() && deterministic[atom_idx];
  }

  /// All-probabilistic, no FDs (the paper's default setting).
  static SchemaKnowledge None(const ConjunctiveQuery& q);

  /// Reads deterministic flags and FDs from a pinned snapshot's catalog.
  /// FD positions bound to constants contribute nothing to the lhs (they
  /// are fixed by the atom), making the FD strictly more useful.
  static Result<SchemaKnowledge> FromSnapshot(const ConjunctiveQuery& q,
                                              const Snapshot& snap);
};

/// Work atoms of `q` (no dissociation), with probabilistic flags from `sk`.
std::vector<WorkAtom> MakeWorkAtoms(const ConjunctiveQuery& q,
                                    const SchemaKnowledge& sk);

/// Union of variable masks.
VarMask UnionVars(std::span<const WorkAtom> atoms);

/// Partitions `atoms` into groups connected through variables in
/// `connect_vars` (the paper connects through existential variables only).
/// Returns groups of indices into `atoms`, each sorted, ordered by smallest
/// member.
std::vector<std::vector<int>> ConnectedComponents(std::span<const WorkAtom> atoms,
                                                  VarMask connect_vars);

/// True iff atoms form a single connected component under `connect_vars`.
bool IsConnected(std::span<const WorkAtom> atoms, VarMask connect_vars);

/// Hierarchy test (Definition 1) over existential variables `evars`: for all
/// pairs x,y: at(x) ⊆ at(y), disjoint, or ⊇.
bool IsHierarchical(std::span<const WorkAtom> atoms, VarMask evars);

/// Convenience: is q (with all atoms, no dissociation) hierarchical, i.e.
/// safe by the Dalvi-Suciu dichotomy (Theorem 2)?
bool IsHierarchical(const ConjunctiveQuery& q);

/// Separator (root) variables: existential variables occurring in every atom.
VarMask SeparatorVars(std::span<const WorkAtom> atoms, VarMask evars);

/// Separator restricted to probabilistic atoms (Section 3.3.1): existential
/// variables occurring in every probabilistic atom. Any variable in this set
/// keeps all probabilistic atoms connected while present, so every p-cut-set
/// must contain the whole set — if removing it yields >= 2 probabilistic
/// components, it is the unique minimal p-cut. All atoms probabilistic
/// reduces to SeparatorVars. Returns 0 when there is no probabilistic atom.
VarMask ProbSeparatorVars(std::span<const WorkAtom> atoms, VarMask evars);

/// Number of connected components under `connect_vars` that contain at
/// least one probabilistic atom (the count MinPCuts tests against).
size_t CountProbComponents(std::span<const WorkAtom> atoms,
                           VarMask connect_vars);

/// Closure of `vars` under the FDs (standard fixpoint).
VarMask FDClosure(VarMask vars, std::span<const QueryFD> fds);

}  // namespace dissodb

#endif  // DISSODB_QUERY_ANALYSIS_H_
