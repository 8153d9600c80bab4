// Self-join-free conjunctive queries (the paper's query class).
//
// A query  q(y) :- R1(x1), ..., Rm(xm)  is a list of atoms over distinct
// relation symbols plus a tuple of head variables. Variables are interned
// per-query as small integers so sets of variables are 64-bit masks.
#ifndef DISSODB_QUERY_CQ_H_
#define DISSODB_QUERY_CQ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"

namespace dissodb {

using VarId = int;
/// Bitmask over the (at most kMaxQueryVars) variables of one query.
using VarMask = uint64_t;
/// One VarMask bit per variable bounds the variables of a query.
inline constexpr int kMaxQueryVars = 8 * sizeof(VarMask);
/// Atom sets are 64-bit masks as well (analysis, plan compilation, the
/// evaluator), which bounds the atoms of a query.
inline constexpr int kMaxQueryAtoms = 8 * sizeof(uint64_t);

inline VarMask MaskOf(VarId v) { return VarMask{1} << v; }
inline bool MaskContains(VarMask m, VarId v) { return (m >> v) & 1; }
inline int MaskCount(VarMask m) { return __builtin_popcountll(m); }

/// Expands a mask into a sorted vector of VarIds.
std::vector<VarId> MaskToVars(VarMask m);

/// One argument of an atom: a variable, a constant, or a parameter
/// placeholder ("$k" / "?" in datalog syntax) awaiting a constant from a
/// Bindings object at execution time. Parameterized queries can be
/// prepared/planned (a placeholder is structurally a constant) but never
/// evaluated directly — QueryEngine substitutes bound values first.
struct Term {
  bool is_var;
  VarId var = -1;   // valid iff is_var
  Value constant;   // valid iff !is_var && param < 0
  int param = -1;   // parameter index; >= 0 iff this is a placeholder

  bool IsParam() const { return !is_var && param >= 0; }

  static Term Var(VarId v) { return Term{true, v, Value(), -1}; }
  static Term Const(Value c) { return Term{false, -1, c, -1}; }
  static Term Param(int idx) { return Term{false, -1, Value(), idx}; }
};

/// \brief One atom R(t1,...,tk). `relation` is the relation symbol; the
/// self-join-free restriction means symbols are unique within a query.
struct Atom {
  std::string relation;
  std::vector<Term> terms;

  int arity() const { return static_cast<int>(terms.size()); }
};

/// \brief A self-join-free conjunctive query.
class ConjunctiveQuery {
 public:
  /// Adds a variable named `name`; returns its id. Fails (assert) beyond
  /// kMaxQueryVars.
  VarId AddVar(const std::string& name);
  /// Finds a variable by name, or -1.
  VarId FindVar(const std::string& name) const;

  void SetName(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  Status AddHeadVar(VarId v);
  /// Appends a body atom; InvalidArgument on a self-join, an unknown
  /// variable id, or an atom beyond kMaxQueryAtoms.
  Status AddAtom(Atom atom);

  int num_vars() const { return static_cast<int>(var_names_.size()); }
  const std::string& var_name(VarId v) const { return var_names_[v]; }
  const std::vector<VarId>& head_vars() const { return head_vars_; }
  const std::vector<Atom>& atoms() const { return atoms_; }
  const Atom& atom(int i) const { return atoms_[i]; }
  int num_atoms() const { return static_cast<int>(atoms_.size()); }
  bool IsBoolean() const { return head_vars_.empty(); }

  /// Number of parameter placeholders (1 + max param index over all atoms);
  /// 0 for ordinary queries.
  int num_params() const { return num_params_; }

  /// Mask of the head variables.
  VarMask HeadMask() const;
  /// Mask of the distinct variables of atom i.
  VarMask AtomMask(int i) const;
  /// Mask of all variables appearing in some atom.
  VarMask AllVarsMask() const;
  /// Existential variables: AllVars minus head.
  VarMask EVarMask() const { return AllVarsMask() & ~HeadMask(); }

  /// Renders "q(z) :- R(z,x), S(x,y)" (string constants print as 'str#k'
  /// unless a pool-aware printer is used).
  std::string ToString() const;

 private:
  std::string name_ = "q";
  std::vector<std::string> var_names_;
  std::vector<VarId> head_vars_;
  std::vector<Atom> atoms_;
  int num_params_ = 0;
};

}  // namespace dissodb

#endif  // DISSODB_QUERY_CQ_H_
