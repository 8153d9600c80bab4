#include "src/lift/safe_plan.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/dissociation/dissociation.h"
#include "src/query/cuts.h"

namespace dissodb {
namespace lift {

namespace {

struct MemoKey {
  uint64_t atom_set;
  VarMask head;
  bool operator==(const MemoKey& o) const {
    return atom_set == o.atom_set && head == o.head;
  }
};
struct MemoKeyHash {
  size_t operator()(const MemoKey& k) const {
    size_t h = Mix64(k.atom_set);
    HashCombine(&h, Mix64(k.head));
    return h;
  }
};

/// The separator rule's side condition: `sep` is the unique minimal
/// (p-)cut-set. Every (p-)cut-set contains all of `sep` — while one of its
/// variables remains, all (probabilistic) atoms stay connected through it —
/// so it suffices that removing `sep` itself disconnects the atoms.
bool SeparatorIsTheCut(std::span<const WorkAtom> atoms, VarMask evars,
                       VarMask sep, bool use_dr) {
  if (sep == 0) return false;
  if (use_dr) return CountProbComponents(atoms, evars & ~sep) >= 2;
  return ConnectedComponents(atoms, evars & ~sep).size() >= 2;
}

/// Algorithm 2's recursion (stop rule, independent join, Min over minimal
/// cuts) with the lifted separator rule short-circuiting the cut-set
/// enumeration wherever it provably yields the same (single-cut) result.
/// Recursion order and memoization granularity match the plain recursion,
/// so the emitted plan is bit-for-bit the same.
class LiftCompiler {
 public:
  LiftCompiler(const ConjunctiveQuery& q, std::vector<WorkAtom> atoms,
               bool use_dr, bool memoize)
      : q_(q), atoms_(std::move(atoms)), use_dr_(use_dr), memoize_(memoize) {}

  Result<LiftedPlan> Run() {
    std::vector<int> all;
    for (int i = 0; i < q_.num_atoms(); ++i) all.push_back(i);
    auto plan = Rec(all, q_.HeadMask());
    if (!plan.ok()) return plan.status();
    LiftedPlan out;
    out.plan = std::move(*plan);
    out.exact = unsafe_residues_ == 0;
    out.unsafe_residues = unsafe_residues_;
    out.separator_shortcuts = separator_shortcuts_;
    return out;
  }

 private:
  PlanPtr Leaf(int atom_idx) const {
    const WorkAtom& a = atoms_[atom_idx];
    return MakeScan(a.atom_idx, q_.AtomMask(a.atom_idx),
                    a.vars & ~q_.AtomMask(a.atom_idx));
  }

  Result<PlanPtr> Rec(const std::vector<int>& idxs, VarMask head) {
    std::vector<WorkAtom> atoms;
    for (int i : idxs) atoms.push_back(atoms_[i]);
    VarMask all = UnionVars(atoms);
    head &= all;

    uint64_t atom_set = 0;
    for (int i : idxs) atom_set |= uint64_t{1} << i;
    MemoKey key{atom_set, head};
    if (memoize_) {
      auto it = memo_.find(key);
      if (it != memo_.end()) return it->second;
    }

    int n_prob = 0;
    for (const auto& a : atoms) n_prob += a.probabilistic ? 1 : 0;
    const bool stop = use_dr_ ? n_prob <= 1 : atoms.size() == 1;

    PlanPtr result;
    if (stop) {
      // Base-atom rule (deterministic tails dissociate for free, Lemma 22).
      if (idxs.size() == 1) {
        result = Leaf(idxs[0]);
        if (result->head != head) result = MakeProject(head, result);
      } else {
        VarMask evars = all & ~head;
        std::vector<WorkAtom> datoms = atoms;
        for (auto& a : datoms) {
          if (!a.probabilistic) a.vars |= evars;
        }
        auto base = SafePlanForWorkAtoms(q_, std::move(datoms), head);
        if (!base.ok()) return base.status();
        result = *base;
      }
    } else {
      VarMask evars = all & ~head;
      auto comps = ConnectedComponents(atoms, evars);
      if (comps.size() > 1) {
        // Independent-join rule.
        std::vector<PlanPtr> children;
        for (const auto& comp : comps) {
          std::vector<int> sub;
          for (int ci : comp) sub.push_back(idxs[ci]);
          std::vector<WorkAtom> sub_atoms;
          for (int i : sub) sub_atoms.push_back(atoms_[i]);
          auto child = Rec(sub, head & UnionVars(sub_atoms));
          if (!child.ok()) return child.status();
          children.push_back(std::move(*child));
        }
        result = MakeJoin(std::move(children));
      } else {
        // Independent-project rule: when the separator set is the unique
        // minimal (p-)cut, Min over cuts is a single projection — emit it
        // directly instead of enumerating 2^|evars| cut candidates.
        VarMask sep = use_dr_ ? ProbSeparatorVars(atoms, evars)
                              : SeparatorVars(atoms, evars);
        if (SeparatorIsTheCut(atoms, evars, sep, use_dr_)) {
          ++separator_shortcuts_;
          auto child = Rec(idxs, head | sep);
          if (!child.ok()) return child.status();
          result = *child;
          if (result->head != head) result = MakeProject(head, result);
        } else {
          // Unsafe residue: dissociation's Min over minimal cut-sets
          // (Algorithm 2). Nested hierarchical subqueries still resolve by
          // the lifted rules on the way down.
          ++unsafe_residues_;
          auto cuts = use_dr_ ? MinPCuts(atoms, evars) : MinCuts(atoms, evars);
          if (!cuts.ok()) return cuts.status();
          if (cuts->empty()) {
            return Status::Internal("connected query with no cut-set");
          }
          std::vector<PlanPtr> branches;
          for (VarMask y : *cuts) {
            auto child = Rec(idxs, head | y);
            if (!child.ok()) return child.status();
            PlanPtr branch = *child;
            if (branch->head != head) branch = MakeProject(head, branch);
            branches.push_back(std::move(branch));
          }
          result = MakeMin(std::move(branches));
        }
      }
    }
    if (memoize_) memo_.emplace(key, result);
    return result;
  }

  const ConjunctiveQuery& q_;
  std::vector<WorkAtom> atoms_;  // indexed by original atom index
  bool use_dr_;
  bool memoize_;
  size_t unsafe_residues_ = 0;
  size_t separator_shortcuts_ = 0;
  std::unordered_map<MemoKey, PlanPtr, MemoKeyHash> memo_;
};

std::vector<WorkAtom> AtomsUnderKnowledge(const ConjunctiveQuery& q,
                                          const SchemaKnowledge& sk,
                                          const PlanEnumOptions& opts) {
  if (opts.use_fds && !sk.fds.empty()) {
    return ApplyDissociation(q, sk, ChaseDissociation(q, sk));
  }
  return MakeWorkAtoms(q, sk);
}

/// Plan-free analysis recursion: same rules, but a stuck subproblem stops
/// the walk (no descent into cut branches — analysis never enumerates).
void AnalyzeRec(std::vector<WorkAtom> atoms, VarMask head, bool use_dr,
                size_t* residues) {
  VarMask all = UnionVars(atoms);
  head &= all;

  int n_prob = 0;
  for (const auto& a : atoms) n_prob += a.probabilistic ? 1 : 0;
  if (use_dr ? n_prob <= 1 : atoms.size() <= 1) return;

  VarMask evars = all & ~head;
  auto comps = ConnectedComponents(atoms, evars);
  if (comps.size() > 1) {
    for (const auto& comp : comps) {
      std::vector<WorkAtom> sub;
      for (int ci : comp) sub.push_back(atoms[ci]);
      VarMask sub_head = head & UnionVars(sub);
      AnalyzeRec(std::move(sub), sub_head, use_dr, residues);
    }
    return;
  }
  VarMask sep = use_dr ? ProbSeparatorVars(atoms, evars)
                       : SeparatorVars(atoms, evars);
  if (SeparatorIsTheCut(atoms, evars, sep, use_dr)) {
    AnalyzeRec(std::move(atoms), head | sep, use_dr, residues);
    return;
  }
  ++*residues;
}

}  // namespace

Result<LiftedPlan> CompileSafePlan(const ConjunctiveQuery& q,
                                   const SchemaKnowledge& sk,
                                   const LiftOptions& opts) {
  LiftCompiler c(q, AtomsUnderKnowledge(q, sk, opts.enum_opts),
                 opts.enum_opts.use_deterministic, opts.reuse_common_subplans);
  return c.Run();
}

SafetyAnalysis AnalyzeSafety(const ConjunctiveQuery& q,
                             const SchemaKnowledge& sk,
                             const PlanEnumOptions& opts) {
  SafetyAnalysis out;
  AnalyzeRec(AtomsUnderKnowledge(q, sk, opts), q.HeadMask(),
             opts.use_deterministic, &out.unsafe_residues);
  out.safe = out.unsafe_residues == 0;
  return out;
}

}  // namespace lift
}  // namespace dissodb
