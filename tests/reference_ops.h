// Naive row-at-a-time reference implementations of the relational
// operators, kept deliberately simple (nested loops, std::map grouping) so
// the vectorized columnar operators in src/exec can be checked against them
// on random instances. RefSortJoin sorts and binary-searches instead of
// nesting loops, for inputs past what the nested loop checks in time.
// These mirror the extensional semantics of Def. 4: joins multiply scores,
// independent projection combines as 1 - prod(1-s), distinct projection
// forces 1, MinMerge takes per-row minima.
//
// BuildSinglePlan is the reference for the lifted compiler
// (src/lift/safe_plan.h): Algorithm 2's single min-plan built by the plain
// recursion — stop rule, independent join, Min over *every* minimal cut —
// with no separator shortcut. The lifted compiler must emit exactly its
// plan.
//
// RefTwoPassBounds is the reference for the anytime controller's
// two-lane evaluation (src/anytime/controller.cc): the compiled plans
// evaluated twice, once over the stored weights (upper bounds) and once
// over table copies rescaled with Table::DissociateProbabilitiesObliviously
// (lower bounds), aligned by answer tuple.
#ifndef DISSODB_TESTS_REFERENCE_OPS_H_
#define DISSODB_TESTS_REFERENCE_OPS_H_

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/status.h"
#include "src/dissociation/dissociation.h"
#include "src/dissociation/minimal_plans.h"
#include "src/engine/prepared_query.h"
#include "src/exec/evaluator.h"
#include "src/exec/ranking.h"
#include "src/exec/rel.h"
#include "src/plan/plan.h"
#include "src/query/analysis.h"
#include "src/query/cq.h"
#include "src/query/cuts.h"
#include "src/serve/scheduler.h"
#include "src/storage/snapshot.h"

namespace dissodb {
namespace testing_util {

/// A reference relation: materialized rows in canonical (ascending VarId)
/// column order plus scores.
struct RefRel {
  std::vector<VarId> vars;
  std::vector<std::vector<Value>> rows;
  std::vector<double> scores;
};

inline RefRel ToRef(const Rel& r) {
  RefRel out;
  out.vars = r.vars();
  for (size_t i = 0; i < r.NumRows(); ++i) {
    std::vector<Value> row(r.arity());
    for (int c = 0; c < r.arity(); ++c) row[c] = r.At(i, c);
    out.rows.push_back(std::move(row));
    out.scores.push_back(r.Score(i));
  }
  return out;
}

/// Sorted (row, score) pairs for order-insensitive comparison.
inline std::vector<std::pair<std::vector<Value>, double>> Canonical(
    const RefRel& r) {
  std::vector<std::pair<std::vector<Value>, double>> out;
  for (size_t i = 0; i < r.rows.size(); ++i) {
    out.emplace_back(r.rows[i], r.scores[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline int RefColIndex(const RefRel& r, VarId v) {
  auto it = std::lower_bound(r.vars.begin(), r.vars.end(), v);
  if (it == r.vars.end() || *it != v) return -1;
  return static_cast<int>(it - r.vars.begin());
}

/// Nested-loop natural join; scores multiply.
inline RefRel RefJoin(const RefRel& a, const RefRel& b) {
  VarMask ma = 0, mb = 0;
  for (VarId v : a.vars) ma |= MaskOf(v);
  for (VarId v : b.vars) mb |= MaskOf(v);
  std::vector<VarId> shared = MaskToVars(ma & mb);
  RefRel out;
  out.vars = MaskToVars(ma | mb);
  for (size_t i = 0; i < a.rows.size(); ++i) {
    for (size_t j = 0; j < b.rows.size(); ++j) {
      bool match = true;
      for (VarId v : shared) {
        if (a.rows[i][RefColIndex(a, v)] != b.rows[j][RefColIndex(b, v)]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      std::vector<Value> row;
      for (VarId v : out.vars) {
        int ca = RefColIndex(a, v);
        row.push_back(ca >= 0 ? a.rows[i][ca] : b.rows[j][RefColIndex(b, v)]);
      }
      out.rows.push_back(std::move(row));
      out.scores.push_back(a.scores[i] * b.scores[j]);
    }
  }
  return out;
}

/// Sort-based natural join in O((b + p) log b + output): build rows sorted
/// by key, each probe row's partners found by binary search. Rows come
/// ordered by probe row, then by descending build row, which is the order
/// HashJoinBuildProbe emits, so the two compare row for row. Scores
/// multiply (build times probe).
inline RefRel RefSortJoin(const RefRel& build, const RefRel& probe) {
  VarMask mb = 0, mp = 0;
  for (VarId v : build.vars) mb |= MaskOf(v);
  for (VarId v : probe.vars) mp |= MaskOf(v);
  const std::vector<VarId> shared = MaskToVars(mb & mp);
  auto key = [&shared](const RefRel& r, size_t i) {
    std::vector<Value> k;
    for (VarId v : shared) k.push_back(r.rows[i][RefColIndex(r, v)]);
    return k;
  };
  using Keyed = std::pair<std::vector<Value>, size_t>;  // (key, build row)
  std::vector<Keyed> sorted;
  for (size_t i = 0; i < build.rows.size(); ++i) {
    sorted.emplace_back(key(build, i), i);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Keyed& a, const Keyed& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second > b.second;
            });
  RefRel out;
  out.vars = MaskToVars(mb | mp);
  for (size_t j = 0; j < probe.rows.size(); ++j) {
    const std::vector<Value> k = key(probe, j);
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), k,
        [](const Keyed& e, const std::vector<Value>& k) { return e.first < k; });
    for (; it != sorted.end() && it->first == k; ++it) {
      const size_t i = it->second;
      std::vector<Value> row;
      for (VarId v : out.vars) {
        const int cb = RefColIndex(build, v);
        row.push_back(cb >= 0 ? build.rows[i][cb]
                              : probe.rows[j][RefColIndex(probe, v)]);
      }
      out.rows.push_back(std::move(row));
      out.scores.push_back(build.scores[i] * probe.scores[j]);
    }
  }
  return out;
}

/// Projection with duplicate elimination; `independent` combines scores as
/// 1 - prod(1 - s), otherwise scores are forced to 1 (distinct).
inline RefRel RefProject(const RefRel& in, VarMask keep, bool independent) {
  RefRel out;
  out.vars = MaskToVars(keep);
  std::map<std::vector<Value>, double> groups;  // key -> prod(1 - s)
  std::vector<std::vector<Value>> order;
  for (size_t i = 0; i < in.rows.size(); ++i) {
    std::vector<Value> key;
    for (VarId v : out.vars) key.push_back(in.rows[i][RefColIndex(in, v)]);
    auto [it, inserted] = groups.try_emplace(key, 1.0);
    if (inserted) order.push_back(key);
    it->second *= 1.0 - in.scores[i];
  }
  for (const auto& key : order) {
    out.rows.push_back(key);
    out.scores.push_back(independent ? 1.0 - groups[key] : 1.0);
  }
  return out;
}

/// Per-row minimum across inputs over the same variable set.
inline RefRel RefMinMerge(const std::vector<RefRel>& inputs) {
  RefRel out;
  out.vars = inputs[0].vars;
  std::map<std::vector<Value>, double> best;
  std::vector<std::vector<Value>> order;
  for (const auto& in : inputs) {
    for (size_t i = 0; i < in.rows.size(); ++i) {
      auto [it, inserted] = best.try_emplace(in.rows[i], in.scores[i]);
      if (inserted) {
        order.push_back(in.rows[i]);
      } else {
        it->second = std::min(it->second, in.scores[i]);
      }
    }
  }
  for (const auto& key : order) {
    out.rows.push_back(key);
    out.scores.push_back(best[key]);
  }
  return out;
}

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

class SinglePlanBuilder {
 public:
  SinglePlanBuilder(const ConjunctiveQuery& q, std::vector<WorkAtom> atoms,
                    bool use_dr, bool memoize)
      : q_(q), atoms_(std::move(atoms)), use_dr_(use_dr), memoize_(memoize) {}

  Result<PlanPtr> Run() {
    std::vector<int> all;
    for (int i = 0; i < q_.num_atoms(); ++i) all.push_back(i);
    return Rec(all, q_.HeadMask());
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
      if (idxs.size() == 1) {
        result = Leaf(idxs[0]);
        if (result->head != head) result = MakeProject(head, result);
      } else {
        // See MinimalPlanEnumerator::BaseCase: dissociate the deterministic
        // atoms fully (free by Lemma 22) and emit the unique safe plan.
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
    if (memoize_) memo_.emplace(key, result);
    return result;
  }

  const ConjunctiveQuery& q_;
  std::vector<WorkAtom> atoms_;  // indexed by original atom index
  bool use_dr_;
  bool memoize_;
  std::unordered_map<MemoKey, PlanPtr, MemoKeyHash> memo_;
};

struct SinglePlanOptions {
  /// Opt. 2: memoize subplans by (atom set, head) so identical subqueries
  /// become shared DAG nodes, evaluated once (the paper's views).
  bool reuse_common_subplans = true;
  PlanEnumOptions enum_opts;
};

/// Builds the single min-plan of Algorithm 2. Without subplan reuse the
/// result is a tree (Figure 4b); with reuse it is a DAG (Figure 4c).
inline Result<PlanPtr> BuildSinglePlan(const ConjunctiveQuery& q,
                                       const SchemaKnowledge& sk,
                                       const SinglePlanOptions& opts = {}) {
  std::vector<WorkAtom> atoms;
  if (opts.enum_opts.use_fds && !sk.fds.empty()) {
    atoms = ApplyDissociation(q, sk, ChaseDissociation(q, sk));
  } else {
    atoms = MakeWorkAtoms(q, sk);
  }
  SinglePlanBuilder b(q, std::move(atoms), opts.enum_opts.use_deterministic,
                      opts.reuse_common_subplans);
  return b.Run();
}

/// The compiled plans as a list: the single min-plan, or every minimal
/// plan.
inline std::vector<PlanPtr> RefPlansOf(const CompiledPlans& compiled) {
  if (compiled.single_plan != nullptr) return {compiled.single_plan};
  return compiled.plans;
}

/// The table bound to atom `idx`: the override when present, else the
/// snapshot table of the atom's relation (nullptr when absent).
inline const Table* RefAtomTable(const Snapshot& snap,
                                 const ConjunctiveQuery& q,
                                 const AtomOverrides& overrides, int idx) {
  auto it = overrides.find(idx);
  if (it != overrides.end()) return it->second.table;
  int t = snap.FindTable(q.atom(idx).relation);
  return t < 0 ? nullptr : &snap.table(t);
}

/// Upper-bound pass: the compiled plans over the stored weights (the
/// single min-plan through one evaluator, minimal plans separately and
/// min-merged).
inline Result<Rel> RefUpperBounds(const Snapshot& snap,
                                  const ConjunctiveQuery& q,
                                  const CompiledPlans& compiled,
                                  const AtomOverrides& overrides,
                                  Scheduler* scheduler) {
  if (compiled.single_plan != nullptr) {
    PlanEvaluator ev(snap, q);
    for (const auto& [idx, ov] : overrides) {
      ev.SetAtomTable(idx, ov.table, ov.tag);
    }
    if (scheduler != nullptr) ev.SetScheduler(scheduler);
    auto rel = ev.Evaluate(compiled.single_plan);
    if (!rel.ok()) return rel.status();
    return Rel(**rel);
  }
  return EvaluatePlansSeparately(snap, q, compiled.plans, overrides);
}

/// Lower-bound pass: the same plans over shallow table copies whose
/// weights are rescaled to 1 - (1-p)^(1/d_i), bound untagged so nothing
/// is exchanged with a result cache, min-merged across plans.
inline Result<Rel> RefObliviousLowerBounds(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const CompiledPlans& compiled, const AtomOverrides& overrides,
    const std::vector<double>& exponents, Scheduler* scheduler) {
  const std::vector<PlanPtr> plans = RefPlansOf(compiled);
  if (plans.empty()) return Status::InvalidArgument("no compiled plans");

  // Reserve up front: SetAtomTable keeps raw pointers into this vector.
  std::vector<Table> scaled;
  scaled.reserve(q.num_atoms());
  AtomOverrides lb_overrides;
  for (int i = 0; i < q.num_atoms(); ++i) {
    const Table* base = RefAtomTable(snap, q, overrides, i);
    if (base == nullptr) {
      return Status::NotFound("no table named " + q.atom(i).relation);
    }
    const double d =
        i < static_cast<int>(exponents.size()) ? exponents[i] : 1.0;
    if (d > 1.0 && !base->schema().deterministic && base->NumRows() > 0) {
      scaled.push_back(*base);
      scaled.back().DissociateProbabilitiesObliviously(d);
      lb_overrides[i] = AtomOverride{&scaled.back(), {}};
    } else if (overrides.count(i) != 0) {
      lb_overrides[i] = AtomOverride{base, {}};
    }
  }

  if (plans.size() == 1) {
    PlanEvaluator ev(snap, q);
    for (const auto& [idx, ov] : lb_overrides) ev.SetAtomTable(idx, ov.table);
    if (scheduler != nullptr) ev.SetScheduler(scheduler);
    auto rel = ev.Evaluate(plans[0]);
    if (!rel.ok()) return rel.status();
    return Rel(**rel);
  }
  return EvaluatePlansSeparately(snap, q, plans, lb_overrides);
}

/// Per-answer (lower, upper) from the two passes, keyed by answer tuple in
/// canonical variable order and clamped as the controller clamps them.
using RefBounds = std::map<std::vector<Value>, std::pair<double, double>>;

inline Result<RefBounds> RefTwoPassBounds(const Snapshot& snap,
                                          const ConjunctiveQuery& q,
                                          const CompiledPlans& compiled,
                                          const AtomOverrides& overrides,
                                          const std::vector<double>& exponents,
                                          Scheduler* scheduler = nullptr) {
  auto upper = RefUpperBounds(snap, q, compiled, overrides, scheduler);
  if (!upper.ok()) return upper.status();
  auto lower = RefObliviousLowerBounds(snap, q, compiled, overrides,
                                       exponents, scheduler);
  if (!lower.ok()) return lower.status();
  std::map<std::vector<Value>, double> lower_by_tuple;
  for (RankedAnswer& ra : RankAnswers(*lower)) {
    lower_by_tuple.emplace(std::move(ra.tuple), ra.score);
  }
  auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  RefBounds out;
  for (RankedAnswer& ra : RankAnswers(*upper)) {
    const double u = clamp01(ra.score);
    auto it = lower_by_tuple.find(ra.tuple);
    const double l =
        clamp01(std::min(it != lower_by_tuple.end() ? it->second : 0.0, u));
    out.emplace(std::move(ra.tuple), std::make_pair(l, u));
  }
  return out;
}

}  // namespace testing_util
}  // namespace dissodb

#endif  // DISSODB_TESTS_REFERENCE_OPS_H_
