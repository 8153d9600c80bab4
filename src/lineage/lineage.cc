#include "src/lineage/lineage.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/common/hash.h"
#include "src/exec/rel.h"

namespace dissodb {

Dnf LineageResult::ToDnf(const AnswerLineage& al) const {
  Dnf f;
  std::unordered_map<int, int> dense;  // ground id -> dnf var
  for (const auto& term : al.terms) {
    std::vector<int> t;
    for (int id : term) {
      const GroundTuple& g = tuples[id];
      if (g.deterministic || g.prob >= 1.0) continue;  // always-true literal
      auto [it, inserted] = dense.try_emplace(id, static_cast<int>(f.probs.size()));
      if (inserted) f.probs.push_back(g.prob);
      t.push_back(it->second);
    }
    std::sort(t.begin(), t.end());
    f.terms.push_back(std::move(t));
  }
  f.Normalize();
  return f;
}

double LineageResult::MeanDistinctTuplesOfAtom(const AnswerLineage& al,
                                               int atom_idx) const {
  std::set<int> distinct;
  for (const auto& term : al.terms) {
    for (int id : term) {
      if (tuples[id].atom_idx == atom_idx) distinct.insert(id);
    }
  }
  if (distinct.empty()) return 0.0;
  return static_cast<double>(al.terms.size()) /
         static_cast<double>(distinct.size());
}

namespace {

struct AtomData {
  const Table* table;
  std::vector<uint32_t> rows;      // filtered row indices into `table`
  std::vector<VarId> vars;         // distinct vars ascending
  std::vector<int> first_pos;      // column of each var
  int id_offset;                   // dense ground-tuple id base
};

}  // namespace

Result<LineageResult> ComputeLineage(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides,
    const LineageOptions& opts) {
  const int m = q.num_atoms();
  LineageResult result;

  // Prepare per-atom filtered row lists and dense ground-tuple ids.
  std::vector<AtomData> atoms(m);
  for (int i = 0; i < m; ++i) {
    const Atom& a = q.atom(i);
    const Table* table = nullptr;
    auto oit = overrides.find(i);
    if (oit != overrides.end()) {
      table = oit->second;
    } else {
      auto t = snap.GetTable(a.relation);
      if (!t.ok()) return t.status();
      table = *t;
    }
    if (table->arity() != a.arity()) {
      return Status::InvalidArgument("atom " + a.relation + " arity mismatch");
    }
    AtomData& ad = atoms[i];
    ad.table = table;
    ad.vars = MaskToVars(q.AtomMask(i));
    ad.first_pos.assign(ad.vars.size(), -1);
    struct Check {
      int pos;
      int other;
      Value constant;
    };
    std::vector<Check> checks;
    for (int p = 0; p < a.arity(); ++p) {
      const Term& t = a.terms[p];
      if (!t.is_var) {
        checks.push_back(Check{p, -1, t.constant});
        continue;
      }
      int vi = static_cast<int>(
          std::lower_bound(ad.vars.begin(), ad.vars.end(), t.var) -
          ad.vars.begin());
      if (ad.first_pos[vi] < 0) {
        ad.first_pos[vi] = p;
      } else {
        checks.push_back(Check{p, ad.first_pos[vi], Value()});
      }
    }
    for (size_t r = 0; r < table->NumRows(); ++r) {
      bool ok = true;
      for (const auto& c : checks) {
        const Value rhs = c.other >= 0 ? table->At(r, c.other) : c.constant;
        if (table->At(r, c.pos) != rhs) {
          ok = false;
          break;
        }
      }
      if (ok) ad.rows.push_back(static_cast<uint32_t>(r));
    }
    ad.id_offset = static_cast<int>(result.tuples.size());
    const bool det = table->schema().deterministic;
    for (uint32_t r : ad.rows) {
      result.tuples.push_back(
          GroundTuple{i, r, table->Prob(r), det});
    }
  }

  // Greedy join order: smallest atom first, then atoms sharing bound vars.
  std::vector<int> order;
  std::vector<bool> used(m, false);
  VarMask bound = 0;
  for (int step = 0; step < m; ++step) {
    int best = -1;
    bool best_shares = false;
    for (int i = 0; i < m; ++i) {
      if (used[i]) continue;
      bool shares = step > 0 && (q.AtomMask(i) & bound) != 0;
      if (best < 0 || (shares && !best_shares) ||
          (shares == best_shares &&
           atoms[i].rows.size() < atoms[best].rows.size())) {
        best = i;
        best_shares = shares;
      }
    }
    order.push_back(best);
    used[best] = true;
    bound |= q.AtomMask(best);
  }

  // Partial assignments: values over all query vars + ground ids per atom.
  const int nv = q.num_vars();
  struct Partial {
    std::vector<Value> values;  // indexed by VarId
    std::vector<int> ids;       // per atom, -1 = not yet joined
  };
  std::vector<Partial> partial(1);
  partial[0].values.assign(nv, Value());
  partial[0].ids.assign(m, -1);

  bound = 0;
  for (int ai : order) {
    const AtomData& ad = atoms[ai];
    VarMask shared_mask = q.AtomMask(ai) & bound;
    std::vector<VarId> shared = MaskToVars(shared_mask);
    // Column positions of the shared vars inside the atom's var list.
    std::vector<int> shared_cols;
    for (VarId v : shared) {
      int vi = static_cast<int>(
          std::lower_bound(ad.vars.begin(), ad.vars.end(), v) - ad.vars.begin());
      shared_cols.push_back(ad.first_pos[vi]);
    }
    // Hash the atom rows on the shared values.
    std::unordered_map<size_t, std::vector<uint32_t>> ht;
    ht.reserve(ad.rows.size() * 2);
    for (size_t k = 0; k < ad.rows.size(); ++k) {
      size_t h = 0x8f1bbc;
      for (int c : shared_cols) {
        HashCombine(&h, ad.table->At(ad.rows[k], c).Hash());
      }
      ht[h].push_back(static_cast<uint32_t>(k));
    }
    std::vector<Partial> next;
    for (const auto& p : partial) {
      size_t h = 0x8f1bbc;
      for (VarId v : shared) HashCombine(&h, p.values[v].Hash());
      auto it = ht.find(h);
      if (it == ht.end()) continue;
      for (uint32_t k : it->second) {
        const uint32_t src_row = ad.rows[k];
        bool match = true;
        for (size_t s = 0; s < shared.size(); ++s) {
          if (p.values[shared[s]] != ad.table->At(src_row, shared_cols[s])) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        Partial np = p;
        for (size_t vi = 0; vi < ad.vars.size(); ++vi) {
          np.values[ad.vars[vi]] = ad.table->At(src_row, ad.first_pos[vi]);
        }
        np.ids[ai] = ad.id_offset + static_cast<int>(k);
        next.push_back(std::move(np));
        if (next.size() > opts.max_total_terms) {
          return Status::OutOfRange("lineage exceeds max_total_terms");
        }
      }
    }
    partial = std::move(next);
    bound |= q.AtomMask(ai);
    if (partial.empty()) break;
  }

  // Group satisfying assignments by answer tuple.
  std::vector<VarId> head = MaskToVars(q.HeadMask());
  std::map<std::vector<Value>, std::vector<std::vector<int>>> grouped;
  for (const auto& p : partial) {
    std::vector<Value> key;
    key.reserve(head.size());
    for (VarId v : head) key.push_back(p.values[v]);
    grouped[key].push_back(p.ids);
  }
  for (auto& [answer, terms] : grouped) {
    AnswerLineage al;
    al.answer = answer;
    al.terms = std::move(terms);
    result.answers.push_back(std::move(al));
  }
  return result;
}

}  // namespace dissodb
