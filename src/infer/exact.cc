#include "src/infer/exact.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

namespace dissodb {

namespace {

using Terms = std::vector<std::vector<int>>;

/// Memoization is keyed by an exact serialization of the (sorted) term list;
/// only small subformulas are memoized to bound memory.
constexpr size_t kMemoMaxTerms = 256;

class Wmc {
 public:
  Wmc(const std::vector<double>& probs, const WmcOptions& opts)
      : probs_(probs), opts_(opts) {}

  Result<double> Run(Terms terms) { return Probability(std::move(terms)); }

  const WmcStats& stats() const { return stats_; }

 private:
  Result<double> Probability(Terms terms) {
    if (++stats_.calls > opts_.max_calls) {
      return Status::OutOfRange("WMC exceeded max_calls budget");
    }
    if (terms.empty()) return 0.0;
    for (const auto& t : terms) {
      if (t.empty()) return 1.0;  // an empty term is TRUE
    }
    if (terms.size() == 1) {
      double p = 1.0;
      for (int v : terms[0]) p *= probs_[v];
      return p;
    }

    // Absorption: sort by length; a term containing another term is
    // redundant. Cheap O(T^2 * len) — worth it for small/medium formulas.
    if (terms.size() <= 512) {
      std::sort(terms.begin(), terms.end(),
                [](const auto& a, const auto& b) { return a.size() < b.size(); });
      std::vector<bool> dead(terms.size(), false);
      for (size_t i = 0; i < terms.size(); ++i) {
        if (dead[i]) continue;
        for (size_t j = i + 1; j < terms.size(); ++j) {
          if (dead[j]) continue;
          if (std::includes(terms[j].begin(), terms[j].end(),
                            terms[i].begin(), terms[i].end())) {
            dead[j] = true;
          }
        }
      }
      Terms kept;
      for (size_t i = 0; i < terms.size(); ++i) {
        if (!dead[i]) kept.push_back(std::move(terms[i]));
      }
      terms = std::move(kept);
      if (terms.size() == 1) {
        double p = 1.0;
        for (int v : terms[0]) p *= probs_[v];
        return p;
      }
    }

    // Independent components: variables connect terms.
    {
      std::unordered_map<int, int> var_group;
      std::vector<int> parent(terms.size());
      std::iota(parent.begin(), parent.end(), 0);
      auto find = [&](int x) {
        while (parent[x] != x) {
          parent[x] = parent[parent[x]];
          x = parent[x];
        }
        return x;
      };
      for (size_t i = 0; i < terms.size(); ++i) {
        for (int v : terms[i]) {
          auto [it, inserted] = var_group.try_emplace(v, static_cast<int>(i));
          if (!inserted) parent[find(static_cast<int>(i))] = find(it->second);
        }
      }
      std::unordered_map<int, Terms> groups;
      for (size_t i = 0; i < terms.size(); ++i) {
        groups[find(static_cast<int>(i))].push_back(std::move(terms[i]));
      }
      if (groups.size() > 1) {
        ++stats_.components_split;
        double none_true = 1.0;
        for (auto& [root, comp] : groups) {
          auto p = Probability(std::move(comp));
          if (!p.ok()) return p.status();
          none_true *= 1.0 - *p;
        }
        return 1.0 - none_true;
      }
      for (auto& [root, comp] : groups) terms = std::move(comp);
    }

    // Memo lookup.
    std::string key;
    const bool memoize = terms.size() <= kMemoMaxTerms;
    if (memoize) {
      std::sort(terms.begin(), terms.end());
      key.reserve(terms.size() * 8);
      for (const auto& t : terms) {
        for (int v : t) {
          key.append(reinterpret_cast<const char*>(&v), sizeof(v));
        }
        key.push_back('\x01');
      }
      auto it = memo_.find(key);
      if (it != memo_.end()) {
        ++stats_.memo_hits;
        return it->second;
      }
    }

    // Shannon expansion on the most frequent variable.
    std::unordered_map<int, int> freq;
    for (const auto& t : terms) {
      for (int v : t) ++freq[v];
    }
    int var = -1, best = 0;
    for (auto [v, c] : freq) {
      if (c > best || (c == best && v < var)) {
        best = c;
        var = v;
      }
    }

    Terms pos, neg;
    for (const auto& t : terms) {
      if (std::binary_search(t.begin(), t.end(), var)) {
        std::vector<int> reduced;
        reduced.reserve(t.size() - 1);
        for (int v : t) {
          if (v != var) reduced.push_back(v);
        }
        pos.push_back(std::move(reduced));
      } else {
        pos.push_back(t);
        neg.push_back(t);
      }
    }
    auto p1 = Probability(std::move(pos));
    if (!p1.ok()) return p1.status();
    auto p0 = Probability(std::move(neg));
    if (!p0.ok()) return p0.status();
    double p = probs_[var] * *p1 + (1.0 - probs_[var]) * *p0;
    if (memoize) memo_.emplace(std::move(key), p);
    return p;
  }

  const std::vector<double>& probs_;
  const WmcOptions& opts_;
  std::unordered_map<std::string, double> memo_;
  WmcStats stats_;
};

}  // namespace

Result<double> ExactDnfProbability(const Dnf& f, const WmcOptions& opts,
                                   WmcStats* stats) {
  // Pre-simplify: drop p=0 variables' terms; strip p=1 variables.
  Terms terms;
  terms.reserve(f.terms.size());
  for (const auto& t : f.terms) {
    std::vector<int> keep;
    bool dead = false;
    for (int v : t) {
      if (f.probs[v] <= 0.0) {
        dead = true;
        break;
      }
      if (f.probs[v] < 1.0) keep.push_back(v);
    }
    if (dead) continue;
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    terms.push_back(std::move(keep));
  }
  Wmc wmc(f.probs, opts);
  Result<double> p = wmc.Run(std::move(terms));
  if (stats != nullptr) *stats = wmc.stats();
  return p;
}

}  // namespace dissodb
