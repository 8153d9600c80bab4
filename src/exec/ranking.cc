#include "src/exec/ranking.h"

#include <algorithm>
#include <map>

#include "src/common/string_util.h"

namespace dissodb {

std::vector<RankedAnswer> RankAnswers(const Rel& rel) {
  std::vector<RankedAnswer> out;
  out.reserve(rel.NumRows());
  for (size_t r = 0; r < rel.NumRows(); ++r) {
    std::vector<Value> tuple(rel.arity());
    for (int c = 0; c < rel.arity(); ++c) tuple[c] = rel.At(r, c);
    out.push_back(RankedAnswer{std::move(tuple), rel.Score(r)});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedAnswer& a, const RankedAnswer& b) {
              if (a.score != b.score) return a.score > b.score;
              return std::lexicographical_compare(
                  a.tuple.begin(), a.tuple.end(), b.tuple.begin(),
                  b.tuple.end());
            });
  return out;
}

std::vector<double> AlignScores(const std::vector<RankedAnswer>& reference,
                                const std::vector<RankedAnswer>& scores,
                                double missing_value) {
  std::map<std::vector<Value>, double> index;
  for (const auto& a : scores) index[a.tuple] = a.score;
  std::vector<double> out;
  out.reserve(reference.size());
  for (const auto& a : reference) {
    auto it = index.find(a.tuple);
    out.push_back(it == index.end() ? missing_value : it->second);
  }
  return out;
}

std::string RankingToString(const std::vector<RankedAnswer>& ranking,
                            const Snapshot& snap, size_t max_rows) {
  std::string out;
  for (size_t i = 0; i < ranking.size() && i < max_rows; ++i) {
    out += StrFormat("%3zu. (", i + 1);
    for (size_t c = 0; c < ranking[i].tuple.size(); ++c) {
      if (c > 0) out += ", ";
      const Value& v = ranking[i].tuple[c];
      out += v.type() == ValueType::kString
                 ? snap.strings().Get(v.AsStringCode())
                 : v.ToString();
    }
    out += StrFormat(")  %.6f\n", ranking[i].score);
  }
  return out;
}

}  // namespace dissodb
