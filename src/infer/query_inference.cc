#include "src/infer/query_inference.h"

#include <algorithm>

#include "src/infer/mc.h"

namespace dissodb {

namespace {

std::vector<RankedAnswer> SortDesc(std::vector<RankedAnswer> answers) {
  std::sort(answers.begin(), answers.end(),
            [](const RankedAnswer& a, const RankedAnswer& b) {
              if (a.score != b.score) return a.score > b.score;
              return std::lexicographical_compare(
                  a.tuple.begin(), a.tuple.end(), b.tuple.begin(),
                  b.tuple.end());
            });
  return answers;
}

}  // namespace

Result<std::vector<RankedAnswer>> ExactFromLineage(const LineageResult& lineage,
                                                   const WmcOptions& wmc) {
  std::vector<RankedAnswer> out;
  out.reserve(lineage.answers.size());
  for (const auto& al : lineage.answers) {
    Dnf f = lineage.ToDnf(al);
    auto p = ExactDnfProbability(f, wmc);
    if (!p.ok()) return p.status();
    out.push_back(RankedAnswer{al.answer, *p});
  }
  return SortDesc(std::move(out));
}

std::vector<RankedAnswer> McFromLineage(const LineageResult& lineage,
                                        size_t samples, Rng* rng) {
  std::vector<RankedAnswer> out;
  out.reserve(lineage.answers.size());
  for (const auto& al : lineage.answers) {
    Dnf f = lineage.ToDnf(al);
    out.push_back(RankedAnswer{al.answer, NaiveDnfEstimate(f, samples, rng)});
  }
  return SortDesc(std::move(out));
}

Result<std::vector<RankedAnswer>> ExactProbabilities(
    const Database& db, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides,
    const WmcOptions& wmc) {
  auto lineage = ComputeLineage(db.snapshot(), q, overrides);
  if (!lineage.ok()) return lineage.status();
  return ExactFromLineage(*lineage, wmc);
}

std::vector<RankedAnswer> LineageSizeRanking(const LineageResult& lineage) {
  std::vector<RankedAnswer> out;
  out.reserve(lineage.answers.size());
  for (const auto& al : lineage.answers) {
    out.push_back(
        RankedAnswer{al.answer, static_cast<double>(al.terms.size())});
  }
  return SortDesc(std::move(out));
}

size_t MaxLineageSize(const LineageResult& lineage) {
  size_t mx = 0;
  for (const auto& al : lineage.answers) mx = std::max(mx, al.terms.size());
  return mx;
}

}  // namespace dissodb
