// Anytime-answers benchmark: the escalation ladder of RunWithGuarantees on
// the controlled-fanout 3-chain (an unsafe query whose every answer needs
// lineage work for an exact probability).
//
// Three service levels at 100k and 1M base-table rows:
//   - bounds_only        dissociation upper + oblivious lower bounds, no
//                        refinement (GuaranteeSpec with no targets)
//   - certified_top10    refine only answers contesting the top-10 rank
//                        boundary until the prefix order is certified
//   - full_exact         ground every answer's lineage and run exact WMC
//                        (the pre-anytime way to get certified answers)
//
// Measurements (BENCH_micro_anytime.json, ns per base-table row):
//   - bounds_only_{100k,1m}
//   - certified_top10_{100k,1m}
//   - full_exact_{100k,1m}
//   - refined_fraction_{100k,1m}   refined answers / total (not a time —
//                                  skipped by compare_bench)
//
// Unconditional acceptance gates (exit 1 on violation):
//   - bounds_only is no slower than full_exact at every size,
//   - certified top-10 refines strictly fewer answers than the result
//     holds (the contested-only counter-assert from the anytime design),
//   - every interval brackets the exact probability,
//   - the certified prefix agrees with the exact top-10 order.
//
//   $ ./micro_anytime
//   $ DISSODB_BENCH_SCALE=5 ./micro_anytime
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace dissodb;         // NOLINT: bench brevity
using namespace dissodb::bench;  // NOLINT

namespace {

struct SizePoint {
  const char* label;
  size_t target_rows;
};

std::map<std::vector<Value>, double> ToMap(
    const std::vector<RankedAnswer>& answers) {
  std::map<std::vector<Value>, double> m;
  for (const auto& a : answers) m[a.tuple] = a.score;
  return m;
}

}  // namespace

int main() {
  const SizePoint sizes[] = {{"100k", 100'000}, {"1m", 1'000'000}};
  bool ok = true;

  PrintHeader({"rows", "bounds ms", "top10 ms", "exact ms", "refined",
               "answers"});

  for (const SizePoint& size : sizes) {
    const auto target =
        static_cast<size_t>(static_cast<double>(size.target_rows) *
                            BenchScale());
    // B(x,y) is the bulk table: rows ~= answers * suppliers * fanout.
    FanoutSpec fspec;
    fspec.suppliers_per_answer = 5;
    fspec.fanout = 20;
    fspec.num_answers = static_cast<int>(
        target / (fspec.suppliers_per_answer * fspec.fanout));
    fspec.y_domain = 4000;
    fspec.pi_max = 0.2;  // the regime where dissociation bounds are tight
    fspec.seed = 11;
    Database db = MakeFanoutDatabase(fspec);
    ConjunctiveQuery q = Q3Chain();
    size_t rows = 0;
    const Snapshot snap = db.snapshot();
    for (int t = 0; t < snap.NumTables(); ++t) rows += snap.table(t).NumRows();

    QueryEngine engine = QueryEngine::Borrow(db);
    auto prepared = engine.Prepare(q);
    if (!prepared.ok() || prepared->exact()) {
      std::printf("unexpected prepare state\n");
      return 1;
    }

    // Ground truth once, for both the gate checks and the exact timing.
    auto exact = ExactProbabilities(db, q);
    if (!exact.ok()) {
      std::printf("exact ground truth failed: %s\n",
                  exact.status().ToString().c_str());
      return 1;
    }
    auto exact_map = ToMap(*exact);

    const double bounds_ms = TimeMs([&] {
      auto r = engine.RunWithGuarantees(*prepared);
      if (!r.ok()) std::abort();
    });

    GuaranteeSpec top10;
    top10.top_k = 10;
    top10.max_refined_per_round = 8;
    const double top10_ms = TimeMs([&] {
      auto r = engine.RunWithGuarantees(*prepared, {}, top10);
      if (!r.ok()) std::abort();
    });

    const double exact_ms = TimeMs([&] {
      auto r = ExactProbabilities(db, q);
      if (!r.ok()) std::abort();
    });

    // ---- Gates on one representative run of each level.
    auto bounds = engine.RunWithGuarantees(*prepared);
    auto certified = engine.RunWithGuarantees(*prepared, {}, top10);
    if (!bounds.ok() || !certified.ok()) {
      std::printf("anytime run failed\n");
      return 1;
    }
    for (const auto& a : bounds->answers) {
      auto it = exact_map.find(a.tuple);
      if (it == exact_map.end() || a.lower > it->second + 1e-9 ||
          a.upper < it->second - 1e-9) {
        std::printf("GATE FAILED: bounds do not bracket exact probability\n");
        ok = false;
        break;
      }
    }
    if (certified->verdict != AnytimeVerdict::kCertified) {
      std::printf("GATE FAILED: top-10 run did not certify\n");
      ok = false;
    }
    if (certified->refined_answers >= certified->answers.size()) {
      std::printf("GATE FAILED: refinement touched every answer "
                  "(%zu of %zu)\n",
                  certified->refined_answers, certified->answers.size());
      ok = false;
    }
    // Certified prefix must match the exact top-10 (ties tolerated).
    for (size_t i = 0; i < certified->certified_prefix; ++i) {
      const double pi = exact_map.at(certified->answers[i].tuple);
      for (size_t j = i + 1; j < certified->answers.size(); ++j) {
        if (pi < exact_map.at(certified->answers[j].tuple) - 1e-9) {
          std::printf("GATE FAILED: certified position %zu not dominant\n",
                      i);
          ok = false;
          break;
        }
      }
    }
    if (bounds_ms > exact_ms) {
      std::printf("GATE FAILED: bounds-only (%.2f ms) slower than "
                  "full-exact (%.2f ms)\n",
                  bounds_ms, exact_ms);
      ok = false;
    }

    const double refined_fraction =
        certified->answers.empty()
            ? 0.0
            : static_cast<double>(certified->refined_answers) /
                  static_cast<double>(certified->answers.size());
    PrintRow({size.label, FmtMs(bounds_ms), FmtMs(top10_ms),
              FmtMs(exact_ms),
              std::to_string(certified->refined_answers) + "/" +
                  std::to_string(certified->answers.size()),
              std::to_string(certified->answers.size())});

    const double per_row = 1e6 / static_cast<double>(rows);
    BenchJsonRecord(std::string("bounds_only_") + size.label, rows,
                    bounds_ms * per_row);
    BenchJsonRecord(std::string("certified_top10_") + size.label, rows,
                    top10_ms * per_row);
    BenchJsonRecord(std::string("full_exact_") + size.label, rows,
                    exact_ms * per_row);
    BenchJsonRecord(std::string("refined_fraction_") + size.label, rows,
                    refined_fraction);
  }

  BenchJsonWrite("micro_anytime");
  if (!ok) return 1;
  std::printf("\nall anytime gates passed\n");
  return 0;
}
