// Tests for the exact WMC engine against hand-computed values and the
// brute-force reference on random formulas.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/infer/exact.h"
#include "src/lineage/formula.h"

namespace dissodb {
namespace {

Dnf RandomDnf(Rng* rng, int max_vars, int max_terms, int max_len) {
  Dnf f;
  const int n = 1 + static_cast<int>(rng->NextBounded(max_vars));
  for (int v = 0; v < n; ++v) f.probs.push_back(rng->NextDouble());
  const int t = 1 + static_cast<int>(rng->NextBounded(max_terms));
  for (int i = 0; i < t; ++i) {
    std::vector<int> term;
    const int len = 1 + static_cast<int>(rng->NextBounded(max_len));
    for (int j = 0; j < len; ++j) {
      term.push_back(static_cast<int>(rng->NextBounded(n)));
    }
    f.terms.push_back(std::move(term));
  }
  f.Normalize();
  return f;
}

TEST(ExactTest, SingleTermIsProduct) {
  Dnf f;
  f.probs = {0.5, 0.25};
  f.terms = {{0, 1}};
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.125);
}

TEST(ExactTest, Example7) {
  Dnf f;
  f.probs = {0.5, 0.4, 0.3};
  f.terms = {{0, 1}, {0, 2}};
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.5 * 0.4 + 0.5 * 0.3 - 0.5 * 0.4 * 0.3, 1e-12);
}

TEST(ExactTest, IndependentTermsDecompose) {
  Dnf f;
  f.probs = {0.5, 0.5, 0.5, 0.5};
  f.terms = {{0, 1}, {2, 3}};
  WmcStats stats;
  auto p = ExactDnfProbability(f, {}, &stats);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0 - (1.0 - 0.25) * (1.0 - 0.25), 1e-12);
  EXPECT_GE(stats.components_split, 1u);
}

TEST(ExactTest, EmptyFormulaAndEmptyTerm) {
  Dnf f;
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.0);
  f.probs = {0.5};
  f.terms = {{}};
  p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 1.0);
}

TEST(ExactTest, ZeroAndOneProbabilitiesSimplify) {
  Dnf f;
  f.probs = {0.0, 1.0, 0.5};
  // First term dead (p=0 var); second term reduces to x2 alone.
  f.terms = {{0, 2}, {1, 2}};
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.5);
}

TEST(ExactTest, AbsorptionOfSubsumedTerms) {
  Dnf f;
  f.probs = {0.5, 0.5};
  f.terms = {{0}, {0, 1}};  // {0,1} absorbed by {0}
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.5);
}

TEST(ExactTest, MatchesBruteForceOnRandomFormulas) {
  Rng rng(987654);
  for (int trial = 0; trial < 300; ++trial) {
    Dnf f = RandomDnf(&rng, 10, 8, 4);
    auto exact = ExactDnfProbability(f);
    auto brute = BruteForceProbability(f);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(*exact, *brute, 1e-10) << f.ToString();
  }
}

TEST(ExactTest, MatchesBruteForceOnWiderFormulas) {
  Rng rng(13579);
  for (int trial = 0; trial < 50; ++trial) {
    Dnf f = RandomDnf(&rng, 20, 20, 5);
    auto exact = ExactDnfProbability(f);
    auto brute = BruteForceProbability(f);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(*exact, *brute, 1e-10);
  }
}

TEST(ExactTest, HandlesManyIndependentBlocksQuickly) {
  // 40 independent two-variable blocks: decomposition makes this linear,
  // Shannon alone would take 2^40 steps.
  Dnf f;
  for (int b = 0; b < 40; ++b) {
    f.probs.push_back(0.5);
    f.probs.push_back(0.5);
    f.terms.push_back({2 * b, 2 * b + 1});
  }
  WmcOptions opts;
  opts.max_calls = 100000;
  auto p = ExactDnfProbability(f, opts);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0 - std::pow(0.75, 40), 1e-9);
}

TEST(ExactTest, BudgetGuardTriggers) {
  // A dense random formula with a tiny budget must fail cleanly.
  Rng rng(5);
  Dnf f = RandomDnf(&rng, 24, 40, 3);
  WmcOptions opts;
  opts.max_calls = 3;
  auto p = ExactDnfProbability(f, opts);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), Status::Code::kOutOfRange);
}

TEST(ExactTest, ConcurrentCallsSpendOnlyTheirOwnBudget) {
  // A 28-link ladder x0x1x2 | x1x2x3 | ... | x27x28x29. One sequential
  // call tells how many recursive calls it needs (about a thousand); every
  // concurrent call then gets exactly that budget, which a budget shared
  // between calls would exhaust.
  Dnf f;
  const int links = 28;
  for (int i = 0; i < links + 2; ++i) f.probs.push_back(0.3 + 0.01 * i);
  for (int i = 0; i < links; ++i) f.terms.push_back({i, i + 1, i + 2});
  WmcStats seq_stats;
  auto seq = ExactDnfProbability(f, {}, &seq_stats);
  ASSERT_TRUE(seq.ok());
  ASSERT_GT(seq_stats.calls, 500u);
  WmcOptions tight;
  tight.max_calls = seq_stats.calls;

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::atomic<int> ready{0};
  std::vector<int> failed(kThreads, 0);
  std::vector<int> differed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kCallsPerThread; ++i) {
        WmcStats stats;
        auto p = ExactDnfProbability(f, tight, &stats);
        if (!p.ok()) {
          ++failed[t];
        } else if (*p != *seq || stats.calls != seq_stats.calls) {
          ++differed[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failed[t], 0) << "thread " << t;
    EXPECT_EQ(differed[t], 0) << "thread " << t;
  }
}

TEST(ExactTest, MemoizationHitsOnRepeatedSubformulas) {
  // A ladder formula with heavy subformula sharing.
  Dnf f;
  const int n = 14;
  for (int i = 0; i < n; ++i) f.probs.push_back(0.5);
  for (int i = 0; i + 2 < n; ++i) f.terms.push_back({i, i + 1, i + 2});
  auto p = ExactDnfProbability(f);
  ASSERT_TRUE(p.ok());
  auto brute = BruteForceProbability(f);
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(*p, *brute, 1e-10);
}

}  // namespace
}  // namespace dissodb
