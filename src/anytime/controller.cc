#include "src/anytime/controller.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/anytime/interval_rank.h"
#include "src/anytime/lower_bound.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/infer/exact.h"
#include "src/infer/mc.h"
#include "src/lineage/lineage.h"

namespace dissodb {

namespace {

/// Width below which an interval counts as a point (exact up to fp noise).
constexpr double kPointWidth = 1e-15;

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

/// Round barrier: counts down one Done per refinement task (run or
/// skipped — the Scheduler's cancellable Submit invokes the completion
/// callback exactly once either way).
struct WaitGroup {
  std::mutex mu;
  std::condition_variable cv;
  size_t pending;

  explicit WaitGroup(size_t n) : pending(n) {}

  void Done() {
    std::lock_guard lock(mu);
    if (--pending == 0) cv.notify_all();
  }
  bool Idle() {
    std::lock_guard lock(mu);
    return pending == 0;
  }
  void Wait() {
    std::unique_lock lock(mu);
    cv.wait(lock, [this] { return pending == 0; });
  }
};

/// Per-answer refinement state, stable-addressed (McEstimator keeps a
/// pointer to the Dnf) and keyed by the answer tuple so it survives the
/// per-round re-sorts of the answer vector.
struct RefineState {
  Dnf dnf;
  std::unique_ptr<McEstimator> est;
  uint64_t answer_hash = 0;
  bool wmc_tried = false;
  bool exact_done = false;
  double exact_value = 0.0;
  /// Samples folded in by the last batch (0 when cancelled or exact).
  size_t last_drawn = 0;
};

uint64_t TupleHash(const std::vector<Value>& tuple) {
  size_t h = 0x8f1bbcdc;
  for (const Value& v : tuple) HashCombine(&h, v.Hash());
  return Mix64(h);
}

/// One deterministic hash over every compiled plan's fingerprint: the
/// "plan" component of the refinement seeds.
uint64_t PlansHash(const CompiledPlans& compiled, const ConjunctiveQuery& q) {
  size_t h = 0x9ae16a3b;
  std::unordered_map<const PlanNode*, std::string> memo;
  if (compiled.single_plan != nullptr) {
    HashCombine(&h, std::hash<std::string>{}(
                        PlanFingerprint(compiled.single_plan, q, &memo)));
  }
  for (const PlanPtr& p : compiled.plans) {
    HashCombine(&h, std::hash<std::string>{}(PlanFingerprint(p, q, &memo)));
  }
  return Mix64(h);
}

/// "d0,d1,..." for the bounds span.
std::string ExponentsLabel(const std::vector<double>& exponents) {
  std::string out;
  for (double d : exponents) {
    if (!out.empty()) out += ',';
    out += StrFormat("%.15g", d);
  }
  return out;
}

/// Permutation from the canonical answer-key order (ascending canonical
/// head VarId — both the evaluated relation before its remap and lineage
/// keys use it) to the caller order (ascending remapped VarId). Identity
/// when var_map is null.
std::vector<size_t> HeadPermutation(const ConjunctiveQuery& q,
                                    const std::vector<VarId>* var_map) {
  std::vector<VarId> head = MaskToVars(q.HeadMask());
  std::vector<size_t> perm(head.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  if (var_map != nullptr) {
    std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
      return (*var_map)[head[a]] < (*var_map)[head[b]];
    });
  }
  return perm;
}

/// The refinement task body: exact WMC if the budget allows, else one MC
/// batch. Runs on a pool worker; touches only its own `state` (the
/// answer's bounds are read-only here, folded by the controller at the
/// barrier).
void RefineOne(RefineState* state, const GuaranteeSpec& spec, size_t round,
               uint64_t plans_hash,
               const std::shared_ptr<const CancelToken>& token) {
  state->last_drawn = 0;
  if (state->exact_done) return;
  if (spec.wmc_max_calls > 0 && !state->wmc_tried) {
    state->wmc_tried = true;
    auto exact = ExactDnfProbability(state->dnf, {spec.wmc_max_calls});
    if (exact.ok()) {
      state->exact_value = *exact;
      state->exact_done = true;
      return;
    }
    // OutOfRange: lineage too wide for the budget — fall through to MC.
  }
  const size_t have = state->est->samples();
  if (have >= spec.mc_max_samples_per_answer) return;
  size_t n = spec.mc_base_samples
             << std::min<size_t>(round, 10);  // geometric batch growth
  n = std::min(n, spec.mc_max_samples_per_answer - have);
  if (n == 0) return;
  Rng rng(RefinementSeed(plans_hash, state->answer_hash, round));
  state->last_drawn = state->est->AddBatch(
      n, &rng, [&token] { return token->cancelled(); });
}

}  // namespace

const char* AnytimeVerdictName(AnytimeVerdict v) {
  switch (v) {
    case AnytimeVerdict::kExact:
      return "exact";
    case AnytimeVerdict::kCertified:
      return "certified";
    case AnytimeVerdict::kBoundsOnly:
      return "bounds-only";
  }
  return "unknown";
}

Result<AnytimeOutput> RunAnytime(const AnytimeInput& in,
                                 const GuaranteeSpec& spec) {
  const ConjunctiveQuery& q = *in.query;
  const uint64_t deadline_ns =
      spec.deadline.count() > 0
          ? obs::NowNanos() + static_cast<uint64_t>(spec.deadline.count())
          : 0;
  AnytimeOutput out;

  // ---- Stage 1+2: bounds (unconditional — the cheap floor every caller
  // gets back even when the deadline has already expired).
  {
    obs::ScopedSpan bounds_span(in.trace, "anytime-bounds", in.trace_parent);
    if (in.trace != nullptr) {
      in.trace->Annotate(bounds_span.id(), "anytime", std::string("bounds"));
    }

    // Safe-plan route: scores are exact probabilities already, one lane.
    // Otherwise lane 2 carries the oblivious lower bound.
    const bool exact = in.compiled->exact;
    std::vector<WeightsPtr> lane2;
    if (!exact) {
      out.exponents =
          ObliviousExponents(in.snap, q, *in.compiled, in.overrides);
      lane2 =
          ObliviousLowerWeights(in.snap, q, in.overrides, out.exponents);
    }
    if (in.trace != nullptr) {
      in.trace->Annotate(bounds_span.id(), "lanes",
                         static_cast<uint64_t>(exact ? 1 : 2));
      if (!exact) {
        in.trace->Annotate(bounds_span.id(), "exponents",
                           ExponentsLabel(out.exponents));
      }
    }
    auto evaluated =
        EvaluatePlans(in.snap, q, *in.compiled, in.overrides, in.scheduler,
                      /*result_cache=*/nullptr, lane2,
                      in.trace, bounds_span.id());
    if (!evaluated.ok()) return evaluated.status();
    out.nodes_evaluated = evaluated->nodes_evaluated;
    out.scans = evaluated->scans;
    Rel rel = std::move(evaluated->rel);
    if (in.var_map != nullptr && rel.arity() > 0) {
      rel = RemapRelVars(rel, *in.var_map);
    }

    // Lower bounds read lane 2 (lane 1 on the exact route, where the
    // interval is a point).
    const WeightColumn& lower = rel.Lane2OrScores();
    out.answers.reserve(rel.NumRows());
    for (size_t r = 0; r < rel.NumRows(); ++r) {
      BoundedAnswer a;
      a.tuple.resize(rel.arity());
      for (int c = 0; c < rel.arity(); ++c) a.tuple[c] = rel.At(r, c);
      a.upper = Clamp01(rel.Score(r));
      a.point = a.upper;  // serving score = the dissociation score
      a.lower = Clamp01(std::min(lower[r], a.upper));
      if (exact) {
        a.certified = true;
        a.source = BoundSource::kSafeExact;
      } else {
        a.certified = a.width() <= kPointWidth;
      }
      out.answers.push_back(std::move(a));
    }
    SortBoundedAnswers(&out.answers);
    if (exact) {
      out.verdict = AnytimeVerdict::kExact;
      out.stats.certified_prefix =
          std::min(spec.top_k, out.answers.size());
      return out;
    }
  }

  CertifyResult cert = CertifyAnswers(out.answers, spec);
  out.stats.contested_initial = cert.contested.size();

  // ---- Stage 3: refinement, only with unmet targets and time left.
  const bool want_refine = spec.HasTargets() && !cert.done;
  auto token = std::make_shared<CancelToken>(deadline_ns);
  if (want_refine && !token->cancelled()) {
    obs::ScopedSpan refine_span(in.trace, "anytime-refine", in.trace_parent);
    if (in.trace != nullptr) {
      in.trace->Annotate(refine_span.id(), "anytime", std::string("refine"));
    }

    // Lineage, grounded once against the pinned snapshot.
    std::unordered_map<int, const Table*> lineage_ov;
    for (const auto& [idx, ov] : in.overrides) lineage_ov[idx] = ov.table;
    auto lineage = ComputeLineage(in.snap, q, lineage_ov);
    if (!lineage.ok()) return lineage.status();

    // Lineage answers are keyed in ascending canonical head-var order;
    // permute each key into caller order to match out.answers tuples.
    const std::vector<size_t> perm = HeadPermutation(q, in.var_map);
    const uint64_t plans_hash = PlansHash(*in.compiled, q);
    std::map<std::vector<Value>, std::unique_ptr<RefineState>> states;
    for (const AnswerLineage& al : lineage->answers) {
      std::vector<Value> key(al.answer.size());
      for (size_t j = 0; j < perm.size(); ++j) key[j] = al.answer[perm[j]];
      auto state = std::make_unique<RefineState>();
      state->dnf = lineage->ToDnf(al);
      state->est = std::make_unique<McEstimator>(&state->dnf);
      state->answer_hash = TupleHash(key);
      states.emplace(std::move(key), std::move(state));
    }

    std::set<std::vector<Value>> refined_tuples;
    size_t round = 0;
    while (!cert.done && round < spec.max_refine_rounds &&
           !token->cancelled()) {
      // Contested answers the estimators can still improve.
      std::vector<std::pair<size_t, RefineState*>> work;
      for (size_t idx : cert.contested) {
        auto it = states.find(out.answers[idx].tuple);
        if (it == states.end()) continue;
        RefineState& s = *it->second;
        if (s.exact_done) continue;
        const bool wmc_pending = spec.wmc_max_calls > 0 && !s.wmc_tried;
        if (!wmc_pending &&
            s.est->samples() >= spec.mc_max_samples_per_answer) {
          continue;
        }
        work.emplace_back(idx, &s);
      }
      if (work.empty()) break;  // refinement budget exhausted

      WaitGroup wg(work.size());
      for (auto& [idx, state] : work) {
        RefineState* s = state;
        auto task = [s, &spec, round, plans_hash, token] {
          RefineOne(s, spec, round, plans_hash, token);
        };
        if (in.scheduler != nullptr) {
          in.scheduler->Submit(std::move(task), "anytime-refine", token,
                               [&wg] { wg.Done(); });
        } else {
          if (!token->cancelled()) task();
          wg.Done();
        }
      }
      if (in.scheduler != nullptr) {
        // Help drain the queue (the pool may be busy with other queries),
        // then join the barrier — every task runs or is skipped, so the
        // round always completes and no worker outlives the call.
        while (!wg.Idle() && in.scheduler->TryRunOne()) {
        }
        wg.Wait();
      }

      // Fold results into the ranking — single-threaded, post-barrier.
      for (auto& [idx, state] : work) {
        BoundedAnswer& a = out.answers[idx];
        refined_tuples.insert(a.tuple);
        if (state->exact_done) {
          const double v =
              std::clamp(Clamp01(state->exact_value), a.lower, a.upper);
          a.lower = a.upper = a.point = v;
          a.certified = true;
          a.source = BoundSource::kExactWmc;
          ++out.stats.exact_refinements;
        } else if (state->last_drawn > 0) {
          out.stats.mc_samples_drawn += state->last_drawn;
          const double est = state->est->Estimate();
          const double hw = state->est->HalfWidth();
          const double nl = std::max(a.lower, Clamp01(est - hw));
          const double nu = std::min(a.upper, Clamp01(est + hw));
          // nl > nu means the 4-sigma interval missed the sound
          // dissociation bounds — keep the sound ones.
          if (nl <= nu) {
            a.lower = nl;
            a.upper = nu;
          }
          a.point = std::clamp(est, a.lower, a.upper);
          a.source = BoundSource::kMc;
          a.mc_samples = state->est->samples();
        }
      }
      ++round;
      out.stats.refine_rounds = round;
      SortBoundedAnswers(&out.answers);
      cert = CertifyAnswers(out.answers, spec);
    }
    out.stats.refined_answers = refined_tuples.size();
    if (in.trace != nullptr) {
      in.trace->Annotate(refine_span.id(), "rounds",
                         static_cast<uint64_t>(out.stats.refine_rounds));
      in.trace->Annotate(refine_span.id(), "refined",
                         static_cast<uint64_t>(out.stats.refined_answers));
    }
  }

  // ---- Stage 4: verdict and certification flags.
  out.stats.deadline_hit =
      deadline_ns != 0 && !cert.done && spec.HasTargets() && token->cancelled();
  out.stats.certified_prefix = cert.certified_prefix;
  for (size_t i = 0; i < out.answers.size(); ++i) {
    BoundedAnswer& a = out.answers[i];
    a.certified = a.width() <= kPointWidth ||
                  (i < cert.certified_prefix) ||
                  (spec.epsilon < std::numeric_limits<double>::infinity() &&
                   a.width() <= spec.epsilon);
  }
  out.verdict = spec.HasTargets() && cert.done ? AnytimeVerdict::kCertified
                                               : AnytimeVerdict::kBoundsOnly;
  return out;
}

}  // namespace dissodb
