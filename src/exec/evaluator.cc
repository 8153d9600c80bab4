#include "src/exec/evaluator.h"

#include "src/common/simd.h"
#include "src/exec/operators.h"
#include "src/serve/delta_maintenance.h"
#include "src/serve/result_cache.h"
#include "src/serve/scheduler.h"

namespace dissodb {

namespace {

/// Ensures an acquired computation leadership is always resolved: if the
/// evaluation exits early (a child's error status propagates), waiters are
/// woken with nullptr instead of blocking forever.
struct LeadGuard {
  ResultCache* cache = nullptr;
  const std::string* key = nullptr;
  uint64_t version = 0;
  bool resolved = true;

  void Arm(ResultCache* c, const std::string* k, uint64_t v) {
    cache = c;
    key = k;
    version = v;
    resolved = false;
  }
  ~LeadGuard() {
    if (!resolved) cache->Abandon(*key, version);
  }
};

}  // namespace

std::string PlanEvaluator::SharedCacheKey(const PlanPtr& plan) {
  std::string key = PlanFingerprint(plan, q_, &fingerprint_memo_);
  // Tagged overrides stay shareable: the tag pins down the overridden
  // table's content, so fingerprint+tags identifies the computation as
  // precisely as the fingerprint alone does for catalog tables.
  const uint64_t tagged = PlanAtomSet(plan) & override_atoms_;
  if (tagged != 0) {
    for (const auto& [idx, ov] : overrides_) {
      if (idx >= 0 && idx < 64 && (tagged >> idx) & 1) {
        key += "|o" + std::to_string(idx) + "=" + ov.tag;
      }
    }
  }
  return key;
}

std::string PlanEvaluator::NodeLabel(const PlanPtr& plan) const {
  switch (plan->kind) {
    case PlanNode::Kind::kScan:
      if (plan->atom_idx >= 0 && plan->atom_idx < q_.num_atoms()) {
        return "scan " + q_.atom(plan->atom_idx).relation;
      }
      return "scan";
    case PlanNode::Kind::kProject:
      return "project";
    case PlanNode::Kind::kJoin:
      return "join";
    case PlanNode::Kind::kMin:
      return "min";
  }
  return "node";
}

Result<std::shared_ptr<const Rel>> PlanEvaluator::Evaluate(
    const PlanPtr& plan) {
  if (!lane2_.empty() && result_cache_ != nullptr) {
    return Status::InvalidArgument(
        "a lane-2 evaluation must not use the shared result cache");
  }
  auto it = cache_.find(plan.get());
  if (it != cache_.end()) {
    if (trace_ != nullptr) {
      // DAG sharing (Opt. 2): the node was evaluated once already; record
      // a zero-work reference span so the span tree still expands to the
      // plan's tree shape.
      const uint32_t span = trace_->BeginSpan(NodeLabel(plan), trace_parent_);
      trace_->Annotate(span, "reused", std::string("dag"));
      trace_->Annotate(span, "rows_out",
                       static_cast<uint64_t>(it->second->NumRows()));
      trace_->EndSpan(span);
    }
    return it->second;
  }

  if (trace_ == nullptr) return EvaluateUncached(plan, 0);

  const uint32_t span = trace_->BeginSpan(NodeLabel(plan), trace_parent_);
  const uint32_t saved_parent = trace_parent_;
  trace_parent_ = span;
  auto result = EvaluateUncached(plan, span);
  trace_parent_ = saved_parent;
  if (result.ok()) {
    trace_->Annotate(span, "rows_out",
                     static_cast<uint64_t>((*result)->NumRows()));
  } else {
    trace_->Annotate(span, "error", result.status().ToString());
  }
  trace_->EndSpan(span);
  return result;
}

Result<std::shared_ptr<const Rel>> PlanEvaluator::EvaluateUncached(
    const PlanPtr& plan, uint32_t span) {
  // Workload-level sharing (Opt. 2 across queries): non-leaf nodes whose
  // atoms are all bound to catalog tables — or to overrides carrying a
  // content tag — key into the shared result cache by their
  // query-independent fingerprint (plus the tags). Scan leaves are
  // excluded — the unfiltered ones are zero-copy already, and caching them
  // would only evict real work. Acquire() deduplicates concurrent
  // evaluations of one fingerprint: exactly one requester computes (the
  // leader), concurrent ones wait on its shared_future, so identical
  // subplans never compute twice within a batch.
  std::string shared_key;
  LeadGuard lead;
  if (result_cache_ != nullptr && plan->kind != PlanNode::Kind::kScan &&
      (PlanAtomSet(plan) & untagged_override_atoms_) == 0) {
    shared_key = SharedCacheKey(plan);
    ResultCache::Ticket ticket =
        result_cache_->Acquire(shared_key, db_version_);
    if (ticket.value != nullptr) {
      ++result_cache_hits_;
      if (trace_ != nullptr) {
        trace_->Annotate(span, "result_cache", std::string("hit"));
      }
      cache_.emplace(plan.get(), ticket.value);
      return ticket.value;
    }
    if (ticket.leader) {
      lead.Arm(result_cache_, &shared_key, db_version_);
      if (trace_ != nullptr) {
        trace_->Annotate(span, "result_cache", std::string("lead"));
      }
    } else {
      // Waiting is deadlock-free: the leader is already executing and only
      // ever waits on strictly smaller fingerprints itself.
      if (auto rel = ticket.pending.get()) {
        ++result_cache_hits_;
        if (trace_ != nullptr) {
          trace_->Annotate(span, "result_cache", std::string("wait"));
        }
        cache_.emplace(plan.get(), rel);
        return rel;
      }
      // Leader abandoned (its evaluation failed); compute locally without
      // publishing.
      shared_key.clear();
    }
  }
  ++nodes_evaluated_;

  // Attach a maintenance recipe when this evaluation will publish a cache
  // entry (we lead), touches no overridden atoms, and the root has a
  // maintainable shape. Decided up front so the projection branch can
  // capture its raw accumulators.
  const bool want_recipe = !lead.resolved &&
                           (PlanAtomSet(plan) & override_atoms_) == 0 &&
                           DeltaMaintainableShape(plan);
  std::vector<double> recipe_acc;

  std::shared_ptr<const Rel> result;
  switch (plan->kind) {
    case PlanNode::Kind::kScan: {
      const Table* override_table = nullptr;
      auto oit = overrides_.find(plan->atom_idx);
      if (oit != overrides_.end()) override_table = oit->second.table;
      WeightsPtr lane2;
      if (plan->atom_idx >= 0 &&
          static_cast<size_t>(plan->atom_idx) < lane2_.size()) {
        lane2 = lane2_[plan->atom_idx];
      }
      const ChunkedScanStats before = scan_stats_;
      auto rel = ScanAtom(snap_, q_, plan->atom_idx, override_table,
                          scheduler_, &scan_stats_, std::move(lane2));
      if (!rel.ok()) return rel.status();
      if (trace_ != nullptr) {
        if (override_table != nullptr) {
          trace_->Annotate(span, "override", std::string("bound"));
        }
        if (scan_stats_.filtered_scans > before.filtered_scans) {
          trace_->Annotate(span, "path",
                           scan_stats_.parallel_scans > before.parallel_scans
                               ? std::string("filtered-parallel")
                               : std::string("filtered"));
          trace_->Annotate(
              span, "chunks_scanned",
              static_cast<uint64_t>(scan_stats_.chunks_scanned -
                                    before.chunks_scanned));
          trace_->Annotate(span, "chunks_pruned",
                           static_cast<uint64_t>(scan_stats_.chunks_pruned -
                                                 before.chunks_pruned));
          trace_->Annotate(span, "rows_scanned",
                           static_cast<uint64_t>(scan_stats_.rows_scanned -
                                                 before.rows_scanned));
        } else {
          trace_->Annotate(span, "path", std::string("zero-copy"));
        }
      }
      result = std::make_shared<const Rel>(std::move(*rel));
      break;
    }
    case PlanNode::Kind::kProject: {
      auto child = Evaluate(plan->children[0]);
      if (!child.ok()) return child.status();
      if (trace_ != nullptr) {
        trace_->Annotate(span, "rows_in",
                         static_cast<uint64_t>((*child)->NumRows()));
        trace_->Annotate(span, "simd",
                         simd::UseAvx2() ? std::string("avx2")
                                         : std::string("scalar"));
      }
      // Virtual (dissociated) variables may appear in the node's head but
      // not in the materialized child; project onto what exists.
      VarMask keep = plan->head & (*child)->var_mask();
      bool dense = false;
      result = std::make_shared<const Rel>(ProjectIndependent(
          **child, keep, scheduler_,
          want_recipe && keep != 0 ? &recipe_acc : nullptr, &dense));
      // A Boolean projection folds every row into one group: no grouping.
      if (trace_ != nullptr && keep != 0) {
        trace_->Annotate(span, "grouping",
                         dense ? std::string("dense") : std::string("hash"));
      }
      break;
    }
    case PlanNode::Kind::kJoin: {
      std::vector<std::shared_ptr<const Rel>> inputs;
      for (const auto& c : plan->children) {
        auto r = Evaluate(c);
        if (!r.ok()) return r.status();
        inputs.push_back(*r);
      }
      if (trace_ != nullptr) {
        uint64_t rows_in = 0;
        for (const auto& in : inputs) rows_in += in->NumRows();
        trace_->Annotate(span, "rows_in", rows_in);
        trace_->Annotate(span, "simd",
                         simd::UseAvx2() ? std::string("avx2")
                                         : std::string("scalar"));
      }
      // Greedy join order: start from the smallest input, then repeatedly
      // join the smallest input sharing a variable with the accumulated
      // result (falling back to a cartesian product only when forced).
      std::vector<bool> used(inputs.size(), false);
      size_t first = 0;
      for (size_t i = 1; i < inputs.size(); ++i) {
        if (inputs[i]->NumRows() < inputs[first]->NumRows()) first = i;
      }
      used[first] = true;
      std::shared_ptr<const Rel> current = inputs[first];
      // Traced: one entry per HashJoin step.
      std::string index;
      std::string probe_cols;
      for (size_t step = 1; step < inputs.size(); ++step) {
        int best = -1;
        bool best_shares = false;
        for (size_t i = 0; i < inputs.size(); ++i) {
          if (used[i]) continue;
          bool shares = (inputs[i]->var_mask() & current->var_mask()) != 0;
          if (best < 0 || (shares && !best_shares) ||
              (shares == best_shares &&
               inputs[i]->NumRows() < inputs[best]->NumRows())) {
            best = static_cast<int>(i);
            best_shares = shares;
          }
        }
        used[best] = true;
        JoinPath path;
        current = std::make_shared<const Rel>(
            HashJoin(*current, *inputs[best], scheduler_, &path));
        if (trace_ != nullptr) {
          if (!probe_cols.empty()) {
            index += ',';
            probe_cols += ',';
          }
          index += path.dense_index ? "dense" : "hash";
          probe_cols += path.probe_cols_reused ? "reused" : "gathered";
        }
      }
      if (!probe_cols.empty()) {
        trace_->Annotate(span, "index", std::move(index));
        trace_->Annotate(span, "probe_cols", std::move(probe_cols));
      }
      result = current;
      break;
    }
    case PlanNode::Kind::kMin: {
      std::vector<Rel> rels;
      for (const auto& c : plan->children) {
        auto r = Evaluate(c);
        if (!r.ok()) return r.status();
        rels.push_back(**r);  // copy; min inputs are usually small
      }
      auto merged = MinMerge(rels);
      if (!merged.ok()) return merged.status();
      result = std::make_shared<const Rel>(std::move(*merged));
      break;
    }
  }
  if (!lead.resolved) {
    std::shared_ptr<const DeltaRecipe> recipe;
    if (want_recipe) {
      recipe = BuildDeltaRecipe(plan, result, std::move(recipe_acc));
    }
    result_cache_->Complete(shared_key, db_version_, result,
                            std::move(recipe));
    lead.resolved = true;
  }
  cache_.emplace(plan.get(), result);
  return result;
}

std::shared_ptr<const DeltaRecipe> PlanEvaluator::BuildDeltaRecipe(
    const PlanPtr& plan, const std::shared_ptr<const Rel>& rel,
    std::vector<double>&& acc) {
  // The root's scan inputs in child order (shape pre-checked by
  // DeltaMaintainableShape).
  std::vector<const PlanNode*> scans;
  if (plan->kind == PlanNode::Kind::kProject) {
    // Boolean projections are excluded: their fused accumulator has no
    // resumable per-group fold (acc stayed empty).
    if (rel->arity() == 0) return nullptr;
    const PlanPtr& c = plan->children[0];
    if (c->kind == PlanNode::Kind::kScan) {
      scans = {c.get()};
    } else {
      scans = {c->children[0].get(), c->children[1].get()};
    }
  } else {
    scans = {plan->children[0].get(), plan->children[1].get()};
  }

  auto recipe = std::make_shared<DeltaRecipe>();
  recipe->plan = plan;
  recipe->query = std::make_shared<const ConjunctiveQuery>(q_);
  recipe->child_rows.reserve(scans.size());
  for (const PlanNode* s : scans) {
    // Every child was just evaluated, so its relation is in the
    // node-identity memo; its size re-derives the greedy build/probe pick.
    auto it = cache_.find(s);
    if (it == cache_.end()) return nullptr;
    recipe->child_rows.push_back(it->second->NumRows());
  }
  if (plan->kind == PlanNode::Kind::kProject) {
    if (acc.size() != rel->NumRows()) return nullptr;
    recipe->project_acc =
        std::make_shared<const std::vector<double>>(std::move(acc));
  }
  return recipe;
}

Result<Rel> EvaluatePlansSeparately(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const std::vector<PlanPtr>& plans,
    const AtomOverrides& overrides,
    ChunkedScanStats* scan_stats,
    obs::TraceContext* trace, uint32_t trace_parent,
    const std::vector<WeightsPtr>& lane2) {
  std::vector<Rel> results;
  size_t plan_idx = 0;
  for (const auto& p : plans) {
    PlanEvaluator ev(snap, q);  // fresh: no cross-plan sharing
    for (const auto& [idx, ov] : overrides) ev.SetAtomTable(idx, ov.table, ov.tag);
    ev.SetLane2Weights(lane2);
    obs::ScopedSpan plan_span(trace, "plan " + std::to_string(plan_idx++),
                              trace_parent);
    if (trace != nullptr) ev.SetTrace(trace, plan_span.id());
    auto r = ev.Evaluate(p);
    if (!r.ok()) return r.status();
    if (scan_stats != nullptr) scan_stats->MergeFrom(ev.scan_stats());
    results.push_back(**r);
  }
  obs::ScopedSpan merge_span(trace, "min-merge", trace_parent);
  return MinMerge(results);
}

Result<EvaluatedPlans> EvaluatePlans(
    const Snapshot& snap, const ConjunctiveQuery& q,
    const CompiledPlans& compiled, const AtomOverrides& overrides,
    Scheduler* scheduler, ResultCache* result_cache,
    const std::vector<WeightsPtr>& lane2, obs::TraceContext* trace,
    uint32_t trace_parent) {
  if (compiled.single_plan != nullptr) {
    PlanEvaluator ev(snap, q);
    for (const auto& [idx, ov] : overrides) {
      ev.SetAtomTable(idx, ov.table, ov.tag);
    }
    ev.SetResultCache(result_cache, snap.version());
    ev.SetScheduler(scheduler);
    ev.SetLane2Weights(lane2);
    if (trace != nullptr) ev.SetTrace(trace, trace_parent);
    auto rel = ev.Evaluate(compiled.single_plan);
    if (!rel.ok()) return rel.status();
    return EvaluatedPlans{**rel, ev.nodes_evaluated(), ev.result_cache_hits(),
                          ev.scan_stats()};
  }
  ChunkedScanStats scans;
  auto rel = EvaluatePlansSeparately(snap, q, compiled.plans, overrides,
                                     &scans, trace, trace_parent, lane2);
  if (!rel.ok()) return rel.status();
  size_t nodes = 0;
  for (const PlanPtr& p : compiled.plans) nodes += MeasurePlan(p).tree_nodes;
  return EvaluatedPlans{std::move(*rel), nodes, 0, scans};
}

}  // namespace dissodb
