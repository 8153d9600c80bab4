#include "src/engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <utility>

#include "src/anytime/controller.h"
#include "src/dissociation/minimal_plans.h"
#include "src/exec/evaluator.h"
#include "src/exec/semijoin.h"
#include "src/lift/safe_plan.h"
#include "src/query/analysis.h"
#include "src/query/canonicalize.h"
#include "src/query/parser.h"
#include "src/serve/delta_maintenance.h"

namespace dissodb {

namespace {

/// Max cached Opt. 3 semi-join reductions, keyed by (executed query,
/// database version, binding tags).
constexpr size_t kReductionCacheCapacity = 64;

/// Max cached evaluated subplan relations shared across Submit /
/// ExecuteBatch workloads. Synchronous Execute never consults the result
/// cache, so single-query timings measure evaluation, not caching.
constexpr size_t kResultCacheCapacity = 256;

/// String constants unknown to the database pool carry parse-local negative
/// codes; two different strings in two different queries can share a code,
/// so such queries must never exchange results through the shared cache.
bool HasUnknownStringConstants(const ConjunctiveQuery& q) {
  for (int i = 0; i < q.num_atoms(); ++i) {
    for (const Term& t : q.atom(i).terms) {
      if (!t.is_var && !t.IsParam() && t.constant.type() == ValueType::kString &&
          t.constant.AsStringCode() < 0) {
        return true;
      }
    }
  }
  return false;
}

/// Runs `work` as a "query" task on `scheduler` and returns its future.
/// The future is made ready by the task's completion callback, which the
/// scheduler invokes only after it has recorded the task's run time and
/// counted it, so a caller that has waited on the future also sees the
/// task in the scheduler's telemetry. An exception thrown by `work` is
/// relayed to the future.
template <class F>
std::future<Result<QueryResult>> SubmitQuery(Scheduler* scheduler, F work) {
  using Task = std::packaged_task<Result<QueryResult>()>;
  auto run = std::make_shared<Task>(std::move(work));
  auto relay = std::make_shared<Task>(
      [ran = run->get_future()]() mutable { return ran.get(); });
  std::future<Result<QueryResult>> future = relay->get_future();
  scheduler->Submit([run] { (*run)(); }, "query", /*token=*/nullptr,
                    [relay] { (*relay)(); });
  return future;
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const Database> db,
                         EngineOptions opts)
    : db_(std::move(db)),
      opts_(opts),
      plan_cache_(opts_.plan_cache_capacity),
      reduction_cache_(kReductionCacheCapacity),
      result_cache_(kResultCacheCapacity),
      m_queries_(metrics_.counter("engine.queries")),
      m_batch_queries_(metrics_.counter("engine.batch_queries")),
      m_prepared_(metrics_.counter("engine.prepared")),
      m_plan_hits_(metrics_.counter("engine.plan_cache.hits")),
      m_plan_misses_(metrics_.counter("engine.plan_cache.misses")),
      m_remaps_(metrics_.counter("engine.canonical_remaps")),
      m_remap_hits_(metrics_.counter("engine.canonical_remap_hits")),
      m_reduction_hits_(metrics_.counter("engine.reduction_cache.hits")),
      m_reduction_misses_(metrics_.counter("engine.reduction_cache.misses")),
      m_traces_(metrics_.counter("engine.traces")),
      m_scan_filtered_(metrics_.counter("scan.filtered")),
      m_scan_parallel_(metrics_.counter("scan.parallel")),
      m_scan_chunks_scanned_(metrics_.counter("scan.chunks_scanned")),
      m_scan_chunks_pruned_(metrics_.counter("scan.chunks_pruned")),
      m_scan_rows_scanned_(metrics_.counter("scan.rows_scanned")),
      m_scan_rows_selected_(metrics_.counter("scan.rows_selected")),
      m_bloom_built_(metrics_.counter("semijoin.bloom_filters_built")),
      m_bloom_skipped_(metrics_.counter("semijoin.bloom_probes_skipped")),
      m_semijoin_reductions_(metrics_.counter("semijoin.reductions")),
      m_semijoins_(metrics_.counter("semijoin.semijoins")),
      m_semijoin_build_rows_(metrics_.counter("semijoin.build_rows")),
      m_dense_semijoins_(metrics_.counter("semijoin.dense_semijoins")),
      m_semijoin_hashed_rows_(metrics_.counter("semijoin.hashed_rows")),
      m_delta_maintained_(
          metrics_.counter("engine.result_cache.delta_maintained")),
      m_swept_(metrics_.counter("engine.result_cache.swept")),
      m_safe_routed_(metrics_.counter("engine.safe_plan.routed")),
      m_safe_residue_(metrics_.counter("engine.safe_plan.unsafe_residue")),
      m_anytime_runs_(metrics_.counter("engine.anytime.runs")),
      m_anytime_exact_(metrics_.counter("engine.anytime.exact")),
      m_anytime_certified_(metrics_.counter("engine.anytime.certified")),
      m_anytime_bounds_only_(metrics_.counter("engine.anytime.bounds_only")),
      m_anytime_deadline_aborts_(
          metrics_.counter("engine.anytime.deadline_aborts")),
      m_anytime_refine_rounds_(
          metrics_.counter("engine.anytime.refine_rounds")),
      m_anytime_refined_answers_(
          metrics_.counter("engine.anytime.refined_answers")),
      m_mc_samples_drawn_(metrics_.counter("mc.samples_drawn")),
      m_execute_ns_(metrics_.histogram("engine.execute_ns")),
      m_commit_append_ns_per_row_(
          metrics_.histogram("commit.append_ns_per_row")),
      m_safe_compile_ns_(metrics_.histogram("engine.safe_plan.compile_ns")),
      m_anytime_rounds_per_query_(
          metrics_.histogram("engine.anytime.refine_rounds_per_query")),
      m_anytime_run_ns_(metrics_.histogram("engine.anytime.run_ns")) {
  // On every commit: record commit telemetry, roll hot cache entries
  // forward across append-only commits, and sweep version-stale entries
  // (results and Opt. 3 reductions) — anything older than the oldest live
  // snapshot can never be requested again. Registering is const-safe —
  // observing commits mutates no data.
  commit_hook_token_ = db_->RegisterCommitHook(
      [this](const CommitInfo& info) { OnCommit(info); });
}

QueryEngine::~QueryEngine() { db_->UnregisterCommitHook(commit_hook_token_); }

void QueryEngine::OnCommit(const CommitInfo& info) {
  if (info.append_only && info.appended_rows > 0) {
    m_commit_append_ns_per_row_->Record(info.commit_ns / info.appended_rows);
  }
  if (info.append_only && opts_.delta_maintain_limit > 0) {
    MaintainCacheEntries(info);
  }
  SweepStaleResults();
}

void QueryEngine::MaintainCacheEntries(const CommitInfo& info) {
  // The deltas describe exactly the step (info.version - 1) -> info.version
  // (writers serialize), so only entries stored at the pre-commit version
  // are one delta behind. If another writer already published past us
  // (hooks run outside the writer lock), skip: rolling forward with this
  // commit's deltas alone would miss the newer one's rows.
  Snapshot snap = db_->snapshot();
  if (snap.version() != info.version) return;
  auto candidates = result_cache_.CollectMaintainable(
      info.version - 1, opts_.delta_maintain_limit);
  if (candidates.empty()) return;
  std::unordered_map<std::string, size_t> first_new;
  for (const AppendOnlyDelta& d : info.deltas) {
    first_new.emplace(d.name, d.first_new_row);
  }
  Scheduler* scheduler = EnsureScheduler();
  size_t maintained = 0;
  for (auto& c : candidates) {
    auto m = DeltaMaintainEntry(snap, std::move(c.rel), std::move(c.recipe),
                                first_new, scheduler);
    // Not maintainable for this commit (role flip, several changed scans):
    // leave the entry to the ordinary sweep below.
    if (!m.ok()) continue;
    result_cache_.Put(c.key, info.version, std::move(m->rel),
                      std::move(m->recipe));
    ++maintained;
  }
  if (maintained > 0) m_delta_maintained_->Add(maintained);
}

void QueryEngine::SweepStaleResults() {
  const uint64_t min_live = db_->OldestLiveSnapshotVersion();
  const size_t swept = result_cache_.EvictOlderThan(min_live);
  if (swept > 0) m_swept_->Add(swept);
  // Reductions of dead versions can never be requested again and pin
  // materialized reduced tables, so they go on the same hook.
  std::lock_guard lock(reduction_mu_);
  reduction_cache_.EvictOlderThan(min_live);
}

QueryEngine QueryEngine::Borrow(const Database& db, EngineOptions opts) {
  // Aliasing shared_ptr: shares no ownership; the caller keeps `db` alive.
  return QueryEngine(std::shared_ptr<const Database>(
                         std::shared_ptr<const Database>(), &db),
                     opts);
}

// ---------------------------------------------------------------------------
// Prepare
// ---------------------------------------------------------------------------

Result<PreparedQuery> QueryEngine::Prepare(std::string_view query_text) {
  auto q = ParseQueryReadOnly(query_text, db_->strings());
  if (!q.ok()) return q.status();
  return Prepare(*q);
}

Result<PreparedQuery> QueryEngine::Prepare(const ConjunctiveQuery& q) {
  auto impl = std::make_shared<PreparedQuery::Impl>();
  impl->original = q;
  auto canon = CanonicalizeQuery(q);
  if (!canon.ok()) return canon.status();
  impl->canon = std::move(*canon);
  impl->share_results = !HasUnknownStringConstants(impl->canon.query);
  impl->cache_key = impl->canon.query.ToString();

  bool cache_hit = false;
  bool renamed_hit = false;
  auto compiled = GetOrCompile(impl->canon.query, impl->cache_key,
                               q.ToString(), &cache_hit, &renamed_hit);
  if (!compiled.ok()) return compiled.status();
  impl->compiled = std::move(*compiled);
  impl->from_plan_cache = cache_hit;

  m_prepared_->Add(1);
  if (renamed_hit) m_remap_hits_->Add(1);
  return PreparedQuery(std::move(impl));
}

Result<std::shared_ptr<const CompiledPlans>> QueryEngine::GetOrCompile(
    const ConjunctiveQuery& q, const std::string& key,
    const std::string& original_text, bool* cache_hit, bool* renamed_hit) {
  *renamed_hit = false;
  {
    std::lock_guard lock(plan_mu_);
    if (PlanCacheEntry* hit = plan_cache_.Find(key, 0)) {
      *cache_hit = true;
      *renamed_hit = hit->original_text != original_text;
      m_plan_hits_->Add(1);
      return hit->compiled;
    }
  }
  *cache_hit = false;

  // Compile outside any lock: compiling can be expensive and two threads
  // compiling the same key just race to an identical immutable artifact.
  // Schema knowledge reads a pinned snapshot, so Prepare is safe while
  // writers commit.
  auto sk = SchemaKnowledge::FromSnapshot(q, db_->snapshot());
  if (!sk.ok()) return sk.status();

  auto compiled = std::make_shared<CompiledPlans>();
  if (opts_.propagation.opt1_single_plan) {
    // Opt. 1 through the lifted compiler (src/lift/): one recursive pass of
    // the Dalvi–Suciu rules emits the single min-plan. Safe levels resolve
    // by independent join / independent project; only unsafe residues take
    // Min over minimal cuts. The compiler's verdict is the exactness flag
    // (Corollary 28), so no minimal-plan enumeration runs here.
    lift::LiftOptions lo;
    lo.reuse_common_subplans = opts_.propagation.opt2_reuse_subplans;
    lo.enum_opts = opts_.propagation.enum_opts;
    const uint64_t t0 = obs::NowNanos();
    auto lifted = lift::CompileSafePlan(q, *sk, lo);
    m_safe_compile_ns_->Record(obs::NowNanos() - t0);
    if (!lifted.ok()) return lifted.status();
    compiled->single_plan = std::move(lifted->plan);
    compiled->exact = lifted->exact;
    (lifted->exact ? m_safe_routed_ : m_safe_residue_)->Add(1);
  } else {
    // The paper's baseline (Algorithm 1): every minimal plan, evaluated
    // separately and min-merged. A single minimal plan means the query is
    // safe given the knowledge (Corollary 28).
    auto plans = EnumerateMinimalPlans(q, *sk, opts_.propagation.enum_opts);
    if (!plans.ok()) return plans.status();
    compiled->exact = plans->size() == 1;
    compiled->plans = std::move(*plans);
  }

  m_plan_misses_->Add(1);
  std::lock_guard lock(plan_mu_);
  // Lost a compile race: adopt (and touch) the installed artifact.
  if (PlanCacheEntry* won = plan_cache_.Find(key, 0)) return won->compiled;
  plan_cache_.Put(key, 0, PlanCacheEntry{compiled, original_text});
  return std::shared_ptr<const CompiledPlans>(std::move(compiled));
}

// ---------------------------------------------------------------------------
// Execute / Submit / batches
// ---------------------------------------------------------------------------

Result<QueryResult> QueryEngine::Execute(const PreparedQuery& prepared,
                                         const Bindings& bindings) {
  return ExecuteInternal(prepared, bindings, /*scheduler=*/nullptr,
                         /*use_result_cache=*/false);
}

Result<QueryResult> QueryEngine::Execute(const PreparedQuery& prepared,
                                         const Bindings& bindings,
                                         const Snapshot& snap) {
  if (!db_->OwnsSnapshot(snap)) {
    return Status::InvalidArgument(
        "snapshot is empty or belongs to a different database");
  }
  return ExecuteInternal(prepared, bindings, /*scheduler=*/nullptr,
                         /*use_result_cache=*/false, &snap);
}

Status QueryEngine::Bind(const PreparedQuery& prepared,
                         const Bindings& bindings, const char* span_prefix,
                         BoundQuery* out) {
  if (!prepared.valid()) {
    return Status::InvalidArgument("executing an empty PreparedQuery handle");
  }
  out->impl = prepared.impl_.get();
  const PreparedQuery::Impl& impl = *out->impl;

  // Tracing: per-query opt-in (Bindings::EnableTrace) or engine-wide 1-in-N
  // sampling. Untraced executions carry a null context, so every
  // instrumentation site costs one branch.
  out->t_start = obs::NowNanos();
  if (bindings.trace_requested() ||
      (opts_.trace_sample_every > 0 &&
       trace_tick_.fetch_add(1, std::memory_order_relaxed) %
               opts_.trace_sample_every ==
           0)) {
    out->trace = &out->trace_ctx;
    out->root =
        out->trace_ctx.BeginSpan(span_prefix + impl.canon.query.ToString(), 0);
  }

  // Parameter substitution: the compiled plans only depend on the query's
  // structure, so one prepared artifact serves every binding; the executed
  // query carries the bound constants (scans filter on them, and subplan
  // fingerprints render them, so distinct parameter values never collide
  // in the result cache).
  out->query = &impl.canon.query;
  const int np = impl.canon.query.num_params();
  if (np > 0) {
    auto params = bindings.ParamVector(np);
    if (!params.ok()) return params.status();
    for (const Value& v : *params) {
      if (v.type() == ValueType::kString && v.AsStringCode() < 0) {
        out->params_shareable = false;
      }
    }
    auto sub = SubstituteParams(impl.canon.query, *params);
    if (!sub.ok()) return sub.status();
    out->substituted = std::move(*sub);
    out->query = &out->substituted;
  } else if (bindings.num_params_bound() > 0) {
    return Status::InvalidArgument(
        "bindings provide parameter values but the query has no placeholders");
  }

  // Per-atom bindings arrive in the caller's (original) body order; the
  // canonical body may be a permutation of it (atom-order
  // canonicalization), so remap indices before touching the catalog.
  for (const auto& [idx, ov] : bindings.atom_overrides()) {
    if (idx < 0 || idx >= out->query->num_atoms() || ov.table == nullptr) {
      return Status::InvalidArgument("atom binding index out of range");
    }
    out->overrides[impl.canon.atom_orig_to_canon[idx]] = ov;
  }
  return Status::OK();
}

void QueryEngine::RecordScans(const ChunkedScanStats& scans) {
  // Scan counters flow straight into the registry (sharded atomics) — no
  // engine-wide mutex on the execution path.
  if (scans.filtered_scans > 0) m_scan_filtered_->Add(scans.filtered_scans);
  if (scans.parallel_scans > 0) m_scan_parallel_->Add(scans.parallel_scans);
  if (scans.chunks_scanned > 0) {
    m_scan_chunks_scanned_->Add(scans.chunks_scanned);
  }
  if (scans.chunks_pruned > 0) m_scan_chunks_pruned_->Add(scans.chunks_pruned);
  if (scans.rows_scanned > 0) m_scan_rows_scanned_->Add(scans.rows_scanned);
  if (scans.rows_selected > 0) {
    m_scan_rows_selected_->Add(scans.rows_selected);
  }
}

Result<QueryResult> QueryEngine::ExecuteInternal(const PreparedQuery& prepared,
                                                 const Bindings& bindings,
                                                 Scheduler* scheduler,
                                                 bool use_result_cache,
                                                 const Snapshot* pinned) {
  BoundQuery bound;
  DISSODB_RETURN_NOT_OK(Bind(prepared, bindings, "execute ", &bound));
  const PreparedQuery::Impl& impl = *bound.impl;
  const ConjunctiveQuery* exec_q = bound.query;
  AtomOverrides& effective = bound.overrides;
  obs::TraceContext* trace = bound.trace;
  const uint32_t root = bound.root;

  // Pin the state to execute against: every scan, reduction, and
  // result-cache exchange below reads exactly this snapshot.
  const Snapshot snap = pinned != nullptr ? *pinned : db_->snapshot();
  const uint64_t version = snap.version();
  use_result_cache =
      use_result_cache && impl.share_results && bound.params_shareable;

  // Opt. 3: semi-join-reduce the inputs first. When the bindings are
  // fingerprintable the reduction itself is too — reduction(query text,
  // snapshot version, binding fingerprint) — so reduced tables are cached
  // across executions and the reduced subplans keep sharing results. The
  // binding fingerprint renders canonical atom indices: isomorphic
  // spellings agree on it, and distinct original orders can never collide.
  std::shared_ptr<const std::vector<Table>> reduced_shared;
  std::vector<Table> reduced_local;
  if (opts_.propagation.opt3_semijoin_reduction) {
    obs::ScopedSpan sj_span(trace, "semijoin-reduce", root);
    std::unordered_map<int, const Table*> raw;
    bool all_tagged = true;
    std::string bfp;
    for (const auto& [idx, ov] : effective) {
      raw[idx] = ov.table;
      if (ov.tag.empty()) {
        all_tagged = false;
      } else {
        bfp += "a" + std::to_string(idx) + "=" + ov.tag + ";";
      }
    }
    const bool taggable =
        impl.share_results && bound.params_shareable && all_tagged;
    std::string rtag;
    SemiJoinStats sj_stats;
    bool sj_computed = false;
    if (taggable) {
      rtag = "opt3:" + exec_q->ToString() + "@" + std::to_string(version) +
             "|" + bfp;
      auto red = GetOrReduce(rtag, snap, *exec_q, raw, &sj_stats);
      if (!red.ok()) return red.status();
      reduced_shared = std::move(*red);
      // A cache hit leaves the stats untouched; a computed reduction
      // records one input row count per atom.
      sj_computed = !sj_stats.rows_before.empty();
    } else {
      auto red = SemiJoinReduce(snap, *exec_q, raw, &sj_stats);
      if (!red.ok()) return red.status();
      reduced_local = std::move(*red);
      sj_computed = true;
    }
    if (sj_computed) {
      // Previously dropped on the floor: the reduction's Bloom pre-filter
      // counters now land in the engine registry.
      m_semijoin_reductions_->Add(1);
      m_semijoins_->Add(sj_stats.semijoins);
      m_semijoin_build_rows_->Add(sj_stats.build_rows);
      m_dense_semijoins_->Add(sj_stats.dense_semijoins);
      m_semijoin_hashed_rows_->Add(sj_stats.hashed_rows);
      if (sj_stats.bloom_filters_built > 0) {
        m_bloom_built_->Add(sj_stats.bloom_filters_built);
      }
      if (sj_stats.bloom_probes_skipped > 0) {
        m_bloom_skipped_->Add(sj_stats.bloom_probes_skipped);
      }
    }
    if (trace != nullptr) {
      trace->Annotate(sj_span.id(), "cached",
                      std::string(sj_computed ? "no" : "yes"));
      if (sj_computed) {
        trace->Annotate(sj_span.id(), "semijoins",
                        static_cast<uint64_t>(sj_stats.semijoins));
        trace->Annotate(sj_span.id(), "build_rows",
                        static_cast<uint64_t>(sj_stats.build_rows));
        trace->Annotate(sj_span.id(), "dense_semijoins",
                        static_cast<uint64_t>(sj_stats.dense_semijoins));
        trace->Annotate(sj_span.id(), "hashed_rows",
                        static_cast<uint64_t>(sj_stats.hashed_rows));
        trace->Annotate(sj_span.id(), "bloom_filters_built",
                        static_cast<uint64_t>(sj_stats.bloom_filters_built));
        trace->Annotate(sj_span.id(), "bloom_probes_skipped",
                        static_cast<uint64_t>(sj_stats.bloom_probes_skipped));
      }
    }
    const std::vector<Table>& reduced =
        reduced_shared ? *reduced_shared : reduced_local;
    effective.clear();
    for (int i = 0; i < exec_q->num_atoms(); ++i) {
      effective[i] = AtomOverride{&reduced[i],
                                  taggable ? rtag : std::string()};
    }
  }

  QueryResult result;
  result.from_plan_cache = impl.from_plan_cache;
  result.exact = impl.compiled->exact;

  Rel scores(std::vector<VarId>{});
  {
    obs::ScopedSpan eval_span(trace, "evaluate", root);
    auto evaluated = EvaluatePlans(
        snap, *exec_q, *impl.compiled, effective, scheduler,
        use_result_cache ? &result_cache_ : nullptr, /*lane2=*/{},
        trace, eval_span.id());
    if (!evaluated.ok()) return evaluated.status();
    result.nodes_evaluated = evaluated->nodes_evaluated;
    result.result_cache_hits = evaluated->result_cache_hits;
    RecordScans(evaluated->scans);
    scores = std::move(evaluated->rel);
  }

  // Map the answer relation from canonical variable space back to the
  // caller's variable ids (zero-copy column permutation).
  {
    obs::ScopedSpan rank_span(trace, "rank", root);
    if (!impl.canon.identity && scores.arity() > 0) {
      scores = RemapRelVars(scores, impl.canon.canon_to_orig);
      m_remaps_->Add(1);
    }
    result.answers = RankAnswers(scores);
  }

  m_queries_->Add(1);
  m_execute_ns_->Record(obs::NowNanos() - bound.t_start);
  if (trace != nullptr) {
    trace->Annotate(root, "answers",
                    static_cast<uint64_t>(result.answers.size()));
    trace->Annotate(root, "nodes_evaluated",
                    static_cast<uint64_t>(result.nodes_evaluated));
    trace->Annotate(root, "result_cache_hits",
                    static_cast<uint64_t>(result.result_cache_hits));
    trace->Annotate(root, "from_plan_cache",
                    std::string(result.from_plan_cache ? "yes" : "no"));
    trace->Annotate(root, "safe_plan",
                    std::string(result.exact ? "exact" : "dissociated"));
    trace->EndSpan(root);
    result.trace = std::make_shared<const obs::QueryTrace>(trace->Finish());
    m_traces_->Add(1);
  }
  return result;
}

Result<AnytimeResult> QueryEngine::RunWithGuarantees(
    const PreparedQuery& prepared, const Bindings& bindings,
    const GuaranteeSpec& spec) {
  BoundQuery bound;
  DISSODB_RETURN_NOT_OK(Bind(prepared, bindings, "anytime ", &bound));
  const PreparedQuery::Impl& impl = *bound.impl;
  obs::TraceContext* trace = bound.trace;
  const uint32_t root = bound.root;

  AnytimeInput input;
  input.snap = db_->snapshot();
  input.query = bound.query;
  input.compiled = impl.compiled.get();
  input.overrides = std::move(bound.overrides);
  input.var_map = impl.canon.identity ? nullptr : &impl.canon.canon_to_orig;
  input.scheduler = EnsureScheduler();
  input.trace = trace;
  input.trace_parent = root;

  auto run = RunAnytime(input, spec);
  if (!run.ok()) return run.status();
  AnytimeOutput& o = *run;

  AnytimeResult result;
  result.verdict = o.verdict;
  result.refine_rounds = o.stats.refine_rounds;
  result.refined_answers = o.stats.refined_answers;
  result.contested_initial = o.stats.contested_initial;
  result.mc_samples_drawn = o.stats.mc_samples_drawn;
  result.certified_prefix = o.stats.certified_prefix;
  result.deadline_hit = o.stats.deadline_hit;
  result.exponents = std::move(o.exponents);

  result.base.nodes_evaluated = o.nodes_evaluated;
  result.base.from_plan_cache = impl.from_plan_cache;
  result.base.exact = o.verdict == AnytimeVerdict::kExact;
  result.base.certified = o.verdict != AnytimeVerdict::kBoundsOnly;
  result.base.answers.reserve(o.answers.size());
  result.base.lower_bounds.reserve(o.answers.size());
  for (const BoundedAnswer& a : o.answers) {
    result.base.answers.push_back(RankedAnswer{a.tuple, a.point});
    result.base.lower_bounds.push_back(a.lower);
  }
  result.answers = std::move(o.answers);

  RecordScans(o.scans);
  m_queries_->Add(1);
  m_anytime_runs_->Add(1);
  switch (result.verdict) {
    case AnytimeVerdict::kExact:
      m_anytime_exact_->Add(1);
      break;
    case AnytimeVerdict::kCertified:
      m_anytime_certified_->Add(1);
      break;
    case AnytimeVerdict::kBoundsOnly:
      m_anytime_bounds_only_->Add(1);
      break;
  }
  if (result.deadline_hit) m_anytime_deadline_aborts_->Add(1);
  if (result.refine_rounds > 0) {
    m_anytime_refine_rounds_->Add(result.refine_rounds);
  }
  if (result.refined_answers > 0) {
    m_anytime_refined_answers_->Add(result.refined_answers);
  }
  if (result.mc_samples_drawn > 0) {
    m_mc_samples_drawn_->Add(result.mc_samples_drawn);
  }
  m_anytime_rounds_per_query_->Record(result.refine_rounds);
  m_anytime_run_ns_->Record(obs::NowNanos() - bound.t_start);

  if (trace != nullptr) {
    // The escalation rung this execution ended on: bounds -> refine ->
    // certified (exact counts as certified — every guarantee holds).
    const char* rung =
        result.verdict != AnytimeVerdict::kBoundsOnly
            ? "certified"
            : (result.refine_rounds > 0 ? "refine" : "bounds");
    trace->Annotate(root, "anytime", std::string(rung));
    trace->Annotate(root, "verdict",
                    std::string(AnytimeVerdictName(result.verdict)));
    trace->Annotate(root, "answers",
                    static_cast<uint64_t>(result.answers.size()));
    trace->Annotate(root, "refine_rounds",
                    static_cast<uint64_t>(result.refine_rounds));
    trace->Annotate(root, "refined_answers",
                    static_cast<uint64_t>(result.refined_answers));
    trace->EndSpan(root);
    result.base.trace =
        std::make_shared<const obs::QueryTrace>(trace->Finish());
    m_traces_->Add(1);
  }
  return result;
}

Result<std::shared_ptr<const std::vector<Table>>> QueryEngine::GetOrReduce(
    const std::string& key, const Snapshot& snap, const ConjunctiveQuery& q,
    const std::unordered_map<int, const Table*>& overrides,
    SemiJoinStats* stats) {
  {
    std::lock_guard lock(reduction_mu_);
    if (auto* hit = reduction_cache_.Find(key, snap.version())) {
      m_reduction_hits_->Add(1);
      return *hit;
    }
  }
  auto r = SemiJoinReduce(snap, q, overrides, stats);
  if (!r.ok()) return r.status();
  auto tables = std::make_shared<const std::vector<Table>>(std::move(*r));
  m_reduction_misses_->Add(1);
  std::lock_guard lock(reduction_mu_);
  // Lost a reduction race: adopt (and touch) the installed tables.
  if (auto* won = reduction_cache_.Find(key, snap.version())) return *won;
  reduction_cache_.Put(key, snap.version(), tables);
  return tables;
}

Scheduler* QueryEngine::EnsureScheduler() {
  {
    std::shared_lock lock(mu_);
    if (scheduler_) return scheduler_.get();
  }
  std::unique_lock lock(mu_);
  if (!scheduler_) {
    scheduler_ = std::make_unique<Scheduler>(opts_.num_threads, &metrics_);
  }
  return scheduler_.get();
}

std::future<Result<QueryResult>> QueryEngine::Submit(PreparedQuery prepared,
                                                     Bindings bindings) {
  Scheduler* scheduler = EnsureScheduler();
  return SubmitQuery(
      scheduler, [this, scheduler, prepared = std::move(prepared),
                  bindings = std::move(bindings)]() {
        m_batch_queries_->Add(1);
        return ExecuteInternal(prepared, bindings, scheduler,
                               /*use_result_cache=*/true);
      });
}

std::future<Result<QueryResult>> QueryEngine::Submit(PreparedQuery prepared,
                                                     Bindings bindings,
                                                     Snapshot snap) {
  Scheduler* scheduler = EnsureScheduler();
  return SubmitQuery(
      scheduler, [this, scheduler, prepared = std::move(prepared),
                  bindings = std::move(bindings), snap = std::move(snap)]() {
        m_batch_queries_->Add(1);
        if (!db_->OwnsSnapshot(snap)) {
          return Result<QueryResult>(Status::InvalidArgument(
              "snapshot is empty or belongs to a different database"));
        }
        return ExecuteInternal(prepared, bindings, scheduler,
                               /*use_result_cache=*/true, &snap);
      });
}

std::vector<Result<QueryResult>> QueryEngine::ExecuteBatch(
    const std::vector<PreparedQuery>& prepared,
    const std::vector<Bindings>& bindings) {
  std::vector<Result<QueryResult>> out;
  const size_t n = prepared.size();
  if (!bindings.empty() && bindings.size() != n) {
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(Status::InvalidArgument(
          "ExecuteBatch: bindings must be empty or match prepared in size"));
    }
    return out;
  }
  if (n == 0) return out;

  Scheduler* scheduler = EnsureScheduler();
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(
        Submit(prepared[i], bindings.empty() ? Bindings{} : bindings[i]));
  }
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Work-share while waiting: run queued tasks (other queries of this
    // batch, or their operator morsels) on this thread instead of idling.
    while (futures[i].wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready &&
           scheduler->TryRunOne()) {
    }
    out.push_back(futures[i].get());
  }
  return out;
}

EngineStats QueryEngine::stats() const {
  // A snapshot view over the metrics registry (the source of truth), plus
  // the result cache's and scheduler's own counters.
  EngineStats s;
  s.queries = m_queries_->Value();
  s.batch_queries = m_batch_queries_->Value();
  s.prepared_queries = m_prepared_->Value();
  s.plan_cache_hits = m_plan_hits_->Value();
  s.plan_cache_misses = m_plan_misses_->Value();
  s.canonical_remaps = m_remaps_->Value();
  s.canonical_remap_hits = m_remap_hits_->Value();
  s.reduction_cache_hits = m_reduction_hits_->Value();
  s.reduction_cache_misses = m_reduction_misses_->Value();
  const ResultCacheStats rc = result_cache_.stats();
  s.result_cache_hits = rc.hits;
  s.result_cache_misses = rc.misses;
  s.result_cache_in_flight_waits = rc.in_flight_waits;
  s.result_cache_evictions = rc.evictions;
  s.result_cache_delta_maintained = m_delta_maintained_->Value();
  s.result_cache_swept = m_swept_->Value();
  s.result_cache_entries = rc.entries;
  {
    std::shared_lock lock(mu_);
    if (scheduler_) s.tasks_executed = scheduler_->tasks_executed();
  }
  s.scans.filtered_scans = m_scan_filtered_->Value();
  s.scans.parallel_scans = m_scan_parallel_->Value();
  s.scans.chunks_scanned = m_scan_chunks_scanned_->Value();
  s.scans.chunks_pruned = m_scan_chunks_pruned_->Value();
  s.scans.rows_scanned = m_scan_rows_scanned_->Value();
  s.scans.rows_selected = m_scan_rows_selected_->Value();
  s.semijoin_reductions = m_semijoin_reductions_->Value();
  s.bloom_filters_built = m_bloom_built_->Value();
  s.bloom_probes_skipped = m_bloom_skipped_->Value();
  s.traces_recorded = m_traces_->Value();
  s.safe_plan_routed = m_safe_routed_->Value();
  s.safe_plan_unsafe_residue = m_safe_residue_->Value();
  return s;
}

}  // namespace dissodb
