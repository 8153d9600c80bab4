// QueryEngine — the reusable engine facade over one immutable database.
//
// Owns the full pipeline: parse -> canonicalization -> structural analysis /
// schema knowledge -> dissociation plan choice (Algorithms 1-3) -> optional
// semi-join reduction -> vectorized plan evaluation -> ranked answers.
//
// The public surface is a prepared-query API:
//
//   auto prepared = engine.Prepare("q(x) :- R(x,$0), S(x,y)");
//   auto result   = engine.Execute(*prepared, Bindings().Set(0, Value::Int64(7)));
//   auto future   = engine.Submit(*prepared, bindings);   // async, pooled
//
// Prepare compiles once and canonicalizes variable ids (occurrence-order
// renaming), so differently-named but isomorphic queries share one plan-
// cache entry and the same ResultCache fingerprints — answers are mapped
// back to the caller's variable order with a zero-copy column remap.
// Bindings carry constant parameters and per-atom table selections; tagged
// selections (and Opt. 3's semi-join-reduced inputs, which the engine tags
// as reduction(query, db version)) stay fingerprintable and therefore keep
// participating in cross-query result sharing.
//
// Serving layer (src/serve/): the engine owns a bounded ResultCache of
// evaluated subplan relations keyed by (plan fingerprint [+ binding tags],
// database version) — the paper's Opt. 2 subplan sharing lifted from one
// plan DAG to the whole workload — and a Scheduler thread pool. Submit
// enqueues one pooled task per execution and returns a future (per-query
// error delivery); ExecuteBatch submits a whole workload and drains queue
// tasks on the calling thread while it waits. Rankings are bit-identical
// to sequential Execute calls.
//
// Snapshot isolation: every execution runs against an immutable Snapshot —
// either one the caller pinned (Execute/Submit overloads taking a
// Snapshot) or one acquired at execution start. The engine never mutates
// the database (string constants parse through the read-only pool path),
// and all caches are internally synchronized — any number of threads may
// Prepare/Execute/Submit concurrently on one engine *while writer
// transactions commit to the underlying Database*: each execution sees
// exactly one fully-published version, a held snapshot returns
// bit-identical results across commits, and ResultCache entries are
// stamped per snapshot version (entries of versions no held snapshot pins
// are swept on commit via the database's commit hook). Do not destroy the
// engine while a writer is mid-commit on the same database.
#ifndef DISSODB_ENGINE_QUERY_ENGINE_H_
#define DISSODB_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/anytime/anytime.h"
#include "src/common/status.h"
#include "src/dissociation/propagation.h"
#include "src/engine/bindings.h"
#include "src/engine/prepared_query.h"
#include "src/exec/operators.h"
#include "src/exec/ranking.h"
#include "src/exec/semijoin.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plan/plan.h"
#include "src/query/cq.h"
#include "src/serve/result_cache.h"
#include "src/serve/scheduler.h"
#include "src/serve/versioned_lru.h"
#include "src/storage/database.h"

namespace dissodb {

/// Engine-wide configuration; per-query strategy comes from
/// PropagationOptions (Section 4 optimization toggles).
struct EngineOptions {
  PropagationOptions propagation;
  /// Max cached compiled plans (LRU; a Prepare hit refreshes the entry);
  /// 0 disables the cache.
  size_t plan_cache_capacity = 1024;
  /// Delta-maintain up to this many hot result-cache entries per
  /// append-only commit, hottest (most recently used) first: instead of
  /// sweeping an entry the commit made stale, re-evaluate its subplan over
  /// just the appended rows and republish the merged relation at the new
  /// version (bit-identical to a from-scratch evaluation; see
  /// src/serve/delta_maintenance.h). The rest, non-append commits and
  /// unsupported plan shapes fall to the ordinary sweep; 0 turns
  /// maintenance off.
  size_t delta_maintain_limit = 64;
  /// Worker threads for Submit / batches / morsel-parallel operators;
  /// 0 = hardware concurrency. The pool starts lazily on first use.
  int num_threads = 0;
  /// Trace every Nth execution (1 = every execution, 0 = only executions
  /// whose Bindings request it via EnableTrace). A traced execution builds
  /// a span tree (one span per plan node, annotated with rows, chunk
  /// pruning, cache interactions, SIMD path) attached to its QueryResult;
  /// untraced executions pay a single branch per instrumentation site.
  size_t trace_sample_every = 0;
};

struct EngineStats {
  size_t queries = 0;
  size_t batch_queries = 0;  ///< subset of `queries` served asynchronously
  size_t prepared_queries = 0;  ///< Prepare calls
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  /// Executions whose answers were column-remapped from canonical variable
  /// space back to the caller's variable order.
  size_t canonical_remaps = 0;
  /// Plan-cache hits that only exist because of canonicalization: the
  /// hitting query's original spelling differs from the spelling that
  /// installed the entry, so a cache keyed on the spelling would have
  /// missed.
  size_t canonical_remap_hits = 0;
  size_t result_cache_hits = 0;
  size_t result_cache_misses = 0;  ///< actual computations (leaders)
  /// Requests that waited on a concurrent computation of the same subplan
  /// instead of duplicating it (in-flight dedup).
  size_t result_cache_in_flight_waits = 0;
  size_t result_cache_evictions = 0;
  /// Entries rolled forward to the new version by delta maintenance after
  /// an append-only commit (served as hits instead of recomputed).
  size_t result_cache_delta_maintained = 0;
  /// Entries swept at commit time because their version is older than the
  /// oldest live snapshot, so no execution can ever request them again
  /// (same count the engine.result_cache.swept counter exports).
  size_t result_cache_swept = 0;
  size_t result_cache_entries = 0;
  size_t reduction_cache_hits = 0;    ///< Opt. 3 reductions served cached
  size_t reduction_cache_misses = 0;  ///< Opt. 3 reductions computed
  size_t tasks_executed = 0;  ///< scheduler tasks (query tasks + morsels)
  /// Chunked-scan counters aggregated over every evaluated plan (zone-map
  /// pruning effectiveness, chunk-parallel scan usage).
  ChunkedScanStats scans;
  /// Opt. 3 semi-join reductions actually computed (cache hits excluded),
  /// with their Bloom pre-filter counters — previously dropped per-call.
  size_t semijoin_reductions = 0;
  size_t bloom_filters_built = 0;
  size_t bloom_probes_skipped = 0;
  /// Executions that recorded a span tree (sampling or per-query opt-in).
  size_t traces_recorded = 0;
  /// Opt. 1 compiles the lifted analyzer resolved exactly (safe query:
  /// results exact).
  size_t safe_plan_routed = 0;
  /// Opt. 1 compiles that hit >= 1 unsafe residue (dissociation reserved
  /// for the residues; scores are upper bounds).
  size_t safe_plan_unsafe_residue = 0;
};

struct QueryResult {
  /// Answers sorted by descending propagation score.
  std::vector<RankedAnswer> answers;
  /// Plan-DAG nodes actually evaluated (shows Opt. 2 sharing).
  size_t nodes_evaluated = 0;
  /// Plan nodes served from the shared result cache instead of evaluated.
  size_t result_cache_hits = 0;
  /// Whether the compiled plan came from the engine's cache.
  bool from_plan_cache = false;
  /// True iff the scores are exact probabilities — the query is safe given
  /// the schema knowledge (Corollary 28), so the safe plan's score *is*
  /// P(q = a). False means dissociation upper bounds.
  bool exact = false;
  /// Span tree of this execution; non-null iff the execution was traced
  /// (EngineOptions.trace_sample_every or Bindings::EnableTrace). Export
  /// with ToText() / ToChromeJson() (Perfetto-loadable).
  std::shared_ptr<const obs::QueryTrace> trace;
  /// Anytime executions only (RunWithGuarantees): per-answer lower bounds
  /// aligned with `answers` (whose scores are then the interval's point
  /// estimates and upper bounds for unrefined answers). Empty for plain
  /// Execute results.
  std::vector<double> lower_bounds;
  /// Anytime executions only: every guarantee the caller requested was met
  /// (verdict kExact or kCertified). Always false for plain Execute.
  bool certified = false;
};

/// Result of QueryEngine::RunWithGuarantees: bounded answers plus the
/// escalation verdict and refinement telemetry. `base` mirrors the answers
/// as an ordinary QueryResult (point scores, lower_bounds, certified) so
/// existing consumers keep working.
struct AnytimeResult {
  /// Sorted by descending point score, ties ascending tuple — positionally
  /// comparable to QueryResult::answers from Execute.
  std::vector<BoundedAnswer> answers;
  AnytimeVerdict verdict = AnytimeVerdict::kBoundsOnly;
  size_t refine_rounds = 0;
  /// Distinct answers refined at all — stays below answers.size() whenever
  /// interval ranking settled some positions from bounds alone.
  size_t refined_answers = 0;
  /// Answers contesting a rank boundary right after the bounds stages.
  size_t contested_initial = 0;
  size_t mc_samples_drawn = 0;
  /// Order-certified top positions (top-k target).
  size_t certified_prefix = 0;
  /// Guarantees unmet because the deadline fired mid-refinement.
  bool deadline_hit = false;
  /// Per-atom oblivious exponents d_i of the lower-bound transform (empty
  /// on the safe-exact route).
  std::vector<double> exponents;
  QueryResult base;
};

class QueryEngine {
 public:
  explicit QueryEngine(std::shared_ptr<const Database> db,
                       EngineOptions opts = {});
  ~QueryEngine();

  /// Non-owning engine over a caller-kept database (examples, benches,
  /// tests). The database must outlive the engine.
  static QueryEngine Borrow(const Database& db, EngineOptions opts = {});

  const Database& db() const { return *db_; }
  const EngineOptions& options() const { return opts_; }

  // -------------------------------------------------------------------------
  // Prepared-query API (primary surface)
  // -------------------------------------------------------------------------

  /// Parses, canonicalizes, and compiles `query_text` ("$k" / "?" terms are
  /// parameter placeholders). Isomorphic queries return handles over the
  /// same cached compiled artifact.
  Result<PreparedQuery> Prepare(std::string_view query_text);

  /// Prepares an already-parsed query.
  Result<PreparedQuery> Prepare(const ConjunctiveQuery& q);

  /// Synchronous execution with `bindings` (parameter values + per-atom
  /// table selections), against a snapshot acquired at call time. Does not
  /// consult the shared result cache — Execute timings measure evaluation.
  Result<QueryResult> Execute(const PreparedQuery& prepared,
                              const Bindings& bindings = {});

  /// Synchronous execution pinned to `snap`: reads exactly that state no
  /// matter how many commits have happened since it was acquired. Repeated
  /// calls with one held snapshot return bit-identical results.
  Result<QueryResult> Execute(const PreparedQuery& prepared,
                              const Bindings& bindings, const Snapshot& snap);

  /// Anytime execution: staged escalation from dissociation bounds to
  /// certified exactness (src/anytime/). Safe queries return exact point
  /// intervals immediately; unsafe queries get [lower, upper] intervals
  /// from the dissociation plans (upper) and their obliviously rescaled
  /// evaluation (lower), then — only for answers whose intervals still
  /// contest a rank boundary or exceed the width budget — lineage-level
  /// refinement (exact WMC or incremental MC) in cancellable rounds until
  /// the guarantees of `spec` hold, the budget dries up, or the deadline
  /// fires. The bounds stages always complete; the deadline gates only
  /// refinement, and an expired deadline returns bounds-only with no
  /// worker left running.
  Result<AnytimeResult> RunWithGuarantees(const PreparedQuery& prepared,
                                          const Bindings& bindings = {},
                                          const GuaranteeSpec& spec = {});

  /// Asynchronous execution: enqueues one pooled task and returns
  /// immediately; the execution snapshots the database when it starts.
  /// Pooled executions share subplans through the result cache. Errors are
  /// delivered per query through the future. Bound table pointers must
  /// stay alive until the future resolves.
  std::future<Result<QueryResult>> Submit(PreparedQuery prepared,
                                          Bindings bindings = {});

  /// Asynchronous execution pinned to `snap` (see the Execute overload).
  /// Result-cache entries are stored under the snapshot's version, so
  /// executions pinned to one snapshot keep sharing subplans across
  /// concurrent commits. The task holds its own Snapshot copy, released
  /// shortly *after* the future resolves (when the pooled task's resources
  /// are destroyed) — so the version stays live, and its cache entries
  /// sweep-exempt, until then.
  std::future<Result<QueryResult>> Submit(PreparedQuery prepared,
                                          Bindings bindings, Snapshot snap);

  /// Batch serving path, rebuilt on Submit: one pooled task per execution,
  /// subplan dedup through the result cache, and the calling thread drains
  /// queue tasks while it waits. Results align with `prepared` by index;
  /// each query fails or succeeds independently. `bindings` is either
  /// empty (no bindings anywhere) or one entry per query.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<PreparedQuery>& prepared,
      const std::vector<Bindings>& bindings = {});

  /// Snapshot view assembled from the engine's metrics registry plus the
  /// result cache and scheduler (see MetricsRegistry for the live handles).
  EngineStats stats() const;

  /// The engine-owned metrics registry: every counter/gauge/histogram the
  /// engine, its scheduler, and its executions record into. Exposes
  /// PrometheusText() for scraping and histogram quantiles for latency
  /// work (e.g. engine.execute_ns, scheduler.queue_wait_ns.query).
  obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// `original_text` is the pre-canonicalization rendering of the query
  /// being prepared; on a hit, `renamed_hit` reports whether it differs
  /// from the spelling that installed the entry (i.e. the hit exists only
  /// because of canonicalization).
  Result<std::shared_ptr<const CompiledPlans>> GetOrCompile(
      const ConjunctiveQuery& q, const std::string& key,
      const std::string& original_text, bool* cache_hit, bool* renamed_hit);

  /// One execution after the bind stage. Not copyable or movable:
  /// `query` may point at `substituted`, and the trace context holds a
  /// mutex.
  struct BoundQuery {
    const PreparedQuery::Impl* impl = nullptr;
    /// The executed query: the canonical query, or `substituted` when the
    /// query has placeholders.
    const ConjunctiveQuery* query = nullptr;
    ConjunctiveQuery substituted;
    /// False when a bound string parameter is unknown to the pool: its
    /// parse-local code is not stable across queries, so the execution
    /// must not exchange results.
    bool params_shareable = true;
    /// Atom bindings remapped to canonical atom indices.
    AtomOverrides overrides;
    uint64_t t_start = 0;
    obs::TraceContext trace_ctx;
    obs::TraceContext* trace = nullptr;  ///< &trace_ctx iff traced
    uint32_t root = 0;                   ///< root span (0 when untraced)
  };

  /// The bind stage of ExecuteInternal and RunWithGuarantees: rejects an
  /// empty handle, decides tracing (per-query opt-in or 1-in-N sampling)
  /// and opens the root span "<span_prefix><canonical query>", substitutes
  /// parameters, and remaps atom bindings to canonical indices.
  Status Bind(const PreparedQuery& prepared, const Bindings& bindings,
              const char* span_prefix, BoundQuery* out);

  /// Shared by Execute and Submit tasks: bind -> Opt. 3 reduction ->
  /// evaluate (EvaluatePlans) -> rank. `scheduler` enables the
  /// morsel-parallel operator paths (nullptr = sequential) and
  /// `use_result_cache` engages the workload-shared subplan cache.
  /// `pinned`, if non-null, is the snapshot to execute against; otherwise
  /// one is acquired here.
  Result<QueryResult> ExecuteInternal(const PreparedQuery& prepared,
                                      const Bindings& bindings,
                                      Scheduler* scheduler,
                                      bool use_result_cache,
                                      const Snapshot* pinned = nullptr);

  /// Adds one evaluation's scan counters to the registry.
  void RecordScans(const ChunkedScanStats& scans);

  /// Opt. 3 support: returns the semi-join reduction of the executed query
  /// under `overrides` against `snap`, cached under (`key`, snapshot
  /// version). `stats`, if non-null, accumulates the reduction's semi-join
  /// counters (only when the reduction is actually computed, not on a
  /// cache hit).
  Result<std::shared_ptr<const std::vector<Table>>> GetOrReduce(
      const std::string& key, const Snapshot& snap, const ConjunctiveQuery& q,
      const std::unordered_map<int, const Table*>& overrides,
      SemiJoinStats* stats);

  /// Commit-hook body: records commit telemetry, delta-maintains hot
  /// result-cache entries across append-only commits, then sweeps entries
  /// below the oldest live snapshot version.
  void OnCommit(const CommitInfo& info);

  /// Rolls hot recipe-carrying result-cache entries forward from the
  /// pre-commit version to `info.version` (append-only commits only).
  void MaintainCacheEntries(const CommitInfo& info);

  /// Sweeps result-cache entries below the oldest live snapshot version
  /// (they can never be requested again).
  void SweepStaleResults();

  /// Starts the thread pool on first use.
  Scheduler* EnsureScheduler();

  std::shared_ptr<const Database> db_;
  EngineOptions opts_;
  /// Token of the commit hook the constructor registers (delta maintenance
  /// and stale-entry sweeps of both caches).
  int commit_hook_token_ = -1;

  // Compiled-plan cache keyed by canonical query text, stored at version 0
  // (a compiled plan does not depend on the data).
  struct PlanCacheEntry {
    std::shared_ptr<const CompiledPlans> compiled;
    /// Original (pre-canonicalization) spelling that installed the entry;
    /// a hit from a different spelling is a canonicalization win.
    std::string original_text;
  };
  mutable std::mutex plan_mu_;
  VersionedLru<PlanCacheEntry> plan_cache_;

  // Opt. 3 reduction cache keyed by (reduction tag, snapshot version); the
  // commit-hook sweep drops the versions no held snapshot pins any more.
  mutable std::mutex reduction_mu_;
  VersionedLru<std::shared_ptr<const std::vector<Table>>> reduction_cache_;

  mutable std::shared_mutex mu_;          // guards scheduler_ init
  ResultCache result_cache_;

  // Engine-owned metrics registry (declared before scheduler_, which records
  // into it) plus cached handles for the hot counters — EngineStats is
  // assembled from these on demand, the registry is the source of truth.
  mutable obs::MetricsRegistry metrics_;
  obs::Counter* m_queries_;
  obs::Counter* m_batch_queries_;
  obs::Counter* m_prepared_;
  obs::Counter* m_plan_hits_;
  obs::Counter* m_plan_misses_;
  obs::Counter* m_remaps_;
  obs::Counter* m_remap_hits_;
  obs::Counter* m_reduction_hits_;
  obs::Counter* m_reduction_misses_;
  obs::Counter* m_traces_;
  obs::Counter* m_scan_filtered_;
  obs::Counter* m_scan_parallel_;
  obs::Counter* m_scan_chunks_scanned_;
  obs::Counter* m_scan_chunks_pruned_;
  obs::Counter* m_scan_rows_scanned_;
  obs::Counter* m_scan_rows_selected_;
  obs::Counter* m_bloom_built_;
  obs::Counter* m_bloom_skipped_;
  obs::Counter* m_semijoin_reductions_;
  obs::Counter* m_semijoins_;
  obs::Counter* m_semijoin_build_rows_;
  obs::Counter* m_dense_semijoins_;
  obs::Counter* m_semijoin_hashed_rows_;
  obs::Counter* m_delta_maintained_;
  obs::Counter* m_swept_;
  obs::Counter* m_safe_routed_;
  obs::Counter* m_safe_residue_;
  obs::Counter* m_anytime_runs_;
  obs::Counter* m_anytime_exact_;
  obs::Counter* m_anytime_certified_;
  obs::Counter* m_anytime_bounds_only_;
  obs::Counter* m_anytime_deadline_aborts_;
  obs::Counter* m_anytime_refine_rounds_;
  obs::Counter* m_anytime_refined_answers_;
  obs::Counter* m_mc_samples_drawn_;
  obs::Histogram* m_execute_ns_;
  obs::Histogram* m_commit_append_ns_per_row_;
  obs::Histogram* m_safe_compile_ns_;
  obs::Histogram* m_anytime_rounds_per_query_;
  obs::Histogram* m_anytime_run_ns_;
  /// Round-robin tick for EngineOptions.trace_sample_every.
  std::atomic<uint64_t> trace_tick_{0};
  /// Declared last on purpose: destroyed first, so the pool joins (running
  /// any still-queued Submit tasks to completion) while every member those
  /// tasks touch — caches, stats, counters — is still alive. Callers may
  /// drop a Submit future and destroy the engine without draining it.
  std::unique_ptr<Scheduler> scheduler_;  // lazy; guarded by mu_
};

}  // namespace dissodb

#endif  // DISSODB_ENGINE_QUERY_ENGINE_H_
