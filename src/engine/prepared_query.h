// Prepared-query handles: a query compiled once, canonicalized, and
// executable many times with different Bindings.
//
// QueryEngine::Prepare parses and canonicalizes a query (variables renamed
// to occurrence order, see src/query/canonicalize.h), compiles its
// dissociation plans in canonical variable space, and returns a cheap
// copyable handle over the immutable compiled artifact. Because the plan
// cache and all subplan fingerprints key on the canonical form,
// differently-named but isomorphic queries share one compiled plan and one
// set of ResultCache entries; the engine maps the answer relation back to
// the caller's variable order with a zero-copy column remap.
#ifndef DISSODB_ENGINE_PREPARED_QUERY_H_
#define DISSODB_ENGINE_PREPARED_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/plan/plan.h"
#include "src/query/canonicalize.h"
#include "src/query/cq.h"

namespace dissodb {

/// \brief Value-type handle over an immutable prepared query. Copy freely;
/// executions are driven through QueryEngine::Execute / Submit.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  bool valid() const { return impl_ != nullptr; }

  /// The query as the caller wrote it (original variable ids).
  const ConjunctiveQuery& original() const { return impl_->original; }
  /// The canonicalized query the plans are compiled against.
  const ConjunctiveQuery& canonical() const { return impl_->canon.query; }
  /// Engine-wide identity of the compiled artifact: the canonical
  /// rendering (an engine compiles under one set of optimization flags).
  const std::string& cache_key() const { return impl_->cache_key; }
  /// Number of "$k" / "?" placeholders a Bindings must fill.
  int num_params() const { return impl_->canon.query.num_params(); }
  /// Whether answers are column-remapped back to the caller's variable
  /// order (false when the query already was in canonical order).
  bool needs_remap() const { return !impl_->canon.identity; }
  /// Whether Prepare was served from the engine's plan cache.
  bool from_plan_cache() const { return impl_->from_plan_cache; }
  /// True iff executions of this handle return exact probabilities (the
  /// query is safe given the schema knowledge), not dissociation bounds.
  bool exact() const { return impl_->compiled->exact; }

  struct Impl {
    ConjunctiveQuery original;
    CanonicalizedQuery canon;
    std::string cache_key;
    std::shared_ptr<const CompiledPlans> compiled;
    bool from_plan_cache = false;
    /// False when the query embeds string constants unknown to the
    /// database's pool: their parse-local negative codes are not stable
    /// across queries, so such executions never exchange results with the
    /// shared cache.
    bool share_results = true;
  };

 private:
  friend class QueryEngine;
  explicit PreparedQuery(std::shared_ptr<const Impl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<const Impl> impl_;
};

}  // namespace dissodb

#endif  // DISSODB_ENGINE_PREPARED_QUERY_H_
