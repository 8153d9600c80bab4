// Typed, fingerprintable execution-time bindings for prepared queries.
//
// A Bindings object carries everything that varies between executions of
// one PreparedQuery:
//   - constant parameters: values for the "$k" / "?" placeholders in the
//     query text, substituted before evaluation, and
//   - per-atom table selections: a Table bound in place of an atom's
//     catalog table (pre-filtered inputs, per-tenant slices, ...).
//
// Bindings are *fingerprintable*: parameter values always are (they
// become constants in the executed query, which the subplan fingerprints
// render), and an atom selection is whenever the caller supplies a content
// tag — a string that uniquely identifies the bound table's contents
// (e.g. "tenant:42@v7"). Two
// executions presenting the same tag for the same atom MUST bind identical
// table contents; in exchange, their subplans participate in the engine's
// shared ResultCache instead of disabling it. Untagged selections keep the
// conservative behavior: subplans touching them are never shared.
//
// Lifetime: bound Table pointers must stay valid until the execution
// completes (for Submit(), until the returned future is resolved).
#ifndef DISSODB_ENGINE_BINDINGS_H_
#define DISSODB_ENGINE_BINDINGS_H_

#include <map>
#include <string>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/exec/evaluator.h"

namespace dissodb {

class Bindings {
 public:
  Bindings() = default;

  /// Binds placeholder $`param_idx` to `v`. Chainable.
  Bindings& Set(int param_idx, Value v) {
    params_[param_idx] = v;
    return *this;
  }

  /// Binds atom `atom_idx` (position in the prepared query's body) to
  /// `table`. A non-empty `content_tag` makes the selection fingerprintable
  /// (see file comment). Chainable.
  Bindings& SetAtomTable(int atom_idx, const Table* table,
                         std::string content_tag = {}) {
    atoms_[atom_idx] = AtomOverride{table, std::move(content_tag)};
    return *this;
  }

  /// Requests a span tree for executions running under these bindings,
  /// regardless of the engine's sampling rate (EngineOptions.
  /// trace_sample_every). The trace lands on QueryResult::trace. Chainable.
  Bindings& EnableTrace(bool on = true) {
    trace_ = on;
    return *this;
  }

  bool trace_requested() const { return trace_; }

  bool empty() const { return params_.empty() && atoms_.empty(); }
  size_t num_params_bound() const { return params_.size(); }
  const AtomOverrides& atom_overrides() const { return atoms_; }

  /// The dense parameter vector [$0, ..., $num_params-1]; fails if any
  /// placeholder is unbound or an index is out of range.
  Result<std::vector<Value>> ParamVector(int num_params) const;

 private:
  std::map<int, Value> params_;
  AtomOverrides atoms_;
  bool trace_ = false;  // per-execution tracing opt-in
};

}  // namespace dissodb

#endif  // DISSODB_ENGINE_BINDINGS_H_
