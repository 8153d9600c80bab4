#include "bench/e2e/adapter.h"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <span>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/dissociation/minimal_plans.h"
#include "src/engine/query_engine.h"
#include "src/infer/query_inference.h"
#include "src/lift/safe_plan.h"
#include "src/obs/metrics.h"
#include "src/query/analysis.h"
#include "src/query/canonicalize.h"
#include "src/query/parser.h"
#include "src/storage/database.h"
#include "src/workload/synthetic.h"
#include "src/workload/tpch.h"

namespace e2e {

namespace dd = dissodb;

namespace {

// Generators build whole tables before the benchmark starts; a failure
// there is a broken benchmark, not a measurement.
void Require(const dd::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "e2e: %s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

void AddTables(dd::Database* db, std::vector<dd::Table> tables) {
  dd::Database::Writer w = db->BeginWrite();
  for (dd::Table& t : tables) Require(w.AddTable(std::move(t)).status(), "add table");
  w.Commit();
}

Tuple ToTuple(const std::vector<dd::Value>& values) {
  Tuple t;
  t.reserve(values.size());
  for (const dd::Value& v : values) t.push_back(v.AsInt64());
  return t;
}

std::vector<EngineSpan> ToSpans(const std::shared_ptr<const dd::obs::QueryTrace>& trace) {
  std::vector<EngineSpan> out;
  if (trace == nullptr) return out;
  out.reserve(trace->spans.size());
  for (const dd::obs::TraceSpan& s : trace->spans) {
    out.push_back(EngineSpan{s.id, s.parent, s.name, s.start_ns, s.end_ns,
                             s.thread, s.args});
  }
  return out;
}

ExecResult ToExecResult(const dd::Result<dd::QueryResult>& r, CallTime call) {
  ExecResult out;
  out.call = call;
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.answers.reserve(r->answers.size());
  for (const dd::RankedAnswer& a : r->answers) {
    out.answers.push_back(Answer{ToTuple(a.tuple), a.score});
  }
  out.exact = r->exact;
  out.nodes_evaluated = r->nodes_evaluated;
  out.trace = ToSpans(r->trace);
  return out;
}

}  // namespace

uint64_t NowNs() { return dd::obs::NowNanos(); }

// ---------------------------------------------------------------------------
// Databases
// ---------------------------------------------------------------------------

Db Db::Wrap(dd::Database&& db) {
  Db out;
  out.db_ = std::make_shared<dd::Database>(std::move(db));
  return out;
}

Selection Db::Select(std::shared_ptr<const dd::Table> table) {
  Selection s;
  s.table_ = std::move(table);
  return s;
}

std::shared_ptr<const dd::Table> Db::CatalogTable(
    const std::string& name) const {
  const dd::Snapshot snap = db_->snapshot();
  const int idx = snap.FindTable(name);
  if (idx < 0) {
    std::fprintf(stderr, "e2e: no table named %s\n", name.c_str());
    std::abort();
  }
  return snap.table_handle(idx);
}

Db Db::Tpch(double scale, uint64_t seed) {
  dd::TpchOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  return Wrap(dd::MakeTpchDatabase(opts));
}

Db Db::ChainsAndStars(size_t rows, int max_chain, int petals, int max_star,
                      uint64_t seed) {
  dd::ChainSpec chain;
  chain.k = max_chain;
  chain.n = rows;
  chain.seed = seed;
  dd::Database db = dd::MakeChainDatabase(chain);

  // Star relations share one domain sized so every hub keeps a few hundred
  // (500 rows) to a few dozen (20 rows) matches for k = 2..max_star.
  dd::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const int64_t domain = static_cast<int64_t>(rows + rows / 5);
  std::vector<dd::Table> tables;
  for (int i = 1; i <= petals; ++i) {
    dd::Table t(dd::RelationSchema::AllInt64("U" + std::to_string(i), 1));
    std::set<int64_t> seen;
    while (t.NumRows() < rows) {
      const int64_t v = rng.NextInt(1, domain);
      if (seen.insert(v).second) {
        t.AddRow({dd::Value::Int64(v)}, rng.NextDouble() * 0.5);
      }
    }
    tables.push_back(std::move(t));
  }
  for (int k = 2; k <= max_star; ++k) {
    dd::Table t(dd::RelationSchema::AllInt64("H" + std::to_string(k), k));
    std::set<std::vector<int64_t>> seen;
    std::vector<int64_t> key(k);
    std::vector<dd::Value> row(k);
    while (t.NumRows() < rows) {
      for (int c = 0; c < k; ++c) {
        key[c] = rng.NextInt(1, domain);
        row[c] = dd::Value::Int64(key[c]);
      }
      if (seen.insert(key).second) t.AddRow(row, rng.NextDouble() * 0.5);
    }
    tables.push_back(std::move(t));
  }
  AddTables(&db, std::move(tables));
  return Wrap(std::move(db));
}

Db Db::Serve(size_t rows, int64_t keys, uint64_t seed) {
  dd::Rng rng(seed);
  // Each (a, b) of the a-major grid [0, 4 * rows / keys) x [0, keys) is
  // kept with probability 1/4: about `rows` distinct tuples, with the b
  // values of every chunk spread over the whole key range.
  const int64_t a_values = static_cast<int64_t>(4 * rows) / keys;
  dd::Table r(dd::RelationSchema::AllInt64("R", 2));
  r.Reserve(rows + rows / 8);
  for (int64_t a = 0; a < a_values; ++a) {
    for (int64_t b = 0; b < keys; ++b) {
      if (rng.NextBounded(4) != 0) continue;
      r.AddRow({dd::Value::Int64(a), dd::Value::Int64(b)},
               0.05 + 0.9 * rng.NextDouble());
    }
  }
  dd::Table s(dd::RelationSchema::AllInt64("S", 1));
  for (int64_t b = 0; b < keys; ++b) {
    s.AddRow({dd::Value::Int64(b)}, 0.5 + 0.4 * rng.NextDouble());
  }
  dd::Database db;
  std::vector<dd::Table> tables;
  tables.push_back(std::move(r));
  tables.push_back(std::move(s));
  AddTables(&db, std::move(tables));
  return Wrap(std::move(db));
}

Db Db::Fanout(const FanoutShape& shape, uint64_t seed) {
  dd::Rng rng(seed);
  auto prob = [&] { return rng.NextDouble() * shape.pi_max; };
  dd::Table a(dd::RelationSchema::AllInt64("A", 2));
  dd::Table b(dd::RelationSchema::AllInt64("B", 2));
  dd::Table c(dd::RelationSchema::AllInt64("C", 1));
  std::vector<bool> c_added(shape.y_domain + 1, false);
  std::vector<bool> used(shape.y_domain + 1, false);
  // Answers own 1..2*xs_per_answer-1 x-values in turn from a seeded start,
  // so lineage sizes differ while every seed, and every residue class of
  // answers, gets the same mix of them.
  const int spread = 2 * shape.xs_per_answer - 1;
  const int offset = static_cast<int>(rng.NextBounded(spread));
  int64_t next_x = 1;
  for (int ans = 1; ans <= shape.answers; ++ans) {
    const int xs = 1 + (ans + offset) % spread;
    for (int i = 0; i < xs; ++i) {
      const int64_t x = next_x++;
      a.AddRow({dd::Value::Int64(ans), dd::Value::Int64(x)}, prob());
      std::vector<int64_t> ys;
      while (static_cast<int>(ys.size()) < shape.fanout) {
        const int64_t y = rng.NextInt(1, shape.y_domain);
        if (used[y]) continue;
        used[y] = true;
        ys.push_back(y);
        b.AddRow({dd::Value::Int64(x), dd::Value::Int64(y)}, prob());
        if (!c_added[y]) {
          c_added[y] = true;
          c.AddRow({dd::Value::Int64(y)}, prob());
        }
      }
      for (int64_t y : ys) used[y] = false;
    }
  }
  dd::Database db;
  std::vector<dd::Table> tables;
  tables.push_back(std::move(a));
  tables.push_back(std::move(b));
  tables.push_back(std::move(c));
  AddTables(&db, std::move(tables));
  return Wrap(std::move(db));
}

size_t Db::Rows(const std::string& table) const {
  return CatalogTable(table)->NumRows();
}

// The two TPC-H selections apply MakeTpchSelections' predicates, one side
// at a time, so each pool entry filters only the table it binds.
Selection Db::SupplierUpTo(int64_t dollar1) const {
  return Select(std::make_shared<const dd::Table>(
      CatalogTable("Supplier")->Filter([&](std::span<const dd::Value> row) {
        return row[0].AsInt64() <= dollar1;
      })));
}

Selection Db::PartLike(const std::string& pattern) const {
  const dd::StringPool& pool = std::as_const(*db_).strings();
  return Select(std::make_shared<const dd::Table>(
      CatalogTable("Part")->Filter([&](std::span<const dd::Value> row) {
        return dd::LikeMatch(pool.Get(row[1].AsStringCode()), pattern);
      })));
}

Selection Db::RowsModulo(const std::string& table, int col, int64_t mod,
                         int64_t rem) const {
  return Select(std::make_shared<const dd::Table>(
      CatalogTable(table)->Filter([&](std::span<const dd::Value> row) {
        return row[col].AsInt64() % mod == rem;
      })));
}

CommitTimes Db::Append(const std::string& table,
                       const std::vector<Tuple>& rows,
                       const std::vector<double>& probs) {
  CommitTimes t;
  t.stage_start = NowNs();
  dd::Database::Writer w = db_->BeginWrite();
  const int idx = w.FindTable(table);
  if (idx < 0) {
    t.error = "no table named " + table;
    return t;
  }
  std::vector<dd::Value> row;
  for (size_t i = 0; i < rows.size(); ++i) {
    row.clear();
    for (int64_t v : rows[i]) row.push_back(dd::Value::Int64(v));
    w.AppendRow(idx, row, probs[i]);
  }
  t.commit_start = NowNs();
  w.Commit();
  t.commit_end = NowNs();
  return t;
}

CommitTimes Db::ScaleProbabilities(double f) {
  CommitTimes t;
  t.stage_start = NowNs();
  dd::Database::Writer w = db_->BeginWrite();
  w.ScaleProbabilities(f);
  t.commit_start = NowNs();
  w.Commit();
  t.commit_end = NowNs();
  return t;
}

uint64_t Db::TimeSnapshot() const {
  const uint64_t t0 = NowNs();
  const dd::Snapshot snap = db_->snapshot();
  const uint64_t t1 = NowNs();
  (void)snap;
  return t1 - t0;
}

std::vector<std::string> TpchColorWords() { return dd::TpchColorWords(); }

std::string TpchQueryText() { return dd::TpchQuery().ToString(); }

bool ExactProbabilities(const Db& db, const std::string& query,
                        std::map<Tuple, double>* out, std::string* error) {
  auto q = dd::ParseQueryReadOnly(query, std::as_const(*db.db_).strings());
  if (!q.ok()) {
    *error = q.status().ToString();
    return false;
  }
  auto exact = dd::ExactProbabilities(*db.db_, *q);
  if (!exact.ok()) {
    *error = exact.status().ToString();
    return false;
  }
  out->clear();
  for (const dd::RankedAnswer& a : *exact) (*out)[ToTuple(a.tuple)] = a.score;
  return true;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(const Db& db, const EngineConfig& config) {
  dd::EngineOptions opts;
  opts.propagation.opt3_semijoin_reduction = config.opt3;
  opts.num_threads = config.threads;
  engine_ = std::make_unique<dd::QueryEngine>(db.db_, opts);
}

Engine::~Engine() = default;

dd::Bindings Engine::ToBindings(const Bind& b) {
  dd::Bindings out;
  for (const auto& [idx, v] : b.params) out.Set(idx, dd::Value::Int64(v));
  for (const Bind::Atom& a : b.atoms) {
    out.SetAtomTable(a.atom, a.table->table_.get(), a.tag);
  }
  out.EnableTrace(b.trace);
  return out;
}

Prepared Engine::Prepare(const std::string& text, std::string* error) {
  Prepared out;
  out.call.start_ns = NowNs();
  auto p = engine_->Prepare(text);
  out.call.end_ns = NowNs();
  if (!p.ok()) {
    *error = p.status().ToString();
    return out;
  }
  out.query_ = std::make_shared<const dd::PreparedQuery>(std::move(*p));
  return out;
}

ExecResult Engine::Execute(const Prepared& query, const Bind& bind) {
  const dd::Bindings bindings = ToBindings(bind);
  CallTime call;
  call.start_ns = NowNs();
  auto r = engine_->Execute(*query.query_, bindings);
  call.end_ns = NowNs();
  return ToExecResult(r, call);
}

std::vector<ExecResult> Engine::ExecuteBatch(const Prepared& query,
                                             const std::vector<Bind>& binds) {
  std::vector<dd::PreparedQuery> queries(binds.size(), *query.query_);
  std::vector<dd::Bindings> bindings;
  bindings.reserve(binds.size());
  for (const Bind& b : binds) bindings.push_back(ToBindings(b));
  CallTime call;
  call.start_ns = NowNs();
  const auto results = engine_->ExecuteBatch(queries, bindings);
  call.end_ns = NowNs();
  std::vector<ExecResult> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(ToExecResult(r, call));
  return out;
}

AnytimeResult Engine::RunWithGuarantees(const Prepared& query,
                                        const Bind& bind,
                                        const Guarantee& guarantee) {
  dd::GuaranteeSpec spec;
  spec.epsilon = guarantee.epsilon;
  spec.top_k = guarantee.top_k;
  const dd::Bindings bindings = ToBindings(bind);
  AnytimeResult out;
  out.call.start_ns = NowNs();
  auto r = engine_->RunWithGuarantees(*query.query_, bindings, spec);
  out.call.end_ns = NowNs();
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.answers.reserve(r->answers.size());
  for (const dd::BoundedAnswer& a : r->answers) {
    out.answers.push_back(Interval{ToTuple(a.tuple), a.lower, a.upper,
                                   a.source == dd::BoundSource::kMc});
  }
  out.certified = r->verdict != dd::AnytimeVerdict::kBoundsOnly;
  out.certified_prefix = r->certified_prefix;
  out.refined_answers = r->refined_answers;
  out.refine_rounds = r->refine_rounds;
  out.mc_samples = r->mc_samples_drawn;
  out.trace = ToSpans(r->base.trace);
  return out;
}

EngineCounters Engine::Counters() const {
  const dd::EngineStats s = engine_->stats();
  EngineCounters c;
  c.plan_cache_hits = s.plan_cache_hits;
  c.plan_cache_misses = s.plan_cache_misses;
  c.reduction_cache_hits = s.reduction_cache_hits;
  c.reduction_cache_misses = s.reduction_cache_misses;
  c.result_cache_hits = s.result_cache_hits;
  c.result_cache_misses = s.result_cache_misses;
  c.delta_maintained = s.result_cache_delta_maintained;
  c.swept = s.result_cache_swept;
  c.rows_scanned = s.scans.rows_scanned;
  c.chunks_scanned = s.scans.chunks_scanned;
  c.chunks_pruned = s.scans.chunks_pruned;
  dd::obs::MetricsRegistry& m = engine_->metrics();
  const auto wait = m.histogram("scheduler.queue_wait_ns.query")->Snapshot();
  const auto run = m.histogram("scheduler.run_ns.query")->Snapshot();
  c.queue_wait_p50_ns = wait.p50();
  c.queue_wait_p95_ns = wait.p95();
  c.run_p50_ns = run.p50();
  return c;
}

// ---------------------------------------------------------------------------
// Compile probe
// ---------------------------------------------------------------------------

struct CompileProbe::State {
  std::shared_ptr<dd::Database> db;
  std::string text;
  std::string error;
  std::unique_ptr<dd::ConjunctiveQuery> parsed;
  std::unique_ptr<dd::CanonicalizedQuery> canon;
  std::unique_ptr<dd::SchemaKnowledge> knowledge;
  bool lift_exact = false;
  bool lifted = false;
  size_t minimal_plans = 0;
};

CompileProbe::CompileProbe(const Db& db, std::string text)
    : s_(std::make_unique<State>()) {
  s_->db = db.db_;
  s_->text = std::move(text);
}

CompileProbe::~CompileProbe() = default;

bool CompileProbe::Parse() {
  auto q = dd::ParseQueryReadOnly(s_->text, std::as_const(*s_->db).strings());
  if (!q.ok()) {
    s_->error = q.status().ToString();
    return false;
  }
  s_->parsed = std::make_unique<dd::ConjunctiveQuery>(std::move(*q));
  return true;
}

bool CompileProbe::Canonicalize() {
  if (s_->parsed == nullptr) return false;
  auto c = dd::CanonicalizeQuery(*s_->parsed);
  if (!c.ok()) {
    s_->error = c.status().ToString();
    return false;
  }
  s_->canon = std::make_unique<dd::CanonicalizedQuery>(std::move(*c));
  return true;
}

bool CompileProbe::Schema() {
  if (s_->canon == nullptr) return false;
  auto sk = dd::SchemaKnowledge::FromSnapshot(s_->canon->query,
                                              s_->db->snapshot());
  if (!sk.ok()) {
    s_->error = sk.status().ToString();
    return false;
  }
  s_->knowledge = std::make_unique<dd::SchemaKnowledge>(std::move(*sk));
  return true;
}

bool CompileProbe::Lift() {
  if (s_->knowledge == nullptr) return false;
  auto lifted = dd::lift::CompileSafePlan(s_->canon->query, *s_->knowledge);
  if (!lifted.ok()) {
    s_->error = lifted.status().ToString();
    return false;
  }
  s_->lifted = true;
  s_->lift_exact = lifted->exact;
  return true;
}

bool CompileProbe::Enumerate() {
  if (s_->knowledge == nullptr) return false;
  auto plans = dd::EnumerateMinimalPlans(s_->canon->query, *s_->knowledge);
  if (!plans.ok()) {
    s_->error = plans.status().ToString();
    return false;
  }
  s_->minimal_plans = plans->size();
  return true;
}

bool CompileProbe::lift_exact() const { return s_->lift_exact; }
size_t CompileProbe::minimal_plans() const { return s_->minimal_plans; }
const std::string& CompileProbe::error() const { return s_->error; }

}  // namespace e2e
