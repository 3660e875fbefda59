#ifndef EDS_EXEC_SESSION_H_
#define EDS_EXEC_SESSION_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "esql/ast.h"
#include "exec/executor.h"
#include "exec/storage.h"
#include "rules/optimizer.h"
#include "term/term.h"

namespace eds::obs {
class TraceSink;
}  // namespace eds::obs
namespace eds::lint {
class LintReport;
}  // namespace eds::lint
namespace eds::verify {
struct VerifyOptions;
}  // namespace eds::verify

namespace eds::exec {

// Steady-clock wall time of each pipeline phase for one Query() call,
// always filled (a handful of clock reads per query — not per node — so
// there is no "off" mode to manage). Parse, translate, schema and exec are
// the durations of their phase.* spans. Benches surface these as counters
// so BENCH trajectories carry per-phase breakdowns.
struct PhaseTimes {
  uint64_t parse_ns = 0;      // ESQL text -> statement AST
  uint64_t translate_ns = 0;  // statement -> LERA term
  uint64_t rewrite_ns = 0;    // rule-based rewriter (0 when rewrite=false)
  uint64_t schema_ns = 0;     // output schema inference
  uint64_t exec_ns = 0;       // plan execution
  uint64_t total_ns = 0;      // whole Query() call
};

// Result of a query: column names, rows, and the plans/stats on both sides
// of the rewriter, so callers (and benchmarks) can inspect what the
// optimizer did.
struct QueryResult {
  std::vector<std::string> columns;
  Rows rows;
  term::TermRef raw_plan;        // straight ESQL -> LERA translation
  term::TermRef optimized_plan;  // after the rule-based rewriter
  rewrite::EngineStats rewrite_stats;
  ExecStats exec_stats;
  PhaseTimes phase_times;
  // Human-readable notes about silent degradation: the rewriter stopping at
  // a safety valve or a governor trip. The rows are still correct — these
  // flag that the plan may be under-optimized and why. Empty normally.
  std::vector<std::string> warnings;
  // The governor trip that cut the rewrite phase short, if any (execution
  // trips are errors, not degradation, so they never land here).
  gov::TripReason rewrite_trip;
};

struct QueryOptions {
  bool rewrite = true;  // run the rule-based rewriter before execution
  rewrite::RewriteOptions rewrite_options;
  ExecOptions exec_options;
  // Query governor budgets. When any limit is set, Query() arms a guard for
  // the whole pipeline: the rewrite and schema phases degrade on a trip
  // (best-so-far plan + QueryResult::warnings/rewrite_trip), execution
  // fails fast with ResourceExhausted. Ignored by phases whose options
  // already carry an explicit caller-owned guard.
  gov::GovernorLimits limits;
};

// The front of the query pipeline, shared by Session and the serving
// layer: parses one SELECT and translates it against `catalog` into LERA,
// recording phase spans into `sink` and the parse/translate split into
// `times` (each may be null).
Result<term::TermRef> TranslateSelect(std::string_view esql,
                                      const catalog::Catalog* catalog,
                                      obs::TraceSink* sink, PhaseTimes* times);

// What FinishQuery needs beyond the plan. The caller arms one guard with
// `limits` before its translate/rewrite steps, so a single guard spans the
// whole pipeline.
struct FinishOptions {
  const catalog::Catalog* catalog = nullptr;
  const Database* db = nullptr;
  // Execution knobs; trace_sink also receives the schema/execute spans.
  ExecOptions exec_options;
  gov::GovernorLimits limits;        // the query's budgets
  gov::QueryGuard* guard = nullptr;  // armed with `limits`; null ungoverned
  size_t max_applications = 0;  // the rewrite's safety valve (warning text)
  uint64_t start_ns = 0;        // query start: deadline remainder, total_ns
  // False when result->columns is already known (a replayed plan), which
  // skips schema inference.
  bool infer_schema = true;
};

// The back half of the query pipeline, shared by Session::Query and the
// serving layer (srv::QueryService): turns result->rewrite_stats into
// degradation warnings and rewrite_trip, re-arms the guard after a
// node-ceiling trip, infers the output columns, and runs `plan` under the
// guard, filling optimized_plan, exec_stats, rows and the schema/exec/total
// phase times. On a failure in execution, result->columns is already set.
Status FinishQuery(const term::TermRef& plan, const FinishOptions& options,
                   QueryResult* result);

// Registration-time checking for AddConstraint. Lint findings are only
// surfaced (one line per EDS-Lxxx hit) — even unparseable text registers,
// exactly as before, and fails at optimizer build time. Soundness
// verification is opt-in and DOES reject: a constraint whose rules provably
// change query results (EDS-Sxxx errors, see src/verify/) is refused with
// InvalidArgument before it can poison the optimizer.
struct ConstraintOptions {
  bool run_lint = true;    // static lint of the rule text (never rejects)
  bool run_verify = false;  // bounded soundness check (rejects on errors)
  // Knobs for run_verify; defaults apply when null.
  const verify::VerifyOptions* verify_options = nullptr;
  // When non-null, findings are appended here; otherwise each finding is
  // printed as one warning line to stderr.
  lint::LintReport* diagnostics = nullptr;
};

// The user-facing facade: one catalog + one database + the generated
// optimizer. This is the "extensible database server" in miniature — DDL
// extends the catalog, integrity constraints and custom rules extend the
// optimizer, and queries flow parse -> translate -> rewrite -> execute.
class Session {
 public:
  Session();
  explicit Session(rules::OptimizerOptions optimizer_options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  catalog::Catalog& catalog() { return catalog_; }
  const catalog::Catalog& catalog() const { return catalog_; }
  Database& db() { return db_; }
  const Database& db() const { return db_; }

  // Runs a script of DDL / INSERT / SELECT statements; SELECT results are
  // discarded (use Query for results).
  Status ExecuteScript(std::string_view esql);

  // Applies one parsed DDL / INSERT statement (SELECTs are rejected with
  // InvalidArgument). This is ExecuteScript's per-statement engine exposed
  // for callers that manage their own parsing and snapshot publication —
  // QueryService::ApplyDdl serializes calls and republishes the serving
  // snapshot afterwards.
  Status Apply(const esql::Statement& stmt);

  // Parses and runs one SELECT.
  Result<QueryResult> Query(std::string_view esql,
                            const QueryOptions& options = {});

  // Translation only: SELECT -> LERA (the rewriter's input).
  Result<term::TermRef> Translate(std::string_view esql_select);

  // Rewrites a LERA term with the session's generated optimizer.
  Result<rewrite::RewriteOutcome> Rewrite(
      const term::TermRef& plan, const rewrite::RewriteOptions& options = {});

  // Executes a LERA term directly.
  Result<Rows> Run(const term::TermRef& plan, const ExecOptions& options = {},
                   ExecStats* stats_out = nullptr);

  // Declares an integrity constraint (rule-language text, §6.1); the
  // optimizer is regenerated on next use. The default overload lints the
  // text and surfaces findings on stderr but accepts regardless; pass
  // ConstraintOptions to capture diagnostics or to opt into soundness
  // verification (which rejects unsound rule sets).
  Status AddConstraint(const std::string& name, const std::string& rule_text);
  Status AddConstraint(const std::string& name, const std::string& rule_text,
                       const ConstraintOptions& options);

  // Creates an object on the heap; `fields` become its named tuple state.
  // Returns the reference value to store in rows.
  Result<value::Value> NewObject(
      const std::string& type_name,
      std::vector<std::pair<std::string, value::Value>> fields);

  // Inserts a row into a stored table (bypassing ESQL, for data
  // generators).
  Status InsertRow(const std::string& table, Row row);

  // Emits the session's schema as a runnable ESQL script: user types (in
  // declaration order), tables, and views (verbatim source where the view
  // was created through this session). Integrity constraints are NOT part
  // of ESQL and are excluded — re-declare them via AddConstraint (they are
  // available from catalog().constraints()). A fresh session executing the
  // dump reproduces the catalog.
  std::string DumpSchema() const;

  // Formats a human-readable report for a SELECT: raw plan, rewrite trace,
  // optimized plan, and statistics. Does not execute the query.
  Result<std::string> Explain(std::string_view esql_select);

  // Forces optimizer regeneration (e.g. after registering custom rules or
  // builtins through optimizer()).
  Status RebuildOptimizer();

  // Monotonic counter bumped whenever the session's rule library changes
  // (AddConstraint, RebuildOptimizer). The rewritten-plan cache keys
  // entries on (catalog().epoch(), rules_epoch()) so plans rewritten under
  // a stale rule set are lazily invalidated; see src/srv/plan_cache.h.
  // Atomic for the same reason as Catalog::epoch(): serving threads poll it
  // to detect stale snapshots.
  uint64_t rules_epoch() const {
    return rules_epoch_.load(std::memory_order_relaxed);
  }

  // The options the session builds its optimizer with; serving snapshots
  // build their own optimizer against the cloned catalog with the same
  // options.
  const rules::OptimizerOptions& optimizer_options() const {
    return optimizer_options_;
  }

  // The generated optimizer (built on first use).
  Result<rules::Optimizer*> optimizer();

  // Session-wide trace sink (e.g. eds_shell --trace-out): when set, every
  // Translate/Rewrite/Query/Run records phase spans into it, and it is
  // propagated into rewrite/exec options that do not carry their own sink.
  // The sink must outlive the session or be reset to null first. Null (the
  // default) keeps the whole pipeline on its untraced fast path.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }
  obs::TraceSink* trace_sink() const { return trace_sink_; }

 private:
  // A stored table resolved for inserts.
  struct InsertTarget {
    std::string name;  // as the caller spelled it
    Table* table;
    const catalog::TableDef* def;
  };

  Status ApplyStatement(const esql::Statement& stmt);

  // Name resolution for InsertRow, INSERT statements and NewObject, cached
  // per spelling: bulk loaders alternate a few names (FILM, APPEARS_IN), so
  // each keeps its own entry. Both caches are dropped whenever
  // catalog().epoch() moves. Tables are never dropped and types never
  // redefined, so an entry stays valid until then.
  Result<const InsertTarget*> ResolveInsertTarget(const std::string& name);
  Result<types::TypeRef> ResolveObjectType(const std::string& name);
  void DropStaleResolutions();

  catalog::Catalog catalog_;
  Database db_;
  rules::OptimizerOptions optimizer_options_;
  std::unique_ptr<rules::Optimizer> optimizer_;
  bool optimizer_dirty_ = true;
  std::atomic<uint64_t> rules_epoch_{0};
  obs::TraceSink* trace_sink_ = nullptr;
  std::vector<InsertTarget> insert_targets_;
  std::vector<std::pair<std::string, types::TypeRef>> object_types_;
  uint64_t resolved_epoch_ = 0;
};

}  // namespace eds::exec

#endif  // EDS_EXEC_SESSION_H_
