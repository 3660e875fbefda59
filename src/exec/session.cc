#include "exec/session.h"

#include "exec/typecheck.h"

#include <iostream>

#include "esql/analyzer.h"
#include "esql/parser.h"
#include "esql/translator.h"
#include "common/strings.h"
#include "lera/printer.h"
#include "lera/schema.h"
#include "lint/lint.h"
#include "magic/magic.h"
#include "obs/trace.h"
#include "rules/semantic.h"
#include "verify/verify.h"

namespace eds::exec {

namespace {

// Builds a term from a constant ESQL expression (INSERT values): literals
// and pure function calls like MakeSet('a', 'b'); column references and
// quantifiers are rejected.
Result<term::TermRef> ConstantExprToTerm(const esql::ExprPtr& e) {
  switch (e->kind) {
    case esql::ExprKind::kLiteral:
      return term::Term::Constant(e->literal);
    case esql::ExprKind::kCall: {
      term::TermList args;
      args.reserve(e->args.size());
      for (const esql::ExprPtr& a : e->args) {
        EDS_ASSIGN_OR_RETURN(term::TermRef t, ConstantExprToTerm(a));
        args.push_back(std::move(t));
      }
      return term::Term::Apply(e->name, std::move(args));
    }
    default:
      return Status::InvalidArgument(
          "INSERT values must be constant expressions, got " + e->ToString());
  }
}

}  // namespace

Session::Session() : Session(rules::OptimizerOptions{}) {}

Session::Session(rules::OptimizerOptions optimizer_options)
    : optimizer_options_(optimizer_options) {}

Result<rules::Optimizer*> Session::optimizer() {
  if (optimizer_ == nullptr || optimizer_dirty_) {
    EDS_ASSIGN_OR_RETURN(
        optimizer_, rules::MakeDefaultOptimizer(&catalog_, optimizer_options_));
    optimizer_dirty_ = false;
  }
  return optimizer_.get();
}

Status Session::RebuildOptimizer() {
  optimizer_dirty_ = true;
  ++rules_epoch_;
  return optimizer().status();
}

Status Session::AddConstraint(const std::string& name,
                              const std::string& rule_text) {
  return AddConstraint(name, rule_text, ConstraintOptions{});
}

Status Session::AddConstraint(const std::string& name,
                              const std::string& rule_text,
                              const ConstraintOptions& options) {
  if (options.run_lint || options.run_verify) {
    // The same registry the generated optimizer will run the rules under.
    rewrite::BuiltinRegistry builtins;
    builtins.InstallStandard();
    magic::InstallMagicBuiltins(&builtins);
    rules::InstallSemanticBuiltins(&builtins);
    auto surface = [&](const lint::LintReport& report) {
      for (const lint::Diagnostic& d : report.diagnostics()) {
        if (options.diagnostics != nullptr) {
          options.diagnostics->Add(d);
        } else {
          std::cerr << "constraint '" << name << "': " << d.ToString()
                    << "\n";
        }
      }
    };
    if (options.run_lint) {
      lint::LintOptions lo;
      lo.catalog = &catalog_;
      surface(lint::LintSource(rule_text, builtins, lo));
    }
    if (options.run_verify) {
      verify::VerifyOptions vo = options.verify_options != nullptr
                                     ? *options.verify_options
                                     : verify::VerifyOptions{};
      lint::LintReport vreport =
          verify::VerifyLibrary(rule_text, builtins, vo);
      surface(vreport);
      if (vreport.has_errors()) {
        std::string ids;
        for (const lint::Diagnostic& d : vreport.diagnostics()) {
          if (d.severity != lint::Severity::kError) continue;
          if (!ids.empty()) ids += ", ";
          ids += d.id;
          if (!d.rule.empty()) ids += " (rule '" + d.rule + "')";
        }
        return Status::InvalidArgument("constraint '" + name +
                                       "' rejected: soundness verification "
                                       "failed: " +
                                       ids);
      }
    }
  }
  EDS_RETURN_IF_ERROR(
      catalog_.AddConstraint(catalog::ConstraintDef{name, rule_text}));
  optimizer_dirty_ = true;
  ++rules_epoch_;
  return Status::OK();
}

Status Session::ApplyStatement(const esql::Statement& stmt) {
  switch (stmt.kind) {
    case esql::StatementKind::kCreateType: {
      esql::Analyzer analyzer(&catalog_);
      return analyzer.ApplyCreateType(stmt);
    }
    case esql::StatementKind::kCreateTable: {
      esql::Analyzer analyzer(&catalog_);
      EDS_RETURN_IF_ERROR(analyzer.ApplyCreateTable(stmt));
      return db_.CreateTable(stmt.name, stmt.columns.size());
    }
    case esql::StatementKind::kCreateView: {
      esql::Translator translator(&catalog_);
      EDS_ASSIGN_OR_RETURN(catalog::ViewDef def, translator.BuildView(stmt));
      def.source_text = stmt.source;
      return catalog_.CreateView(std::move(def));
    }
    case esql::StatementKind::kInsert: {
      EDS_ASSIGN_OR_RETURN(Table* table, db_.GetTable(stmt.name));
      EDS_ASSIGN_OR_RETURN(const catalog::TableDef* def,
                           catalog_.FindTable(stmt.name));
      EvalContext ctx;
      ctx.db = &db_;
      ctx.library = &catalog_.functions();
      for (const std::vector<esql::ExprPtr>& row_exprs : stmt.insert_rows) {
        Row row;
        row.reserve(row_exprs.size());
        for (const esql::ExprPtr& e : row_exprs) {
          EDS_ASSIGN_OR_RETURN(term::TermRef t, ConstantExprToTerm(e));
          EDS_ASSIGN_OR_RETURN(value::Value v, EvalExpr(t, &ctx));
          row.push_back(std::move(v));
        }
        // §6.1: inserted data must satisfy the declared types (enumeration
        // domains included).
        EDS_RETURN_IF_ERROR(CheckRowAgainstSchema(
            row, def->columns, &db_.heap(), &catalog_.types()));
        EDS_RETURN_IF_ERROR(table->Insert(std::move(row)));
      }
      return Status::OK();
    }
    case esql::StatementKind::kSelect:
      return Status::OK();  // ExecuteScript skips SELECTs before dispatch
  }
  return Status::Internal("unreachable statement kind");
}

Status Session::Apply(const esql::Statement& stmt) {
  if (stmt.kind == esql::StatementKind::kSelect) {
    return Status::InvalidArgument(
        "Apply: SELECT is a query, not a DDL/INSERT statement");
  }
  return ApplyStatement(stmt);
}

Status Session::ExecuteScript(std::string_view esql) {
  EDS_ASSIGN_OR_RETURN(std::vector<esql::Statement> stmts,
                       esql::ParseScript(esql));
  for (const esql::Statement& stmt : stmts) {
    if (stmt.kind == esql::StatementKind::kSelect) {
      // Ignore SELECT results inside scripts.
      continue;
    }
    EDS_RETURN_IF_ERROR(ApplyStatement(stmt));
  }
  return Status::OK();
}

Result<term::TermRef> Session::Translate(std::string_view esql_select) {
  return TranslateSelect(esql_select, &catalog_, trace_sink_, nullptr);
}

Result<term::TermRef> TranslateSelect(std::string_view esql,
                                      const catalog::Catalog* catalog,
                                      obs::TraceSink* sink,
                                      PhaseTimes* times) {
  uint64_t t0 = obs::NowNs();
  esql::Statement stmt;
  {
    obs::Span span(sink, "phase.parse", "phase");
    EDS_ASSIGN_OR_RETURN(stmt, esql::ParseStatement(esql));
  }
  uint64_t t1 = obs::NowNs();
  if (times != nullptr) times->parse_ns = t1 - t0;
  if (stmt.kind != esql::StatementKind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  obs::Span span(sink, "phase.translate", "phase");
  esql::Translator translator(catalog);
  Result<term::TermRef> plan = translator.TranslateQuery(*stmt.select);
  if (times != nullptr) times->translate_ns = obs::NowNs() - t1;
  return plan;
}

Result<rewrite::RewriteOutcome> Session::Rewrite(
    const term::TermRef& plan, const rewrite::RewriteOptions& options) {
  EDS_ASSIGN_OR_RETURN(rules::Optimizer * opt, optimizer());
  rewrite::RewriteOptions effective = options;
  if (effective.trace_sink == nullptr) effective.trace_sink = trace_sink_;
  obs::Span span(effective.trace_sink, "phase.rewrite", "phase");
  return opt->Rewrite(plan, effective);
}

Result<Rows> Session::Run(const term::TermRef& plan,
                          const ExecOptions& options, ExecStats* stats_out) {
  ExecOptions effective = options;
  if (effective.trace_sink == nullptr) effective.trace_sink = trace_sink_;
  obs::Span span(effective.trace_sink, "phase.execute", "phase");
  Executor executor(&catalog_, &db_, effective);
  Result<Rows> rows = executor.Execute(plan);
  if (stats_out != nullptr) *stats_out = executor.stats();
  return rows;
}

Result<QueryResult> Session::Query(std::string_view esql,
                                   const QueryOptions& options) {
  uint64_t q0 = obs::NowNs();
  obs::Span query_span(trace_sink_, "session.query", "session");
  if (trace_sink_ != nullptr) {
    // A truncated copy of the query text labels the span in the timeline.
    std::string text(esql.substr(0, 120));
    query_span.Arg("esql", text);
  }
  QueryResult result;
  EDS_ASSIGN_OR_RETURN(
      term::TermRef raw,
      TranslateSelect(esql, &catalog_, trace_sink_, &result.phase_times));
  result.raw_plan = raw;
  // One guard spans the whole pipeline when limits are set. Sticky trips
  // give the right cross-phase semantics for free: a deadline blown (or a
  // cancellation observed) during rewrite degrades that phase AND fails
  // execution at its first chokepoint — time is up either way.
  gov::QueryGuard guard;
  const bool governed = options.limits.any();
  if (governed) guard.Arm(options.limits);
  term::TermRef plan = raw;
  if (options.rewrite) {
    rewrite::RewriteOptions rw = options.rewrite_options;
    if (governed && rw.guard == nullptr) rw.guard = &guard;
    uint64_t t0 = obs::NowNs();
    EDS_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome, Rewrite(raw, rw));
    plan = outcome.term;
    result.rewrite_stats = outcome.stats;
    result.phase_times.rewrite_ns = obs::NowNs() - t0;
  }
  FinishOptions finish;
  finish.catalog = &catalog_;
  finish.db = &db_;
  finish.exec_options = options.exec_options;
  if (finish.exec_options.trace_sink == nullptr) {
    finish.exec_options.trace_sink = trace_sink_;
  }
  finish.limits = options.limits;
  finish.guard = governed ? &guard : nullptr;
  finish.max_applications = options.rewrite_options.max_applications;
  finish.start_ns = q0;
  EDS_RETURN_IF_ERROR(FinishQuery(plan, finish, &result));
  return result;
}

Status FinishQuery(const term::TermRef& plan, const FinishOptions& options,
                   QueryResult* result) {
  const rewrite::EngineStats& rw = result->rewrite_stats;
  if (rw.safety_stop) {
    result->warnings.push_back(
        "rewrite stopped early: max_applications (" +
        std::to_string(options.max_applications) +
        ") reached; results are correct but the plan may be "
        "under-optimized");
  }
  if (rw.trip.tripped()) {
    result->rewrite_trip = rw.trip;
    result->warnings.push_back(
        "rewrite degraded by query governor (" + rw.trip.ToString() +
        "); best-so-far plan used, results are correct but the plan may "
        "be under-optimized");
  }
  result->optimized_plan = plan;
  gov::QueryGuard* guard = options.guard;
  // A node-ceiling trip is a rewrite-phase budget: the plan stops improving
  // but the query still runs. Re-arm for the remaining phases without the
  // node ceiling (and with whatever wall-clock budget is left) — a sticky
  // node trip would otherwise fail execution over a resource it does not
  // consume.
  if (guard != nullptr && guard->tripped() &&
      guard->trip().kind == gov::TripKind::kNodeCeiling) {
    gov::GovernorLimits rest = options.limits;
    rest.max_term_nodes = 0;
    if (rest.deadline_ms != 0) {
      uint64_t elapsed_ms = (obs::NowNs() - options.start_ns) / 1'000'000ULL;
      rest.deadline_ms = elapsed_ms < rest.deadline_ms
                             ? rest.deadline_ms - elapsed_ms
                             : 1;  // nearly spent: trip on the first probe
    }
    guard->Arm(rest);
  }
  ExecOptions exec_options = options.exec_options;
  obs::TraceSink* sink = exec_options.trace_sink;
  if (options.infer_schema) {
    uint64_t t0 = obs::NowNs();
    obs::Span span(sink, "phase.schema", "phase");
    EDS_ASSIGN_OR_RETURN(lera::Schema schema,
                         lera::InferSchema(plan, *options.catalog, nullptr,
                                           nullptr, guard));
    for (const types::Field& f : schema) result->columns.push_back(f.name);
    result->phase_times.schema_ns = obs::NowNs() - t0;
  }
  uint64_t t1 = obs::NowNs();
  if (exec_options.guard == nullptr) exec_options.guard = guard;
  {
    obs::Span span(sink, "phase.execute", "phase");
    Executor executor(options.catalog, options.db, exec_options);
    Result<Rows> rows = executor.Execute(plan);
    result->exec_stats = executor.stats();
    if (!rows.ok()) return rows.status();
    result->rows = *std::move(rows);
  }
  uint64_t t2 = obs::NowNs();
  result->phase_times.exec_ns = t2 - t1;
  result->phase_times.total_ns = t2 - options.start_ns;
  return Status::OK();
}

Result<value::Value> Session::NewObject(
    const std::string& type_name,
    std::vector<std::pair<std::string, value::Value>> fields) {
  EDS_ASSIGN_OR_RETURN(types::TypeRef type, catalog_.types().Find(type_name));
  if (!type->is_object()) {
    return Status::TypeError("'" + type_name + "' is not an object type");
  }
  std::vector<std::string> names;
  std::vector<value::Value> values;
  names.reserve(fields.size());
  values.reserve(fields.size());
  for (auto& [name, v] : fields) {
    if (type->FindField(name) == nullptr) {
      return Status::TypeError("object type " + type_name +
                               " has no attribute '" + name + "'");
    }
    names.push_back(name);
    values.push_back(std::move(v));
  }
  return db_.heap().New(type_name, value::Value::NamedTuple(
                                       std::move(names), std::move(values)));
}

Status Session::InsertRow(const std::string& table, Row row) {
  EDS_ASSIGN_OR_RETURN(Table* t, db_.GetTable(table));
  EDS_ASSIGN_OR_RETURN(const catalog::TableDef* def,
                       catalog_.FindTable(table));
  EDS_RETURN_IF_ERROR(CheckRowAgainstSchema(row, def->columns, &db_.heap(),
                                            &catalog_.types()));
  return t->Insert(std::move(row));
}

namespace {

// DDL text for a type's *structure* (not its name): used by DumpSchema,
// which cannot rely on Type::ToString for aliases (a named alias prints as
// its own name).
std::string TypeStructureDdl(const types::TypeRef& t) {
  using types::TypeKind;
  switch (t->kind()) {
    case TypeKind::kEnumeration: {
      std::string out = "ENUMERATION OF (";
      for (size_t i = 0; i < t->enum_values().size(); ++i) {
        if (i > 0) out += ", ";
        out += "'" + t->enum_values()[i] + "'";
      }
      return out + ")";
    }
    case TypeKind::kTuple:
    case TypeKind::kObject: {
      std::string out =
          t->kind() == TypeKind::kObject ? "OBJECT TUPLE (" : "TUPLE (";
      for (size_t i = 0; i < t->fields().size(); ++i) {
        if (i > 0) out += ", ";
        out += t->fields()[i].name + " : " + t->fields()[i].type->ToString();
      }
      return out + ")";
    }
    case TypeKind::kSet:
    case TypeKind::kBag:
    case TypeKind::kList:
    case TypeKind::kArray:
      return std::string(types::TypeKindName(t->kind())) + " OF " +
             (t->element() != nullptr ? t->element()->ToString() : "ANY");
    default:
      return types::TypeKindName(t->kind());
  }
}

}  // namespace

std::string Session::DumpSchema() const {
  std::string out = "-- schema dump (regenerate a session with "
                    "ExecuteScript)\n";
  for (const std::string& name : catalog_.types().UserTypeNames()) {
    auto type = catalog_.types().Find(name);
    if (!type.ok()) continue;
    out += "TYPE " + name + " ";
    if ((*type)->is_object() && (*type)->supertype() != nullptr) {
      out += "SUBTYPE OF " + (*type)->supertype()->name() + " ";
    }
    out += TypeStructureDdl(*type);
    // Attach ADT function signatures whose receiver is this object type.
    if ((*type)->is_object()) {
      for (const auto& [key, sig] : catalog_.function_sigs()) {
        if (!sig.params.empty() && sig.params[0]->is_object() &&
            EqualsIgnoreCase(sig.params[0]->name(), name)) {
          out += "\n  FUNCTION " + sig.name + "(";
          for (size_t i = 0; i < sig.params.size(); ++i) {
            if (i > 0) out += ", ";
            out += "P" + std::to_string(i + 1) + " " +
                   sig.params[i]->ToString();
          }
          out += ")";
        }
      }
    }
    out += ";\n";
  }
  for (const std::string& name : catalog_.RelationNamesInOrder()) {
    if (catalog_.HasTable(name)) {
      auto table = catalog_.FindTable(name);
      if (!table.ok()) continue;
      out += "CREATE TABLE " + name + " (";
      for (size_t i = 0; i < (*table)->columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += (*table)->columns[i].name + " : " +
               (*table)->columns[i].type->ToString();
      }
      out += ");\n";
    } else if (catalog_.HasView(name)) {
      auto view = catalog_.FindView(name);
      if (!view.ok()) continue;
      if (!(*view)->source_text.empty()) {
        out += (*view)->source_text;
        if (out.back() != ';') out += ';';
        out += "\n";
      } else {
        out += "-- view " + name +
               " was created without ESQL source; LERA definition:\n-- " +
               (*view)->definition->ToString() + "\n";
      }
    }
  }
  return out;
}

Result<std::string> Session::Explain(std::string_view esql_select) {
  EDS_ASSIGN_OR_RETURN(term::TermRef raw, Translate(esql_select));
  rewrite::RewriteOptions options;
  options.collect_trace = true;
  EDS_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome,
                       Rewrite(raw, options));
  std::string out = "== raw plan ==\n" + lera::FormatPlan(raw);
  out += "== rewrite trace (" + std::to_string(outcome.trace.size()) +
         " applications, " + std::to_string(outcome.stats.condition_checks) +
         " condition checks) ==\n";
  for (const rewrite::TraceEntry& entry : outcome.trace) {
    out += "  [" + entry.block + "/" + entry.rule + "] " +
           entry.before->ToString() + "\n    --> " +
           entry.after->ToString() + "\n";
  }
  out += "== optimized plan ==\n" + lera::FormatPlan(outcome.term);
  return out;
}

}  // namespace eds::exec

