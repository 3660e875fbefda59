#include "exec/executor.h"

#include <algorithm>

#include "common/strings.h"
#include "gov/failpoint.h"
#include "lera/lera.h"
#include "obs/trace.h"

namespace eds::exec {

Executor::Executor(const catalog::Catalog* cat, const Database* db,
                   ExecOptions options)
    : catalog_(cat), db_(db), options_(options) {}

EvalContext Executor::MakeExprContext() const {
  EvalContext ctx;
  ctx.db = db_;
  ctx.library = &catalog_->functions();
  return ctx;
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = value::Compare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

void DedupRows(Rows* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  rows->erase(std::unique(rows->begin(), rows->end(),
                          [](const Row& a, const Row& b) {
                            return CompareRows(a, b) == 0;
                          }),
              rows->end());
}

Result<Rows> Executor::Execute(const term::TermRef& plan) {
  FixEnv env;
  const uint64_t copies_before = value::ValueCopyCount();
  Result<vec::Batch> out = Eval(plan, env);
  Result<Rows> rows = out.ok() ? Result<Rows>(out->ToRows())
                               : Result<Rows>(out.status());
  stats_.value_copies += value::ValueCopyCount() - copies_before;
  if (rows.ok()) stats_.rows_output += rows->size();
  return rows;
}

Result<const vec::Batch*> Executor::InputBatch(const term::TermRef& t,
                                               const FixEnv& env,
                                               std::list<vec::Batch>* owned,
                                               size_t* scanned) {
  if (lera::IsRelation(t)) {
    EDS_ASSIGN_OR_RETURN(std::string name, lera::RelationName(t));
    // Fixpoint variables shadow stored relations, exactly as in Eval.
    auto it = env.find(ToUpperAscii(name));
    if (it != env.end()) return it->second;
    if (db_->HasTable(name)) {
      EDS_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(name));
      *(scanned != nullptr ? scanned : &stats_.rows_scanned) += table->size();
      return &table->batch();
    }
  }
  // Views, operator trees and unknown names: Eval reports their errors.
  EDS_ASSIGN_OR_RETURN(vec::Batch batch, Eval(t, env));
  return &owned->emplace_back(std::move(batch));
}

Result<vec::Batch> Executor::Eval(const term::TermRef& t, const FixEnv& env) {
  // Operator entry doubles as the governor chokepoint: every operator in a
  // plan passes through here, including each body re-evaluation inside a
  // fixpoint round, so deadlines and cancellation are noticed even when a
  // single Execute() call runs long. Intermediate output rows are charged
  // against the row ceiling — a blown-up join trips before its parent
  // projection ever sees the rows.
  gov::QueryGuard* guard = options_.guard;
  if (guard != nullptr && guard->Check()) return guard->TripStatus();
  obs::TraceSink* sink = options_.trace_sink;
  Result<vec::Batch> out = vec::Batch{};
  if (sink == nullptr) {
    out = EvalDispatch(t, env);
  } else {
    // Per-operator spans, named by functor (relation scans carry the
    // relation name so view expansions and fixpoint bindings are
    // distinguishable in the timeline).
    std::string name = "exec.";
    if (lera::IsRelation(t)) {
      Result<std::string> rel = lera::RelationName(t);
      name += "RELATION ";
      name += rel.ok() ? *rel : std::string("?");
    } else if (t->is_apply()) {
      name += t->functor();
    } else {
      name += "term";
    }
    obs::Span span(sink, std::move(name), "exec");
    const size_t batches_before = stats_.batches;
    const size_t vec_rows_before = stats_.vec_rows;
    out = EvalDispatch(t, env);
    if (out.ok()) {
      span.Arg("rows", static_cast<int64_t>(out->rows));
      const size_t batch_count = stats_.batches - batches_before;
      if (batch_count > 0) {
        span.Arg("batch_count", static_cast<int64_t>(batch_count));
        span.Arg("rows_per_batch",
                 static_cast<int64_t>((stats_.vec_rows - vec_rows_before) /
                                      batch_count));
      }
    }
  }
  if (out.ok() && guard != nullptr && guard->AddRows(out->rows)) {
    return guard->TripStatus();
  }
  return out;
}

Result<vec::Batch> Executor::EvalDispatch(const term::TermRef& t,
                                          const FixEnv& env) {
  EDS_FAIL_POINT("exec.operator");
  if (lera::IsRelation(t)) {
    EDS_ASSIGN_OR_RETURN(std::string name, lera::RelationName(t));
    std::string key = ToUpperAscii(name);
    // Fixpoint variables shadow stored relations.
    auto it = env.find(key);
    if (it != env.end()) return *it->second;
    if (db_->HasTable(name)) {
      EDS_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(name));
      stats_.rows_scanned += table->size();
      return table->batch();
    }
    if (catalog_->HasView(name)) {
      EDS_ASSIGN_OR_RETURN(const catalog::ViewDef* view,
                           catalog_->FindView(name));
      return Eval(view->definition, env);
    }
    return Status::NotFound("relation '" + name + "' has no storage, view "
                            "definition or fixpoint binding");
  }
  if (!t->is_apply()) {
    return Status::InvalidArgument("not a relational term: " + t->ToString());
  }
  const std::string& f = t->functor();
  if (f == lera::kSearch || f == lera::kFilter || f == lera::kProject ||
      f == lera::kJoin) {
    return EvalSearch(t, env);
  }
  if (f == lera::kUnion || f == lera::kDifference || f == lera::kIntersect ||
      f == lera::kDedup) {
    return EvalSetOp(t, env);
  }
  if (f == lera::kNest) return EvalNest(t, env);
  if (f == lera::kUnnest) return EvalUnnest(t, env);
  if (f == lera::kFix) return EvalFix(t, env);
  return Status::Unsupported("executor does not implement operator " + f);
}

}  // namespace eds::exec
