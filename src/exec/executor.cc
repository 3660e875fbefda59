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
  Result<Rows> out = Eval(plan, env);
  stored_rows_.clear();
  stats_.value_copies += value::ValueCopyCount() - copies_before;
  if (out.ok()) stats_.rows_output += out->size();
  return out;
}

Executor::Borrowed Executor::TryBorrow(const term::TermRef& t,
                                       const FixEnv& env) {
  if (!lera::IsRelation(t)) return {};
  Result<std::string> name = lera::RelationName(t);
  if (!name.ok()) return {};
  // Fixpoint variables shadow stored relations, exactly as in Eval.
  auto it = env.find(ToUpperAscii(*name));
  if (it != env.end()) return {it->second, nullptr};
  if (!db_->HasTable(*name)) return {};
  Result<const Table*> table = db_->GetTable(*name);
  if (!table.ok()) return {};
  stats_.rows_scanned += (*table)->size();
  return {nullptr, &(*table)->batch()};
}

const Rows& Executor::StoredRows(const vec::Batch* batch) {
  auto [it, inserted] = stored_rows_.try_emplace(batch);
  if (inserted) it->second = batch->ToRows();
  return it->second;
}

Result<Rows> Executor::Eval(const term::TermRef& t, const FixEnv& env) {
  // Operator entry doubles as the governor chokepoint: every operator in a
  // plan passes through here, including each body re-evaluation inside a
  // fixpoint round, so deadlines and cancellation are noticed even when a
  // single Execute() call runs long. Intermediate output rows are charged
  // against the row ceiling — a blown-up join trips before its parent
  // projection ever sees the rows.
  gov::QueryGuard* guard = options_.guard;
  if (guard != nullptr && guard->Check()) return guard->TripStatus();
  obs::TraceSink* sink = options_.trace_sink;
  Result<Rows> out = Rows{};
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
      span.Arg("rows", static_cast<int64_t>(out->size()));
      const size_t batch_count = stats_.batches - batches_before;
      if (batch_count > 0) {
        span.Arg("batch_count", static_cast<int64_t>(batch_count));
        span.Arg("rows_per_batch",
                 static_cast<int64_t>((stats_.vec_rows - vec_rows_before) /
                                      batch_count));
      }
    }
  }
  if (out.ok() && guard != nullptr && guard->AddRows(out->size())) {
    return guard->TripStatus();
  }
  return out;
}

Result<Rows> Executor::EvalDispatch(const term::TermRef& t,
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
      return StoredRows(&table->batch());
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
  if (f == lera::kUnion) return EvalUnion(t, env);
  if (f == lera::kDifference || f == lera::kIntersect) {
    return EvalSetOp(t, env);
  }
  if (f == lera::kNest) return EvalNest(t, env);
  if (f == lera::kDedup) {
    EDS_ASSIGN_OR_RETURN(Rows rows, Eval(t->arg(0), env));
    DedupMaybeVec(&rows);
    return rows;
  }
  if (f == lera::kUnnest) return EvalUnnest(t, env);
  if (f == lera::kFix) return EvalFix(t, env);
  return Status::Unsupported("executor does not implement operator " + f);
}

}  // namespace eds::exec
