#include <algorithm>
#include <functional>
#include <map>

#include "exec/executor.h"
#include "lera/lera.h"

namespace eds::exec {

using term::TermList;
using term::TermRef;
using value::Value;

namespace {

// Largest input index referenced by an expression (0 if none).
int64_t MaxInputIndex(const TermRef& expr) {
  std::vector<lera::AttrRef> attrs;
  lera::CollectAttrs(expr, &attrs);
  int64_t max = 0;
  for (const lera::AttrRef& a : attrs) max = std::max(max, a.input);
  return max;
}

}  // namespace

Result<Rows> Executor::EvalSearch(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(TermList input_terms, lera::SearchInputs(t));
  // Constant-FALSE qualifications short-circuit before any input is
  // materialized: this is how statically-detected inconsistencies pay off.
  EDS_ASSIGN_OR_RETURN(TermRef qual, lera::SearchQual(t));
  if (qual->is_constant() &&
      qual->constant().kind() == value::ValueKind::kBool &&
      !qual->constant().AsBool()) {
    return Rows{};
  }
  // Stored inputs are borrowed straight from the table's batch (or the
  // fixpoint binding's rows); only derived inputs are materialized into
  // `owned`, whose reserve keeps the borrowed pointers stable.
  std::vector<Rows> owned;
  owned.reserve(input_terms.size());
  std::vector<const Rows*> inputs;
  inputs.reserve(input_terms.size());
  std::vector<const vec::Batch*> batches;
  batches.reserve(input_terms.size());
  for (const TermRef& in : input_terms) {
    if (Borrowed b = TryBorrow(in, env)) {
      inputs.push_back(b.rows);
      batches.push_back(b.batch);
      continue;
    }
    EDS_ASSIGN_OR_RETURN(Rows rows, Eval(in, env));
    owned.push_back(std::move(rows));
    inputs.push_back(&owned.back());
    batches.push_back(nullptr);
  }
  return SearchWithInputsMaybeVec(t, inputs, batches);
}

Result<Rows> Executor::EvalSearchWithInputs(
    const term::TermRef& search, const std::vector<const Rows*>& inputs) {
  EDS_ASSIGN_OR_RETURN(TermRef qual, lera::SearchQual(search));
  EDS_ASSIGN_OR_RETURN(TermList projections,
                       lera::SearchProjections(search));

  // Tuple-substitution nested loops with eager conjunct evaluation: each
  // conjunct runs as soon as every input it references is bound, pruning
  // partial combinations early.
  const size_t n = inputs.size();
  std::vector<TermList> conjuncts_at(n + 1);
  for (const TermRef& c : term::Conjuncts(qual)) {
    int64_t level = MaxInputIndex(c);
    if (level < 0 || static_cast<size_t>(level) > n) {
      return Status::RuntimeError("qualification references input beyond " +
                                  std::to_string(n));
    }
    conjuncts_at[static_cast<size_t>(level)].push_back(c);
  }

  EvalContext ctx = MakeExprContext();
  ctx.current.assign(n, nullptr);
  Rows out;

  // Level-0 conjuncts are input-independent; evaluate once.
  for (const TermRef& c : conjuncts_at[0]) {
    ++stats_.qual_evaluations;
    EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(c, &ctx));
    if (!ok) return out;
  }

  // Recursive nested loop; input counts are small, rows are not.
  std::function<Status(size_t)> recurse = [&](size_t depth) -> Status {
    if (depth == n) {
      Row row;
      row.reserve(projections.size());
      for (const TermRef& p : projections) {
        Result<Value> v = EvalExpr(p, &ctx);
        EDS_RETURN_IF_ERROR(v.status());
        row.push_back(std::move(*v));
      }
      out.push_back(std::move(row));
      return Status::OK();
    }
    for (const Row& candidate : *inputs[depth]) {
      ctx.current[depth] = &candidate;
      bool pruned = false;
      for (const TermRef& c : conjuncts_at[depth + 1]) {
        ++stats_.qual_evaluations;
        EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(c, &ctx));
        if (!ok) {
          pruned = true;
          break;
        }
      }
      if (pruned) continue;
      EDS_RETURN_IF_ERROR(recurse(depth + 1));
    }
    ctx.current[depth] = nullptr;
    return Status::OK();
  };
  EDS_RETURN_IF_ERROR(recurse(0));
  return out;
}

Result<Rows> Executor::EvalUnion(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(TermList inputs, lera::UnionInputs(t));
  Rows out;
  for (const TermRef& in : inputs) {
    EDS_ASSIGN_OR_RETURN(Rows rows, Eval(in, env));
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  DedupMaybeVec(&out);
  return out;
}

Result<Rows> Executor::EvalSetOp(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(Rows a, Eval(t->arg(0), env));
  EDS_ASSIGN_OR_RETURN(Rows b, Eval(t->arg(1), env));
  DedupMaybeVec(&a);
  DedupMaybeVec(&b);
  Rows out;
  const bool difference = t->functor() == lera::kDifference;
  for (Row& row : a) {
    bool in_b = std::binary_search(
        b.begin(), b.end(), row, [](const Row& x, const Row& y) {
          return CompareRows(x, y) < 0;
        });
    if (in_b != difference) out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> Executor::EvalFilter(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(Rows input, Eval(t->arg(0), env));
  EvalContext ctx = MakeExprContext();
  ctx.current.assign(1, nullptr);
  Rows out;
  for (Row& row : input) {
    ctx.current[0] = &row;
    ++stats_.qual_evaluations;
    EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(t->arg(1), &ctx));
    if (ok) out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> Executor::EvalProject(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(Rows input, Eval(t->arg(0), env));
  if (!t->arg(1)->IsApply(term::kList)) {
    return Status::InvalidArgument("malformed PROJECT");
  }
  const TermList& projections = t->arg(1)->args();
  EvalContext ctx = MakeExprContext();
  ctx.current.assign(1, nullptr);
  Rows out;
  out.reserve(input.size());
  for (const Row& row : input) {
    ctx.current[0] = &row;
    Row projected;
    projected.reserve(projections.size());
    for (const TermRef& p : projections) {
      EDS_ASSIGN_OR_RETURN(Value v, EvalExpr(p, &ctx));
      projected.push_back(std::move(v));
    }
    out.push_back(std::move(projected));
  }
  return out;
}

Result<Rows> Executor::EvalJoin(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(Rows a, Eval(t->arg(0), env));
  EDS_ASSIGN_OR_RETURN(Rows b, Eval(t->arg(1), env));
  EvalContext ctx = MakeExprContext();
  ctx.current.assign(2, nullptr);
  Rows out;
  for (const Row& ra : a) {
    ctx.current[0] = &ra;
    for (const Row& rb : b) {
      ctx.current[1] = &rb;
      ++stats_.qual_evaluations;
      EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(t->arg(2), &ctx));
      if (!ok) continue;
      Row row;
      row.reserve(ra.size() + rb.size());
      row.insert(row.end(), ra.begin(), ra.end());
      row.insert(row.end(), rb.begin(), rb.end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

Result<Rows> Executor::EvalNest(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(Rows input, Eval(t->arg(0), env));
  if (!t->arg(1)->IsApply(term::kList)) {
    return Status::InvalidArgument("malformed NEST");
  }
  std::vector<size_t> nested;
  for (const TermRef& c : t->arg(1)->args()) {
    if (!c->is_constant() ||
        c->constant().kind() != value::ValueKind::kInt) {
      return Status::InvalidArgument("NEST column must be an integer");
    }
    nested.push_back(static_cast<size_t>(c->constant().AsInt()));
  }
  // Group by the non-nested columns, preserving first-seen group order.
  // Keys live once, in the map; the order index borrows map iterators
  // instead of copying each key two more times.
  using GroupMap =
      std::map<Row, std::vector<Value>, bool (*)(const Row&, const Row&)>;
  GroupMap groups(+[](const Row& a, const Row& b) {
    return CompareRows(a, b) < 0;
  });
  std::vector<GroupMap::iterator> order;
  for (Row& row : input) {
    Row key;
    std::vector<Value> collected;
    for (size_t i = 0; i < row.size(); ++i) {
      if (std::find(nested.begin(), nested.end(), i + 1) != nested.end()) {
        collected.push_back(std::move(row[i]));
      } else {
        key.push_back(std::move(row[i]));
      }
    }
    Value elem = collected.size() == 1 ? std::move(collected[0])
                                       : Value::Tuple(std::move(collected));
    auto [it, inserted] = groups.emplace(std::move(key), std::vector<Value>{});
    if (inserted) order.push_back(it);
    it->second.push_back(std::move(elem));
  }
  Rows out;
  out.reserve(order.size());
  for (GroupMap::iterator it : order) {
    Row row = it->first;
    row.push_back(Value::Set(std::move(it->second)));
    out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> Executor::EvalUnnest(const term::TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(Rows input, Eval(t->arg(0), env));
  if (!t->arg(1)->is_constant() ||
      t->arg(1)->constant().kind() != value::ValueKind::kInt) {
    return Status::InvalidArgument("malformed UNNEST");
  }
  size_t col = static_cast<size_t>(t->arg(1)->constant().AsInt());
  Rows out;
  for (const Row& row : input) {
    if (col < 1 || col > row.size()) {
      return Status::RuntimeError("UNNEST column out of range");
    }
    const Value& coll = row[col - 1];
    if (!coll.is_collection()) {
      return Status::TypeError("UNNEST over non-collection value " +
                               coll.ToString());
    }
    for (const Value& elem : coll.elements()) {
      Row expanded;
      expanded.reserve(row.size() +
                       (elem.kind() == value::ValueKind::kTuple
                            ? elem.tuple().values.size()
                            : 1) -
                       1);
      for (size_t i = 0; i < row.size(); ++i) {
        if (i + 1 == col) {
          if (elem.kind() == value::ValueKind::kTuple) {
            for (const Value& v : elem.tuple().values) {
              expanded.push_back(v);
            }
          } else {
            expanded.push_back(elem);
          }
        } else {
          expanded.push_back(row[i]);
        }
      }
      out.push_back(std::move(expanded));
    }
  }
  return out;
}

}  // namespace eds::exec
