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

// The conjuncts of `qual` bucketed by the highest of the `n` inputs each
// references: level k runs once inputs 1..k are bound, level 0 once.
Result<std::vector<TermList>> ConjunctsByLevel(const TermRef& qual,
                                               size_t n) {
  std::vector<TermList> conjuncts_at(n + 1);
  for (const TermRef& c : term::Conjuncts(qual)) {
    const int64_t level = MaxInputIndex(c);
    if (level < 0 || static_cast<size_t>(level) > n) {
      return Status::RuntimeError("qualification references input beyond " +
                                  std::to_string(n));
    }
    conjuncts_at[static_cast<size_t>(level)].push_back(c);
  }
  return conjuncts_at;
}

}  // namespace

Result<Rows> Executor::EvalSearch(const term::TermRef& t, const FixEnv& env) {
  TermList input_terms;
  TermRef qual;
  TermList projections;
  const std::string& f = t->functor();
  if (f == lera::kSearch) {
    EDS_ASSIGN_OR_RETURN(input_terms, lera::SearchInputs(t));
    EDS_ASSIGN_OR_RETURN(qual, lera::SearchQual(t));
    EDS_ASSIGN_OR_RETURN(projections, lera::SearchProjections(t));
  } else if (f == lera::kProject) {
    if (t->args().size() != 2 || !t->arg(1)->IsApply(term::kList)) {
      return Status::InvalidArgument("malformed PROJECT");
    }
    input_terms = {t->arg(0)};
    qual = term::Term::True();
    projections = t->arg(1)->args();
  } else {
    // FILTER(z, f) or JOIN(a, b, f); the identity projection follows the
    // inputs.
    if (t->args().size() != (f == lera::kFilter ? 2u : 3u)) {
      return Status::InvalidArgument("malformed " + f);
    }
    input_terms.assign(t->args().begin(), t->args().end() - 1);
    qual = t->args().back();
  }
  // Constant-FALSE qualifications short-circuit before any input is
  // materialized: this is how statically-detected inconsistencies pay off.
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
  if (f == lera::kFilter || f == lera::kJoin) {
    // An empty input's width is unknown, but then no row is projected.
    for (size_t i = 0; i < inputs.size(); ++i) {
      const size_t width = batches[i] != nullptr ? batches[i]->cols.size()
                           : inputs[i]->empty()  ? 0
                                                 : inputs[i]->front().size();
      for (size_t c = 1; c <= width; ++c) {
        projections.push_back(lera::Attr(static_cast<int64_t>(i + 1),
                                         static_cast<int64_t>(c)));
      }
    }
  }
  return SearchWithInputsMaybeVec(qual, projections, inputs, batches);
}

Result<Rows> Executor::SearchWithInputsMaybeVec(
    const term::TermRef& qual, const term::TermList& projections,
    std::vector<const Rows*> inputs,
    const std::vector<const vec::Batch*>& batches) {
  const size_t n = inputs.size();
  EDS_ASSIGN_OR_RETURN(std::vector<TermList> conjuncts_at,
                       ConjunctsByLevel(qual, n));
  // Level-0 conjuncts are input-independent; evaluate once.
  EvalContext ctx = MakeExprContext();
  ctx.current.assign(n, nullptr);
  for (const TermRef& c : conjuncts_at[0]) {
    ++stats_.qual_evaluations;
    EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(c, &ctx));
    if (!ok) return Rows{};
  }
  if (options_.vectorized) {
    ExecStats saved = stats_;
    Result<Rows> out =
        EvalSearchWithInputsVec(conjuncts_at, projections, inputs, batches);
    if (out.ok() || out.status().code() == StatusCode::kResourceExhausted) {
      return out;
    }
    stats_ = saved;
    ++stats_.vec_fallbacks;
  }
  for (size_t i = 0; i < n; ++i) {
    if (inputs[i] == nullptr) inputs[i] = &StoredRows(batches[i]);
  }
  return EvalSearchWithInputs(conjuncts_at, projections, inputs);
}

Result<Rows> Executor::EvalSearchWithInputs(
    const std::vector<TermList>& conjuncts_at, const TermList& projections,
    const std::vector<const Rows*>& inputs) {
  // Tuple-substitution nested loops with eager conjunct evaluation: each
  // conjunct runs as soon as every input it references is bound, pruning
  // partial combinations early.
  const size_t n = inputs.size();
  EvalContext ctx = MakeExprContext();
  ctx.current.assign(n, nullptr);
  Rows out;

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
