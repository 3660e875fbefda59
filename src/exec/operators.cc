#include <algorithm>
#include <list>
#include <string>

#include "exec/executor.h"
#include "exec/vec/kernels.h"
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

Result<vec::Batch> Executor::EvalSearch(const term::TermRef& t,
                                        const FixEnv& env) {
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
    return vec::Batch{};
  }
  // Stored tables and fixpoint bindings are borrowed as they are; only
  // derived inputs are evaluated, into `owned`.
  std::list<vec::Batch> owned;
  std::vector<const vec::Batch*> inputs;
  inputs.reserve(input_terms.size());
  size_t scanned = 0;
  for (const TermRef& in : input_terms) {
    EDS_ASSIGN_OR_RETURN(const vec::Batch* batch,
                         InputBatch(in, env, &owned, &scanned));
    inputs.push_back(batch);
  }
  if (f == lera::kFilter || f == lera::kJoin) {
    // An empty input's width may be unknown, but then no row is projected.
    for (size_t i = 0; i < inputs.size(); ++i) {
      for (size_t c = 1; c <= inputs[i]->cols.size(); ++c) {
        projections.push_back(lera::Attr(static_cast<int64_t>(i + 1),
                                         static_cast<int64_t>(c)));
      }
    }
  }
  return SearchWithInputs(qual, projections, inputs, scanned);
}

Result<vec::Batch> Executor::SearchWithInputs(
    const term::TermRef& qual, const term::TermList& projections,
    const std::vector<const vec::Batch*>& inputs, size_t scanned) {
  const size_t n = inputs.size();
  EDS_ASSIGN_OR_RETURN(std::vector<TermList> conjuncts_at,
                       ConjunctsByLevel(qual, n));
  // Level-0 conjuncts are input-independent; evaluate once.
  EvalContext ctx = MakeExprContext();
  ctx.current.assign(n, nullptr);
  for (const TermRef& c : conjuncts_at[0]) {
    ++stats_.qual_evaluations;
    EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(c, &ctx));
    if (!ok) return vec::Batch{};
  }
  for (const vec::Batch* in : inputs) {
    if (in->rows == 0) return vec::Batch{};
  }
  // The stored inputs are read from here on.
  stats_.rows_scanned += scanned;
  return EvalSearchWithInputsVec(conjuncts_at, projections, inputs);
}

Result<vec::Batch> Executor::EvalSetOp(const term::TermRef& t,
                                       const FixEnv& env) {
  const std::string& f = t->functor();
  const bool binary = f == lera::kDifference || f == lera::kIntersect;
  TermList input_terms;
  if (f == lera::kUnion) {
    EDS_ASSIGN_OR_RETURN(input_terms, lera::UnionInputs(t));
  } else if (t->args().size() == (binary ? 2u : 1u)) {
    input_terms = t->args();
  } else {
    return Status::InvalidArgument("malformed " + f);
  }
  std::list<vec::Batch> owned;
  std::vector<const vec::Batch*> inputs;
  for (const TermRef& in : input_terms) {
    EDS_ASSIGN_OR_RETURN(const vec::Batch* batch, InputBatch(in, env, &owned));
    // A relation has one width; an empty input may not know its own.
    for (const vec::Batch* other : inputs) {
      if (batch->rows != 0 && other->rows != 0 &&
          batch->cols.size() != other->cols.size()) {
        return Status::InvalidArgument(
            f + " over inputs of widths " +
            std::to_string(other->cols.size()) + " and " +
            std::to_string(batch->cols.size()));
      }
    }
    inputs.push_back(batch);
  }
  // The distinct rows of every input, or of the first of a binary operator.
  vec::RowSet distinct;
  for (size_t i = 0; i < (binary ? 1 : inputs.size()); ++i) {
    EDS_RETURN_IF_ERROR(distinct.Insert(*inputs[i]));
    ++stats_.batches;
    stats_.vec_rows += inputs[i]->rows;
  }
  if (!binary) return vec::Sorted(distinct.batch());
  vec::RowSet other;
  EDS_RETURN_IF_ERROR(other.Insert(*inputs[1]));
  const vec::Batch& held = distinct.batch();
  const std::vector<vec::ColumnView> held_rows(held.cols.begin(),
                                               held.cols.end());
  vec::SelectionVector keep;
  for (uint32_t r = 0; r < held.rows; ++r) {
    if (other.Contains(held_rows, r) != (f == lera::kDifference)) {
      keep.push_back(r);
    }
  }
  return vec::Sorted(held.Gather(keep));
}

Result<vec::Batch> Executor::EvalNest(const term::TermRef& t,
                                      const FixEnv& env) {
  std::list<vec::Batch> owned;
  EDS_ASSIGN_OR_RETURN(const vec::Batch* input,
                       InputBatch(t->arg(0), env, &owned));
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
  // Groups by the non-nested columns: group g is row g of `groups`, which
  // keeps them in first-seen order.
  std::vector<vec::ColumnView> key, collected;
  for (size_t i = 0; i < input->cols.size(); ++i) {
    const bool is_nested =
        std::find(nested.begin(), nested.end(), i + 1) != nested.end();
    (is_nested ? collected : key).push_back(input->cols[i]);
  }
  vec::RowSet groups;
  std::vector<std::vector<Value>> members;
  for (size_t r = 0; r < input->rows; ++r) {
    const size_t g = groups.Add(key, r);
    if (g == members.size()) members.emplace_back();
    std::vector<Value> fields;
    for (const auto& c : collected) fields.push_back(c.col->ValueAt(r));
    members[g].push_back(fields.size() == 1 ? std::move(fields[0])
                                            : Value::Tuple(std::move(fields)));
  }
  vec::Batch out = groups.batch();
  vec::ColumnVector& sets = out.cols.emplace_back();
  for (auto& m : members) sets.AppendValue(Value::Set(std::move(m)));
  return out;
}

Result<vec::Batch> Executor::EvalUnnest(const term::TermRef& t,
                                        const FixEnv& env) {
  std::list<vec::Batch> owned;
  EDS_ASSIGN_OR_RETURN(const vec::Batch* input,
                       InputBatch(t->arg(0), env, &owned));
  if (!t->arg(1)->is_constant() ||
      t->arg(1)->constant().kind() != value::ValueKind::kInt) {
    return Status::InvalidArgument("malformed UNNEST");
  }
  const size_t col = static_cast<size_t>(t->arg(1)->constant().AsInt());
  vec::Batch out;
  for (size_t r = 0; r < input->rows; ++r) {
    if (col < 1 || col > input->cols.size()) {
      return Status::RuntimeError("UNNEST column out of range");
    }
    const Value coll = input->cols[col - 1].ValueAt(r);
    if (!coll.is_collection()) {
      return Status::TypeError("UNNEST over non-collection value " +
                               coll.ToString());
    }
    for (const Value& elem : coll.elements()) {
      Row expanded;
      for (size_t i = 0; i < input->cols.size(); ++i) {
        if (i + 1 != col) {
          expanded.push_back(input->cols[i].ValueAt(r));
        } else if (elem.kind() == value::ValueKind::kTuple) {
          for (const Value& v : elem.tuple().values) expanded.push_back(v);
        } else {
          expanded.push_back(elem);
        }
      }
      EDS_RETURN_IF_ERROR(out.Append(expanded));
    }
  }
  return out;
}

}  // namespace eds::exec
