#include "lera/lera.h"

#include <functional>

namespace eds::lera {

using term::Term;
using term::TermList;
using term::TermRef;

term::TermRef Relation(const std::string& name) {
  return Term::Relation(name);
}

term::TermRef Search(TermList inputs, TermRef qual, TermList projections) {
  return Term::Apply(kSearch, {Term::List(std::move(inputs)), std::move(qual),
                               Term::List(std::move(projections))});
}

term::TermRef UnionN(TermList inputs) {
  return Term::Apply(kUnion, {Term::MakeSet(std::move(inputs))});
}

term::TermRef Difference(TermRef a, TermRef b) {
  return Term::Apply(kDifference, {std::move(a), std::move(b)});
}

term::TermRef Intersect(TermRef a, TermRef b) {
  return Term::Apply(kIntersect, {std::move(a), std::move(b)});
}

term::TermRef Filter(TermRef input, TermRef qual) {
  return Term::Apply(kFilter, {std::move(input), std::move(qual)});
}

term::TermRef Project(TermRef input, TermList projections) {
  return Term::Apply(kProject,
                     {std::move(input), Term::List(std::move(projections))});
}

term::TermRef Join(TermRef a, TermRef b, TermRef qual) {
  return Term::Apply(kJoin, {std::move(a), std::move(b), std::move(qual)});
}

term::TermRef Fix(const std::string& rel_name, TermRef expr) {
  return Term::Apply(kFix, {Relation(rel_name), std::move(expr)});
}

term::TermRef Nest(TermRef input, std::vector<int64_t> nested_columns,
                   const std::string& new_column) {
  TermList cols;
  cols.reserve(nested_columns.size());
  for (int64_t c : nested_columns) cols.push_back(Term::Int(c));
  return Term::Apply(kNest, {std::move(input), Term::List(std::move(cols)),
                             Term::Str(new_column)});
}

term::TermRef Unnest(TermRef input, int64_t column) {
  return Term::Apply(kUnnest, {std::move(input), Term::Int(column)});
}

term::TermRef Dedup(TermRef input) {
  return Term::Apply(kDedup, {std::move(input)});
}

term::TermRef FieldAccess(TermRef e, const std::string& field) {
  return Term::Apply(kField, {std::move(e), Term::Str(field)});
}

term::TermRef ValueOf(TermRef e) {
  return Term::Apply(kValueOf, {std::move(e)});
}

term::TermRef Attr(int64_t input, int64_t column) {
  return Term::Attr(input, column);
}

bool IsRelationalOp(const term::TermRef& t) {
  if (!t->is_apply()) return false;
  const std::string& f = t->functor();
  return f == term::kRelation || f == kSearch || f == kUnion ||
         f == kDifference || f == kIntersect || f == kFilter ||
         f == kProject || f == kJoin || f == kFix || f == kNest ||
         f == kUnnest || f == kDedup;
}

bool IsRelation(const term::TermRef& t) {
  return t->IsApply(term::kRelation, 1) && t->arg(0)->is_constant() &&
         t->arg(0)->constant().kind() == value::ValueKind::kString;
}

Result<std::string> RelationName(const term::TermRef& t) {
  if (!IsRelation(t)) {
    return Status::InvalidArgument("not a RELATION term: " + t->ToString());
  }
  return std::string(t->arg(0)->constant().AsString());
}

bool IsSearch(const term::TermRef& t) { return t->IsApply(kSearch, 3); }

Result<term::TermList> SearchInputs(const term::TermRef& t) {
  if (!IsSearch(t) || !t->arg(0)->IsApply(term::kList)) {
    return Status::InvalidArgument("not a well-formed SEARCH: " +
                                   t->ToString());
  }
  return t->arg(0)->args();
}

Result<term::TermRef> SearchQual(const term::TermRef& t) {
  if (!IsSearch(t)) {
    return Status::InvalidArgument("not a SEARCH: " + t->ToString());
  }
  return t->arg(1);
}

Result<term::TermList> SearchProjections(const term::TermRef& t) {
  if (!IsSearch(t) || !t->arg(2)->IsApply(term::kList)) {
    return Status::InvalidArgument("not a well-formed SEARCH: " +
                                   t->ToString());
  }
  return t->arg(2)->args();
}

bool IsUnion(const term::TermRef& t) {
  return t->IsApply(kUnion, 1) && t->arg(0)->IsApply(term::kSet);
}

Result<term::TermList> UnionInputs(const term::TermRef& t) {
  if (!IsUnion(t)) {
    return Status::InvalidArgument("not a well-formed UNION: " +
                                   t->ToString());
  }
  return t->arg(0)->args();
}

bool IsFix(const term::TermRef& t) {
  return t->IsApply(kFix, 2) && IsRelation(t->arg(0));
}

Result<std::string> FixRelationName(const term::TermRef& t) {
  if (!IsFix(t)) {
    return Status::InvalidArgument("not a FIX: " + t->ToString());
  }
  return RelationName(t->arg(0));
}

Result<term::TermRef> FixBody(const term::TermRef& t) {
  if (!IsFix(t)) {
    return Status::InvalidArgument("not a FIX: " + t->ToString());
  }
  return t->arg(1);
}

bool IsAttr(const term::TermRef& t) {
  return t->IsApply(term::kAttr, 2) && t->arg(0)->is_constant() &&
         t->arg(1)->is_constant() &&
         t->arg(0)->constant().kind() == value::ValueKind::kInt &&
         t->arg(1)->constant().kind() == value::ValueKind::kInt;
}

Result<AttrRef> GetAttr(const term::TermRef& t) {
  if (!IsAttr(t)) {
    return Status::InvalidArgument("not an ATTR reference: " + t->ToString());
  }
  return AttrRef{t->arg(0)->constant().AsInt(), t->arg(1)->constant().AsInt()};
}

namespace {

Status ValidateRec(const term::TermRef& t, bool relational_position) {
  if (t->is_variable() || t->is_collection_variable()) {
    // Patterns are validated by the rule compiler, not here; a query tree
    // must be ground.
    return Status::InvalidArgument("variable '" + t->var_name() +
                                   "' in a query tree");
  }
  if (t->is_constant()) {
    if (relational_position) {
      return Status::InvalidArgument("constant in relational position: " +
                                     t->ToString());
    }
    return Status::OK();
  }
  const std::string& f = t->functor();
  if (f == term::kRelation) {
    if (!IsRelation(t)) {
      return Status::InvalidArgument("malformed RELATION: " + t->ToString());
    }
    return Status::OK();
  }
  if (f == kSearch) {
    if (t->arity() != 3 || !t->arg(0)->IsApply(term::kList) ||
        !t->arg(2)->IsApply(term::kList)) {
      return Status::InvalidArgument("malformed SEARCH: " + t->ToString());
    }
    if (t->arg(0)->arity() == 0) {
      return Status::InvalidArgument("SEARCH with no inputs");
    }
    for (const auto& in : t->arg(0)->args()) {
      EDS_RETURN_IF_ERROR(ValidateRec(in, /*relational_position=*/true));
    }
    EDS_RETURN_IF_ERROR(ValidateRec(t->arg(1), false));
    for (const auto& p : t->arg(2)->args()) {
      EDS_RETURN_IF_ERROR(ValidateRec(p, false));
    }
    if (t->arg(2)->arity() == 0) {
      return Status::InvalidArgument("SEARCH with empty projection list");
    }
    return Status::OK();
  }
  if (f == kUnion) {
    if (t->arity() != 1 || !t->arg(0)->IsApply(term::kSet) ||
        t->arg(0)->arity() == 0) {
      return Status::InvalidArgument("malformed UNION: " + t->ToString());
    }
    for (const auto& in : t->arg(0)->args()) {
      EDS_RETURN_IF_ERROR(ValidateRec(in, true));
    }
    return Status::OK();
  }
  if (f == kDifference || f == kIntersect) {
    if (t->arity() != 2) {
      return Status::InvalidArgument("malformed " + f + ": " + t->ToString());
    }
    EDS_RETURN_IF_ERROR(ValidateRec(t->arg(0), true));
    EDS_RETURN_IF_ERROR(ValidateRec(t->arg(1), true));
    return Status::OK();
  }
  if (f == kFilter) {
    if (t->arity() != 2) {
      return Status::InvalidArgument("malformed FILTER: " + t->ToString());
    }
    EDS_RETURN_IF_ERROR(ValidateRec(t->arg(0), true));
    return ValidateRec(t->arg(1), false);
  }
  if (f == kProject) {
    if (t->arity() != 2 || !t->arg(1)->IsApply(term::kList) ||
        t->arg(1)->arity() == 0) {
      return Status::InvalidArgument("malformed PROJECT: " + t->ToString());
    }
    EDS_RETURN_IF_ERROR(ValidateRec(t->arg(0), true));
    for (const auto& p : t->arg(1)->args()) {
      EDS_RETURN_IF_ERROR(ValidateRec(p, false));
    }
    return Status::OK();
  }
  if (f == kJoin) {
    if (t->arity() != 3) {
      return Status::InvalidArgument("malformed JOIN: " + t->ToString());
    }
    EDS_RETURN_IF_ERROR(ValidateRec(t->arg(0), true));
    EDS_RETURN_IF_ERROR(ValidateRec(t->arg(1), true));
    return ValidateRec(t->arg(2), false);
  }
  if (f == kFix) {
    if (!IsFix(t)) {
      return Status::InvalidArgument("malformed FIX: " + t->ToString());
    }
    return ValidateRec(t->arg(1), true);
  }
  if (f == kNest) {
    if (t->arity() != 3 || !t->arg(1)->IsApply(term::kList) ||
        !t->arg(2)->is_constant()) {
      return Status::InvalidArgument("malformed NEST: " + t->ToString());
    }
    return ValidateRec(t->arg(0), true);
  }
  if (f == kUnnest) {
    if (t->arity() != 2 || !t->arg(1)->is_constant()) {
      return Status::InvalidArgument("malformed UNNEST: " + t->ToString());
    }
    return ValidateRec(t->arg(0), true);
  }
  if (f == kDedup) {
    if (t->arity() != 1) {
      return Status::InvalidArgument("malformed DEDUP: " + t->ToString());
    }
    return ValidateRec(t->arg(0), true);
  }
  // Anything else is a scalar expression functor.
  if (relational_position) {
    return Status::InvalidArgument("expected a relational operator, got " +
                                   t->ToString());
  }
  if (f == term::kAttr && !IsAttr(t)) {
    return Status::InvalidArgument("malformed ATTR: " + t->ToString());
  }
  if (IsAttr(t)) {
    EDS_ASSIGN_OR_RETURN(AttrRef a, GetAttr(t));
    if (a.input < 1 || a.column < 1) {
      return Status::InvalidArgument("non-positive ATTR index: " +
                                     t->ToString());
    }
    return Status::OK();
  }
  for (const auto& a : t->args()) {
    EDS_RETURN_IF_ERROR(ValidateRec(a, false));
  }
  return Status::OK();
}

}  // namespace

Status Validate(const term::TermRef& t) {
  return ValidateRec(t, /*relational_position=*/true);
}

void CollectAttrs(const term::TermRef& expr, std::vector<AttrRef>* out) {
  if (IsAttr(expr)) {
    auto a = GetAttr(expr);
    if (a.ok()) out->push_back(*a);
    return;
  }
  if (expr->is_apply()) {
    for (const auto& a : expr->args()) CollectAttrs(a, out);
  }
}

term::TermRef MapAttrs(
    const term::TermRef& expr,
    const std::function<term::TermRef(int64_t, int64_t)>& map) {
  if (IsAttr(expr)) {
    auto a = GetAttr(expr);
    if (!a.ok()) return expr;
    return map(a->input, a->column);
  }
  if (!expr->is_apply()) return expr;
  term::TermList args;
  args.reserve(expr->arity());
  bool changed = false;
  for (const auto& arg : expr->args()) {
    term::TermRef m = MapAttrs(arg, map);
    if (m.get() != arg.get()) changed = true;
    args.push_back(std::move(m));
  }
  if (!changed) return expr;
  return term::Term::Apply(expr->functor(), std::move(args));
}

}  // namespace eds::lera
