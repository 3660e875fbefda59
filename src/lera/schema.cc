#include "lera/schema.h"

#include "common/strings.h"

namespace eds::lera {

using term::TermRef;
using types::Field;
using types::Type;
using types::TypeKind;
using types::TypeRef;

namespace {

Result<std::vector<Schema>> InputSchemas(const term::TermList& inputs,
                                         const catalog::Catalog& cat,
                                         const SchemaEnv* env,
                                         SchemaMemo* memo,
                                         gov::QueryGuard* guard) {
  std::vector<Schema> out;
  out.reserve(inputs.size());
  for (const TermRef& in : inputs) {
    EDS_ASSIGN_OR_RETURN(Schema s, InferSchema(in, cat, env, memo, guard));
    out.push_back(std::move(s));
  }
  return out;
}

Result<Schema> ProjectionSchema(const term::TermList& projs,
                                const std::vector<Schema>& input_schemas,
                                const catalog::Catalog& cat,
                                const SchemaEnv* env) {
  Schema out;
  out.reserve(projs.size());
  for (const TermRef& p : projs) {
    EDS_ASSIGN_OR_RETURN(TypeRef t,
                         InferExprType(p, input_schemas, cat, nullptr, env));
    out.push_back(Field{ProjectionName(p, input_schemas), std::move(t)});
  }
  return out;
}

// Returns the element type of a collection, or TypeError.
Result<TypeRef> ElementType(const TypeRef& coll, const std::string& what) {
  if (coll == nullptr || !coll->is_collection()) {
    return Status::TypeError(what + ": expected a collection type, got " +
                             (coll == nullptr ? "?" : coll->ToString()));
  }
  if (coll->element() == nullptr) {
    return Status::TypeError(what + ": collection element type unknown");
  }
  return coll->element();
}

}  // namespace

namespace {

Result<Schema> InferSchemaImpl(const term::TermRef& t,
                               const catalog::Catalog& cat,
                               const SchemaEnv* env, SchemaMemo* memo,
                               gov::QueryGuard* guard) {
  if (IsRelation(t)) {
    EDS_ASSIGN_OR_RETURN(std::string name, RelationName(t));
    if (env != nullptr) {
      auto it = env->find(ToUpperAscii(name));
      if (it != env->end()) return it->second;
    }
    return cat.RelationSchema(name);
  }
  if (!t->is_apply()) {
    return Status::InvalidArgument("not a relational term: " + t->ToString());
  }
  const std::string& f = t->functor();
  if (f == kSearch) {
    EDS_ASSIGN_OR_RETURN(term::TermList inputs, SearchInputs(t));
    EDS_ASSIGN_OR_RETURN(auto schemas, InputSchemas(inputs, cat, env, memo, guard));
    EDS_ASSIGN_OR_RETURN(term::TermList projs, SearchProjections(t));
    return ProjectionSchema(projs, schemas, cat, env);
  }
  if (f == kUnion) {
    EDS_ASSIGN_OR_RETURN(term::TermList inputs, UnionInputs(t));
    if (inputs.empty()) return Status::InvalidArgument("empty UNION");
    return InferSchema(inputs[0], cat, env, memo, guard);
  }
  if (f == kDifference || f == kIntersect) {
    return InferSchema(t->arg(0), cat, env, memo, guard);
  }
  if (f == kFilter || f == kDedup) {
    return InferSchema(t->arg(0), cat, env, memo, guard);
  }
  if (f == kProject) {
    EDS_ASSIGN_OR_RETURN(Schema in, InferSchema(t->arg(0), cat, env, memo, guard));
    std::vector<Schema> schemas = {std::move(in)};
    if (!t->arg(1)->IsApply(term::kList)) {
      return Status::InvalidArgument("malformed PROJECT: " + t->ToString());
    }
    return ProjectionSchema(t->arg(1)->args(), schemas, cat, env);
  }
  if (f == kJoin) {
    EDS_ASSIGN_OR_RETURN(Schema a, InferSchema(t->arg(0), cat, env, memo, guard));
    EDS_ASSIGN_OR_RETURN(Schema b, InferSchema(t->arg(1), cat, env, memo, guard));
    a.insert(a.end(), b.begin(), b.end());
    return a;
  }
  if (f == kFix) {
    EDS_ASSIGN_OR_RETURN(std::string name, FixRelationName(t));
    // Prefer the declared schema (catalog or env); otherwise the body's.
    if (env != nullptr) {
      auto it = env->find(ToUpperAscii(name));
      if (it != env->end()) return it->second;
    }
    if (cat.HasView(name) || cat.HasTable(name)) {
      return cat.RelationSchema(name);
    }
    // Infer from the body, registering the recursive name lazily: take the
    // first UNION branch that does not reference `name`.
    EDS_ASSIGN_OR_RETURN(TermRef body, FixBody(t));
    if (IsUnion(body)) {
      EDS_ASSIGN_OR_RETURN(term::TermList branches, UnionInputs(body));
      for (const TermRef& b : branches) {
        Result<Schema> s = InferSchema(b, cat, env, memo, guard);
        if (s.ok()) return s;
      }
    }
    return Status::TypeError("cannot infer schema of FIX(" + name + ", ...)");
  }
  if (f == kNest) {
    EDS_ASSIGN_OR_RETURN(Schema in, InferSchema(t->arg(0), cat, env, memo, guard));
    if (!t->arg(1)->IsApply(term::kList) || !t->arg(2)->is_constant()) {
      return Status::InvalidArgument("malformed NEST: " + t->ToString());
    }
    std::vector<bool> nested(in.size(), false);
    std::vector<Field> nested_fields;
    for (const TermRef& c : t->arg(1)->args()) {
      if (!c->is_constant() ||
          c->constant().kind() != value::ValueKind::kInt) {
        return Status::InvalidArgument("NEST column must be an integer");
      }
      int64_t idx = c->constant().AsInt();
      if (idx < 1 || static_cast<size_t>(idx) > in.size()) {
        return Status::InvalidArgument("NEST column out of range");
      }
      nested[idx - 1] = true;
      nested_fields.push_back(in[idx - 1]);
    }
    if (nested_fields.empty()) {
      return Status::InvalidArgument("NEST with no nested columns");
    }
    Schema out;
    for (size_t i = 0; i < in.size(); ++i) {
      if (!nested[i]) out.push_back(in[i]);
    }
    TypeRef elem = nested_fields.size() == 1
                       ? nested_fields[0].type
                       : Type::MakeTuple(nested_fields);
    out.push_back(Field{std::string(t->arg(2)->constant().AsString()),
                        Type::MakeCollection(TypeKind::kSet, elem)});
    return out;
  }
  if (f == kUnnest) {
    EDS_ASSIGN_OR_RETURN(Schema in, InferSchema(t->arg(0), cat, env, memo, guard));
    if (!t->arg(1)->is_constant() ||
        t->arg(1)->constant().kind() != value::ValueKind::kInt) {
      return Status::InvalidArgument("malformed UNNEST: " + t->ToString());
    }
    int64_t idx = t->arg(1)->constant().AsInt();
    if (idx < 1 || static_cast<size_t>(idx) > in.size()) {
      return Status::InvalidArgument("UNNEST column out of range");
    }
    EDS_ASSIGN_OR_RETURN(TypeRef elem,
                         ElementType(in[idx - 1].type, "UNNEST"));
    Schema out;
    for (size_t i = 0; i < in.size(); ++i) {
      if (static_cast<int64_t>(i) == idx - 1) {
        if (elem->kind() == TypeKind::kTuple) {
          for (const Field& ef : elem->fields()) out.push_back(ef);
        } else {
          out.push_back(Field{in[i].name, elem});
        }
      } else {
        out.push_back(in[i]);
      }
    }
    return out;
  }
  return Status::InvalidArgument("not a relational operator: " + f);
}

}  // namespace

Result<Schema> InferSchema(const term::TermRef& t,
                           const catalog::Catalog& cat, const SchemaEnv* env,
                           SchemaMemo* memo, gov::QueryGuard* guard) {
  // Governor chokepoint: every recursion level funnels through here, so a
  // deadline or cancellation aborts a deep view-expansion promptly.
  if (guard != nullptr && guard->Check()) return guard->TripStatus();
  if (memo != nullptr) {
    auto it = memo->find(t.get());
    if (it != memo->end()) return it->second;
  }
  Result<Schema> r = InferSchemaImpl(t, cat, env, memo, guard);
  // Trip errors describe this run's budget, not the term; memoizing them
  // would poison the memo for retries with a fresh budget.
  if (memo != nullptr && (guard == nullptr || !guard->tripped())) {
    memo->emplace(t.get(), r);
  }
  return r;
}

namespace {

TypeRef ConstantType(const value::Value& v, const catalog::Catalog& cat) {
  switch (v.kind()) {
    case value::ValueKind::kBool: return cat.types().bool_type();
    case value::ValueKind::kInt: return cat.types().int_type();
    case value::ValueKind::kReal: return cat.types().real_type();
    case value::ValueKind::kString: return cat.types().char_type();
    default: return cat.types().any_type();
  }
}

bool IsComparisonOrLogical(const std::string& f) {
  return f == term::kEq || f == term::kNe || f == term::kLt ||
         f == term::kLe || f == term::kGt || f == term::kGe ||
         f == term::kAnd || f == term::kOr || f == term::kNot;
}

}  // namespace

namespace {

Result<types::TypeRef> InferExprTypeImpl(
    const term::TermRef& expr, const std::vector<Schema>& input_schemas,
    const catalog::Catalog& cat, const types::TypeRef& elem_type,
    const SchemaEnv* env, ExprTypeMemo* memo, uint64_t scope_key) {
  if (expr->is_constant()) return ConstantType(expr->constant(), cat);
  if (expr->is_variable() || expr->is_collection_variable()) {
    // Rule patterns reach here during speculative typing; unknown.
    return cat.types().any_type();
  }
  const std::string& f = expr->functor();
  if (IsAttr(expr)) {
    EDS_ASSIGN_OR_RETURN(AttrRef a, GetAttr(expr));
    if (a.input < 1 || static_cast<size_t>(a.input) > input_schemas.size()) {
      return Status::TypeError("ATTR input index out of range: " +
                               expr->ToString());
    }
    const Schema& s = input_schemas[a.input - 1];
    if (a.column < 1 || static_cast<size_t>(a.column) > s.size()) {
      return Status::TypeError("ATTR column index out of range: " +
                               expr->ToString());
    }
    return s[a.column - 1].type;
  }
  if (f == kElem && expr->arity() == 0) {
    if (elem_type == nullptr) {
      return Status::TypeError("ELEM() outside a quantifier body");
    }
    return elem_type;
  }
  if (f == kValueOf && expr->arity() == 1) {
    EDS_ASSIGN_OR_RETURN(
        TypeRef t, InferExprType(expr->arg(0), input_schemas, cat, elem_type,
                                 env));
    if (t->kind() != TypeKind::kObject) {
      return Status::TypeError("VALUE applied to non-object type " +
                               t->ToString());
    }
    // The value of an object is a tuple of its (inherited) fields; keep the
    // object type itself as the value's nominal type so FIELD still works.
    return t;
  }
  if (f == kField && expr->arity() == 2 && expr->arg(1)->is_constant()) {
    EDS_ASSIGN_OR_RETURN(
        TypeRef t, InferExprType(expr->arg(0), input_schemas, cat, elem_type,
                                 env));
    const std::string field(expr->arg(1)->constant().AsString());
    const Field* found = t->FindField(field);
    if (found == nullptr) {
      return Status::TypeError("type " + t->ToString() + " has no attribute " +
                               field);
    }
    return found->type;
  }
  if ((f == kForAll || f == kExists) && expr->arity() == 2) {
    EDS_ASSIGN_OR_RETURN(
        TypeRef coll, InferExprType(expr->arg(0), input_schemas, cat,
                                    elem_type, env, memo, scope_key));
    EDS_ASSIGN_OR_RETURN(TypeRef elem, ElementType(coll, f));
    EDS_ASSIGN_OR_RETURN(
        TypeRef body,
        InferExprType(expr->arg(1), input_schemas, cat, elem, env, memo,
                      scope_key));
    if (body->kind() != TypeKind::kBool && body->kind() != TypeKind::kAny) {
      return Status::TypeError(f + " body must be boolean");
    }
    return cat.types().bool_type();
  }
  if (IsComparisonOrLogical(f)) {
    for (const TermRef& a : expr->args()) {
      EDS_RETURN_IF_ERROR(InferExprType(a, input_schemas, cat, elem_type,
                                        env, memo, scope_key)
                              .status());
    }
    return cat.types().bool_type();
  }
  if (f == "MEMBER" || f == "ISEMPTY" || f == "INCLUDE") {
    for (const TermRef& a : expr->args()) {
      EDS_RETURN_IF_ERROR(InferExprType(a, input_schemas, cat, elem_type,
                                        env, memo, scope_key)
                              .status());
    }
    return cat.types().bool_type();
  }
  if (f == "COUNT" || f == "LENGTH") return cat.types().int_type();
  if (f == "ADD" || f == "SUB" || f == "MUL" || f == "DIV" || f == "MOD" ||
      f == "NEG" || f == "ABS") {
    bool any_real = false;
    for (const TermRef& a : expr->args()) {
      EDS_ASSIGN_OR_RETURN(TypeRef t,
                           InferExprType(a, input_schemas, cat, elem_type,
                                         env, memo, scope_key));
      if (t->kind() == TypeKind::kReal || t->kind() == TypeKind::kNumeric) {
        any_real = true;
      }
    }
    return any_real ? cat.types().real_type() : cat.types().int_type();
  }
  if (f == "CONCAT" || f == "UPPER" || f == "LOWER") {
    return cat.types().char_type();
  }
  if (f == "UNION" || f == "INTERSECTION" || f == "DIFFERENCE" ||
      f == "INSERT" || f == "REMOVE" || f == "APPEND") {
    // Collection-in, collection-out of the first collection argument's type.
    size_t idx = (f == "INSERT" || f == "REMOVE") ? 1 : 0;
    if (expr->arity() <= idx) {
      return Status::TypeError(f + ": missing collection argument");
    }
    return InferExprType(expr->arg(idx), input_schemas, cat, elem_type, env,
                         memo, scope_key);
  }
  if (f == "MAKESET" || f == "MAKEBAG" || f == "MAKELIST" ||
      f == "MAKEARRAY") {
    TypeRef elem = cat.types().any_type();
    if (expr->arity() > 0) {
      EDS_ASSIGN_OR_RETURN(elem,
                           InferExprType(expr->arg(0), input_schemas, cat,
                                         elem_type, env, memo, scope_key));
    }
    TypeKind kind = f == "MAKESET"    ? TypeKind::kSet
                    : f == "MAKEBAG"  ? TypeKind::kBag
                    : f == "MAKELIST" ? TypeKind::kList
                                      : TypeKind::kArray;
    return Type::MakeCollection(kind, elem);
  }
  if (f == "TOSET" || f == "TOBAG" || f == "TOLIST") {
    if (expr->arity() != 1) return Status::TypeError(f + ": one argument");
    EDS_ASSIGN_OR_RETURN(
        TypeRef coll,
        InferExprType(expr->arg(0), input_schemas, cat, elem_type, env,
                      memo, scope_key));
    EDS_ASSIGN_OR_RETURN(TypeRef elem, ElementType(coll, f));
    TypeKind kind = f == "TOSET"   ? TypeKind::kSet
                    : f == "TOBAG" ? TypeKind::kBag
                                   : TypeKind::kList;
    return Type::MakeCollection(kind, elem);
  }
  if (f == "CHOICE" || f == "FIRST" || f == "LAST" || f == "NTH") {
    EDS_ASSIGN_OR_RETURN(
        TypeRef coll,
        InferExprType(expr->arg(0), input_schemas, cat, elem_type, env,
                      memo, scope_key));
    return ElementType(coll, f);
  }
  if (f == term::kTuple) {
    std::vector<Field> fields;
    for (size_t i = 0; i < expr->arity(); ++i) {
      EDS_ASSIGN_OR_RETURN(TypeRef t,
                           InferExprType(expr->arg(i), input_schemas, cat,
                                         elem_type, env, memo, scope_key));
      fields.push_back(Field{"F" + std::to_string(i + 1), std::move(t)});
    }
    return Type::MakeTuple(std::move(fields));
  }
  // User ADT function with a declared signature.
  if (const catalog::FunctionSig* sig = cat.FindFunctionSig(f)) {
    if (sig->params.size() != expr->arity()) {
      return Status::TypeError("function " + f + " expects " +
                               std::to_string(sig->params.size()) +
                               " arguments");
    }
    for (size_t i = 0; i < expr->arity(); ++i) {
      EDS_ASSIGN_OR_RETURN(TypeRef t,
                           InferExprType(expr->arg(i), input_schemas, cat,
                                         elem_type, env, memo, scope_key));
      if (!types::Isa(t, sig->params[i]) &&
          sig->params[i]->kind() != TypeKind::kAny &&
          t->kind() != TypeKind::kAny) {
        return Status::TypeError("argument " + std::to_string(i + 1) +
                                 " of " + f + ": expected " +
                                 sig->params[i]->ToString() + ", got " +
                                 t->ToString());
      }
    }
    return sig->result;
  }
  // A nested relational operator used as a scalar (e.g. a scalar subquery);
  // type it as a bag of its row tuples.
  if (IsRelationalOp(expr)) {
    EDS_ASSIGN_OR_RETURN(Schema s, InferSchema(expr, cat, env));
    TypeRef row = s.size() == 1 ? s[0].type : Type::MakeTuple(s);
    return Type::MakeCollection(TypeKind::kBag, row);
  }
  // Unknown function: stay permissive (ANY) so user extensions without
  // declared signatures still type-check; execution will catch real errors.
  return cat.types().any_type();
}

}  // namespace

Result<types::TypeRef> InferExprType(const term::TermRef& expr,
                                     const std::vector<Schema>& input_schemas,
                                     const catalog::Catalog& cat,
                                     const types::TypeRef& elem_type,
                                     const SchemaEnv* env, ExprTypeMemo* memo,
                                     uint64_t scope_key) {
  // Quantifier bodies are keyed out: their types depend on elem_type, which
  // the (node, scope) key does not carry. Constants and variables are
  // cheaper to re-derive than to look up.
  const bool memoizable =
      memo != nullptr && elem_type == nullptr && expr->is_apply();
  if (memoizable) {
    if (const ExprTypeMemo::Entry* hit = memo->Find(expr, scope_key)) {
      return hit->type;
    }
  }
  Result<types::TypeRef> r = InferExprTypeImpl(expr, input_schemas, cat,
                                               elem_type, env, memo,
                                               scope_key);
  if (memoizable) memo->Insert(expr, scope_key, r);
  return r;
}

std::string ProjectionName(const term::TermRef& expr,
                           const std::vector<Schema>& input_schemas) {
  if (IsAttr(expr)) {
    auto a = GetAttr(expr);
    if (a.ok() && a->input >= 1 &&
        static_cast<size_t>(a->input) <= input_schemas.size()) {
      const Schema& s = input_schemas[a->input - 1];
      if (a->column >= 1 && static_cast<size_t>(a->column) <= s.size()) {
        return s[a->column - 1].name;
      }
    }
    return "ATTR";
  }
  if (expr->IsApply(kField, 2) && expr->arg(1)->is_constant() &&
      expr->arg(1)->constant().kind() == value::ValueKind::kString) {
    return std::string(expr->arg(1)->constant().AsString());
  }
  if (expr->is_apply()) return expr->functor();
  return "EXPR";
}

}  // namespace eds::lera
