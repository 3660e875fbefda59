#include "exec/expr_eval.h"

#include "lera/lera.h"

namespace eds::exec {

using term::TermRef;
using value::Value;
using value::ValueKind;

namespace {

Result<Value> Deref(const Value& v, const Database* db) {
  if (v.kind() != ValueKind::kObjectRef) {
    return Status::TypeError("VALUE applied to a non-object: " +
                             v.ToString());
  }
  if (db == nullptr) {
    return Status::RuntimeError("no database bound for object dereference");
  }
  EDS_ASSIGN_OR_RETURN(const StoredObject* obj, db->heap().Get(v.AsObjectRef()));
  return obj->state;
}

}  // namespace

Result<value::Value> EvalExpr(const term::TermRef& expr, EvalContext* ctx) {
  if (expr->is_constant()) return expr->constant();
  if (expr->is_variable() || expr->is_collection_variable()) {
    return Status::RuntimeError("unbound rule variable reached execution: " +
                                expr->ToString());
  }
  const std::string& f = expr->functor();

  if (lera::IsAttr(expr)) {
    EDS_ASSIGN_OR_RETURN(lera::AttrRef a, lera::GetAttr(expr));
    if (a.input < 1 ||
        static_cast<size_t>(a.input) > ctx->current.size() ||
        ctx->current[static_cast<size_t>(a.input) - 1] == nullptr) {
      return Status::RuntimeError("ATTR input out of range: " +
                                  expr->ToString());
    }
    const Row& row = *ctx->current[static_cast<size_t>(a.input) - 1];
    if (a.column < 1 || static_cast<size_t>(a.column) > row.size()) {
      return Status::RuntimeError("ATTR column out of range: " +
                                  expr->ToString());
    }
    return row[static_cast<size_t>(a.column) - 1];
  }

  if (f == lera::kElem && expr->arity() == 0) {
    if (ctx->elem_stack.empty()) {
      return Status::RuntimeError("ELEM() outside a quantifier");
    }
    return ctx->elem_stack.back();
  }

  if (f == lera::kValueOf && expr->arity() == 1) {
    EDS_ASSIGN_OR_RETURN(Value v, EvalExpr(expr->arg(0), ctx));
    if (v.is_null()) return Value::Null();
    return Deref(v, ctx->db);
  }

  if (f == lera::kField && expr->arity() == 2 &&
      expr->arg(1)->is_constant()) {
    EDS_ASSIGN_OR_RETURN(Value base, EvalExpr(expr->arg(0), ctx));
    if (base.is_null()) return Value::Null();
    // Auto-dereference object references: the "appropriate type conversion"
    // the system applies when an attribute name is used as a function.
    if (base.kind() == ValueKind::kObjectRef) {
      EDS_ASSIGN_OR_RETURN(base, Deref(base, ctx->db));
    }
    const std::string_view name = expr->arg(1)->constant().AsString();
    if (base.kind() != ValueKind::kTuple) {
      return Status::TypeError("FIELD('" + std::string(name) +
                               "') on non-tuple value " + base.ToString());
    }
    const Value* found = base.FindField(name);
    if (found == nullptr) {
      return Status::RuntimeError("no attribute '" + std::string(name) +
                                  "' in " + base.ToString());
    }
    return *found;
  }

  if ((f == lera::kForAll || f == lera::kExists) && expr->arity() == 2) {
    EDS_ASSIGN_OR_RETURN(Value coll, EvalExpr(expr->arg(0), ctx));
    if (coll.is_null()) return Value::Null();
    if (!coll.is_collection()) {
      return Status::TypeError(f + (": quantifier domain is not a "
                                    "collection: " +
                                    coll.ToString()));
    }
    const bool universal = f == lera::kForAll;
    for (const Value& elem : coll.elements()) {
      ctx->elem_stack.push_back(elem);
      Result<Value> body = EvalExpr(expr->arg(1), ctx);
      ctx->elem_stack.pop_back();
      EDS_RETURN_IF_ERROR(body.status());
      const Value& b = *body;
      bool truth = b.kind() == ValueKind::kBool && b.AsBool();
      if (universal && !truth) return Value::Bool(false);
      if (!universal && truth) return Value::Bool(true);
    }
    return Value::Bool(universal);
  }

  // Short-circuit logical connectives (three-valued).
  if (f == term::kAnd && expr->arity() == 2) {
    EDS_ASSIGN_OR_RETURN(Value a, EvalExpr(expr->arg(0), ctx));
    if (a.kind() == ValueKind::kBool && !a.AsBool()) {
      return Value::Bool(false);
    }
    EDS_ASSIGN_OR_RETURN(Value b, EvalExpr(expr->arg(1), ctx));
    if (b.kind() == ValueKind::kBool && !b.AsBool()) {
      return Value::Bool(false);
    }
    if (a.is_null() || b.is_null()) return Value::Null();
    if (a.kind() != ValueKind::kBool || b.kind() != ValueKind::kBool) {
      return Status::TypeError("AND over non-boolean operands");
    }
    return Value::Bool(true);
  }
  if (f == term::kOr && expr->arity() == 2) {
    EDS_ASSIGN_OR_RETURN(Value a, EvalExpr(expr->arg(0), ctx));
    if (a.kind() == ValueKind::kBool && a.AsBool()) return Value::Bool(true);
    EDS_ASSIGN_OR_RETURN(Value b, EvalExpr(expr->arg(1), ctx));
    if (b.kind() == ValueKind::kBool && b.AsBool()) return Value::Bool(true);
    if (a.is_null() || b.is_null()) return Value::Null();
    if (a.kind() != ValueKind::kBool || b.kind() != ValueKind::kBool) {
      return Status::TypeError("OR over non-boolean operands");
    }
    return Value::Bool(false);
  }

  // Structural literals evaluate their elements.
  if (f == term::kSet || f == "BAG" || f == term::kList ||
      f == term::kTuple) {
    std::vector<Value> elems;
    elems.reserve(expr->arity());
    for (const TermRef& a : expr->args()) {
      EDS_ASSIGN_OR_RETURN(Value v, EvalExpr(a, ctx));
      elems.push_back(std::move(v));
    }
    if (f == term::kSet) return Value::Set(std::move(elems));
    if (f == "BAG") return Value::Bag(std::move(elems));
    if (f == term::kList) return Value::List(std::move(elems));
    return Value::Tuple(std::move(elems));
  }

  // Everything else dispatches through the function library.
  if (ctx->library == nullptr) {
    return Status::RuntimeError("no function library bound");
  }
  std::vector<Value> args;
  args.reserve(expr->arity());
  for (const TermRef& a : expr->args()) {
    EDS_ASSIGN_OR_RETURN(Value v, EvalExpr(a, ctx));
    args.push_back(std::move(v));
  }
  return ctx->library->Call(f, args);
}

Result<bool> EvalPredicate(const term::TermRef& qual, EvalContext* ctx) {
  EDS_ASSIGN_OR_RETURN(value::Value v, EvalExpr(qual, ctx));
  if (v.is_null()) return false;
  if (v.kind() != ValueKind::kBool) {
    return Status::TypeError("qualification did not evaluate to a boolean: " +
                             qual->ToString());
  }
  return v.AsBool();
}

}  // namespace eds::exec
