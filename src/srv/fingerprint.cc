#include "srv/fingerprint.h"

#include <string>
#include <utility>

#include "lera/lera.h"
#include "term/substitution.h"

namespace eds::srv {

const char kParamPrefix[] = "$CQ";

namespace {

// True for constants whose value is a query parameter candidate. Booleans
// and nulls are plan shape; collections/tuples/objects never appear as
// SELECT literals (and would be structural if they did).
bool IsParameterizableConstant(const term::TermRef& t) {
  if (!t->is_constant()) return false;
  switch (t->constant().kind()) {
    case value::ValueKind::kInt:
    case value::ValueKind::kReal:
    case value::ValueKind::kString:
      return true;
    default:
      return false;
  }
}

// Recursively parameterizes `t`, appending extracted literals to `params`.
// Reuses the original node whenever no descendant changed, so templates
// share structure with the raw plan.
term::TermRef Parameterize(const term::TermRef& t, term::TermList* params) {
  if (IsParameterizableConstant(t)) {
    params->push_back(t);
    return term::Term::Var(kParamPrefix + std::to_string(params->size() - 1));
  }
  if (!t->is_apply() || t->arity() == 0) return t;
  const std::string& f = t->functor();
  // Structural functors: constants among these argument positions name
  // schema objects (relations, attribute slots, tuple fields), never query
  // parameters.
  if (f == term::kRelation || f == term::kAttr) return t;
  size_t structural_from = t->arity();  // args >= this are structural
  if (f == lera::kField || f == lera::kUnnest || f == lera::kNest) {
    // FIELD(e, 'name'), UNNEST(input, idx), NEST(input, LIST(idx...), 'nm')
    structural_from = 1;
  }
  term::TermList args;
  bool changed = false;
  args.reserve(t->arity());
  for (size_t i = 0; i < t->arity(); ++i) {
    if (i >= structural_from) {
      args.push_back(t->arg(i));
      continue;
    }
    term::TermRef a = Parameterize(t->arg(i), params);
    changed = changed || a.get() != t->arg(i).get();
    args.push_back(std::move(a));
  }
  if (!changed) return t;
  return term::WithArgs(t, std::move(args));
}

}  // namespace

Fingerprint FingerprintPlan(const term::TermRef& raw) {
  Fingerprint fp;
  fp.tmpl = Parameterize(raw, &fp.params);
  return fp;
}

Result<term::TermRef> InstantiatePlan(const term::TermRef& nf_tmpl,
                                      const term::TermList& params) {
  if (params.empty()) return nf_tmpl;
  term::Bindings env;
  for (size_t i = 0; i < params.size(); ++i) {
    env.SetVar(kParamPrefix + std::to_string(i), params[i]);
  }
  return term::ApplySubstitution(nf_tmpl, env);
}

}  // namespace eds::srv
