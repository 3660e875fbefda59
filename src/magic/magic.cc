#include "magic/magic.h"

#include "common/strings.h"
#include "gov/failpoint.h"
#include "lera/lera.h"
#include "term/substitution.h"

namespace eds::magic {

using term::Term;
using term::TermList;
using term::TermRef;

bool ReferencesRelation(const term::TermRef& t, const std::string& rel_name) {
  if (lera::IsRelation(t)) {
    auto name = lera::RelationName(t);
    return name.ok() && EqualsIgnoreCase(*name, rel_name);
  }
  if (t->is_apply()) {
    for (const TermRef& a : t->args()) {
      if (ReferencesRelation(a, rel_name)) return true;
    }
  }
  return false;
}

namespace {

// True if `t` is RELATION(rel_name).
bool IsRel(const TermRef& t, const std::string& rel_name) {
  if (!lera::IsRelation(t)) return false;
  auto name = lera::RelationName(t);
  return name.ok() && EqualsIgnoreCase(*name, rel_name);
}

// True if `qual` is exactly $1.2 = $2.1 (either operand order).
bool IsChainJoin(const TermRef& qual) {
  if (!qual->IsApply(term::kEq, 2)) return false;
  auto a = lera::GetAttr(qual->arg(0));
  auto b = lera::GetAttr(qual->arg(1));
  if (!a.ok() || !b.ok()) return false;
  return (a->input == 1 && a->column == 2 && b->input == 2 &&
          b->column == 1) ||
         (a->input == 2 && a->column == 1 && b->input == 1 && b->column == 2);
}

// True if `projs` is exactly ($1.1, $2.2).
bool IsChainProjection(const TermList& projs) {
  if (projs.size() != 2) return false;
  auto a = lera::GetAttr(projs[0]);
  auto b = lera::GetAttr(projs[1]);
  return a.ok() && b.ok() && a->input == 1 && a->column == 1 &&
         b->input == 2 && b->column == 2;
}

// SEARCH(LIST(a, b), $1.2 = $2.1, ($1.1, $2.2)) — binary composition.
TermRef Compose(const TermRef& a, const TermRef& b) {
  return lera::Search({a, b},
                      Term::Eq(Term::Attr(1, 2), Term::Attr(2, 1)),
                      {Term::Attr(1, 1), Term::Attr(2, 2)});
}

}  // namespace

Result<term::TermRef> AlexanderTransform(const std::string& rel_name,
                                         const term::TermRef& body,
                                         const Adornment& adornment) {
  if (!adornment.AnyBound()) {
    return Status::Unsupported("no bound column to push into the fixpoint");
  }
  // Already-focused fixpoints carry the "#M" suffix; transforming them
  // again would regress forever (the caller's qualification still mentions
  // the bound operand).
  if (rel_name.find("#M") != std::string::npos) {
    return Status::Unsupported("fixpoint is already focused");
  }
  if (!lera::IsUnion(body)) {
    return Status::Unsupported("fixpoint body is not a UNION");
  }
  EDS_ASSIGN_OR_RETURN(TermList branches, lera::UnionInputs(body));
  if (branches.size() != 2) {
    return Status::Unsupported("fixpoint body must have two UNION branches");
  }
  // Identify BASE (no reference to R) and STEP (the recursive branch).
  TermRef base, step;
  for (const TermRef& b : branches) {
    if (ReferencesRelation(b, rel_name)) {
      if (step != nullptr) {
        return Status::Unsupported("two recursive branches");
      }
      step = b;
    } else {
      if (base != nullptr) {
        return Status::Unsupported("two base branches");
      }
      base = b;
    }
  }
  if (base == nullptr || step == nullptr) {
    return Status::Unsupported("fixpoint body lacks base or recursive branch");
  }
  if (!lera::IsSearch(step)) {
    return Status::Unsupported("recursive branch is not a SEARCH");
  }
  EDS_ASSIGN_OR_RETURN(TermList inputs, lera::SearchInputs(step));
  EDS_ASSIGN_OR_RETURN(TermRef qual, lera::SearchQual(step));
  EDS_ASSIGN_OR_RETURN(TermList projs, lera::SearchProjections(step));

  // Locate the direct recursive inputs.
  std::vector<size_t> r_positions;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (IsRel(inputs[i], rel_name)) {
      r_positions.push_back(i);
    } else if (ReferencesRelation(inputs[i], rel_name)) {
      // R hidden below another operator: out of scope.
      return Status::Unsupported("recursive reference is not a direct input");
    }
  }
  const std::string magic_name = rel_name + "#M";
  const TermRef magic_rel = lera::Relation(magic_name);

  // σ over the base branch on the given bound columns, with an identity
  // projection of the recursive relation's arity (= |projs|, since the
  // union branches are union-compatible).
  auto seed_base = [&](const std::vector<const BoundColumn*>& bound) {
    TermList conjuncts;
    for (const BoundColumn* b : bound) {
      conjuncts.push_back(Term::Eq(Term::Attr(1, b->column), b->operand));
    }
    TermList identity;
    for (size_t j = 1; j <= projs.size(); ++j) {
      identity.push_back(Term::Attr(1, static_cast<int64_t>(j)));
    }
    return lera::Search({base}, term::MakeConjunction(conjuncts),
                        std::move(identity));
  };

  if (r_positions.size() == 1) {
    // General linear recursion, any arity, any join qualification, any
    // number of non-recursive inputs:  R = BASE ∪ π(σ(R, D1, ..., Dk)).
    // A bound output column b focuses iff it passes through the recursive
    // occurrence unchanged (projs[b-1] = ATTR(r_pos, b)): then
    // σ_{b=k}(R) = σ_{b=k}(BASE) ∪ π(σ(σ_{b=k}(R), D...)), so seeding the
    // base and iterating the same step over the focused relation computes
    // exactly the cone. All qualifying bound columns seed together.
    const int64_t r_attr_index = static_cast<int64_t>(r_positions[0]) + 1;
    std::vector<const BoundColumn*> usable;
    for (const BoundColumn& b : adornment.bound) {
      if (b.column < 1 || static_cast<size_t>(b.column) > projs.size()) {
        continue;
      }
      auto ref = lera::GetAttr(projs[static_cast<size_t>(b.column - 1)]);
      if (ref.ok() && ref->input == r_attr_index && ref->column == b.column) {
        usable.push_back(&b);
      }
    }
    if (usable.empty()) {
      return Status::Unsupported(
          "no bound column passes through the recursive occurrence");
    }
    TermList step_inputs = inputs;
    step_inputs[r_positions[0]] = magic_rel;
    TermRef seeded_step =
        lera::Search(std::move(step_inputs), qual, projs);
    return lera::Fix(magic_name, lera::UnionN({seed_base(usable),
                                               std::move(seeded_step)}));
  }

  if (r_positions.size() == 2 && inputs.size() == 2 && IsChainJoin(qual) &&
      IsChainProjection(projs)) {
    // Bilinear transitive closure (Fig. 5's BETTER_THAN): extend forward
    // (column 1 bound) or backward (column 2 bound) one BASE edge at a
    // time; TC(BASE) restricted to one bound endpoint is plain
    // reachability over BASE.
    for (const BoundColumn& b : adornment.bound) {
      if (b.column != 1 && b.column != 2) continue;
      TermRef seeded_step = b.column == 1 ? Compose(magic_rel, base)
                                          : Compose(base, magic_rel);
      return lera::Fix(magic_name,
                       lera::UnionN({seed_base({&b}),
                                     std::move(seeded_step)}));
    }
    return Status::Unsupported("no bound column usable for this linearity");
  }

  return Status::Unsupported(
      "recursion shape beyond linear / bilinear-chain support");
}

namespace {

using rewrite::RewriteContext;

// ADORNMENT(f, pos, sig): see magic.h.
Status MethodAdornment(const TermList& args, term::Bindings* env,
                       const RewriteContext& ctx) {
  EDS_FAIL_POINT("rewrite.method.ADORNMENT");
  (void)ctx;
  if (args.size() != 3 || !args[2]->is_variable()) {
    return Status::InvalidArgument("ADORNMENT expects (qual, pos, sig_out)");
  }
  EDS_ASSIGN_OR_RETURN(TermRef qual, term::ApplySubstitution(args[0], *env));
  EDS_ASSIGN_OR_RETURN(TermRef pos_t, term::ApplySubstitution(args[1], *env));
  if (!pos_t->is_constant() ||
      pos_t->constant().kind() != value::ValueKind::kInt) {
    return Status::InvalidArgument("ADORNMENT: pos must be an integer");
  }
  Adornment a = ComputeAdornment(qual, pos_t->constant().AsInt());
  if (!a.AnyBound()) {
    return Status::InvalidArgument("ADORNMENT: no bound column");
  }
  TermList entries;
  for (const BoundColumn& b : a.bound) {
    entries.push_back(Term::MakeTuple({Term::Int(b.column), b.operand}));
  }
  env->SetVar(args[2]->var_name(), Term::List(std::move(entries)));
  return Status::OK();
}

// ALEXANDER(r, e, sig, u): see magic.h.
Status MethodAlexander(const TermList& args, term::Bindings* env,
                       const RewriteContext& ctx) {
  EDS_FAIL_POINT("rewrite.method.ALEXANDER");
  (void)ctx;
  if (args.size() != 4 || !args[3]->is_variable()) {
    return Status::InvalidArgument("ALEXANDER expects (r, e, sig, u_out)");
  }
  EDS_ASSIGN_OR_RETURN(TermRef rel, term::ApplySubstitution(args[0], *env));
  EDS_ASSIGN_OR_RETURN(TermRef body, term::ApplySubstitution(args[1], *env));
  EDS_ASSIGN_OR_RETURN(TermRef sig, term::ApplySubstitution(args[2], *env));
  EDS_ASSIGN_OR_RETURN(std::string rel_name, lera::RelationName(rel));
  if (!sig->IsApply(term::kList)) {
    return Status::InvalidArgument("ALEXANDER: sig must be a LIST");
  }
  Adornment adornment;
  for (const TermRef& entry : sig->args()) {
    if (!entry->IsApply(term::kTuple, 2) || !entry->arg(0)->is_constant() ||
        entry->arg(0)->constant().kind() != value::ValueKind::kInt ||
        !IsBindingOperand(entry->arg(1))) {
      return Status::InvalidArgument("ALEXANDER: malformed sig entry");
    }
    adornment.bound.push_back(
        BoundColumn{entry->arg(0)->constant().AsInt(), entry->arg(1)});
  }
  EDS_ASSIGN_OR_RETURN(TermRef focused,
                       AlexanderTransform(rel_name, body, adornment));
  env->SetVar(args[3]->var_name(), std::move(focused));
  return Status::OK();
}

}  // namespace

void InstallMagicBuiltins(rewrite::BuiltinRegistry* reg) {
  (void)reg->RegisterMethod("ADORNMENT", MethodAdornment);
  (void)reg->RegisterMethod("ALEXANDER", MethodAlexander);
}

}  // namespace eds::magic
