#include "magic/adornment.h"

#include "lera/lera.h"

namespace eds::magic {

std::string Adornment::Signature(size_t arity) const {
  std::string sig(arity, 'f');
  for (const BoundColumn& b : bound) {
    if (b.column >= 1 && static_cast<size_t>(b.column) <= arity) {
      sig[static_cast<size_t>(b.column) - 1] = 'b';
    }
  }
  return sig;
}

bool IsBindingOperand(const term::TermRef& t) {
  return t->is_constant() || t->is_variable();
}

Adornment ComputeAdornment(const term::TermRef& qual, int64_t pos) {
  Adornment out;
  for (const term::TermRef& conj : term::Conjuncts(qual)) {
    if (!conj->IsApply(term::kEq, 2)) continue;
    const term::TermRef& a = conj->arg(0);
    const term::TermRef& b = conj->arg(1);
    const term::TermRef* attr = nullptr;
    const term::TermRef* operand = nullptr;
    if (lera::IsAttr(a) && IsBindingOperand(b)) {
      attr = &a;
      operand = &b;
    } else if (lera::IsAttr(b) && IsBindingOperand(a)) {
      attr = &b;
      operand = &a;
    } else {
      continue;
    }
    auto ref = lera::GetAttr(*attr);
    if (!ref.ok() || ref->input != pos) continue;
    out.bound.push_back(BoundColumn{ref->column, *operand});
  }
  return out;
}

}  // namespace eds::magic
