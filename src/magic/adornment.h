#ifndef EDS_MAGIC_ADORNMENT_H_
#define EDS_MAGIC_ADORNMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "term/term.h"

namespace eds::magic {

// One bound argument position of a recursive predicate: the paper's
// adornment ("z.Signature" in Fig. 9). A column is bound when the enclosing
// qualification equates it with a constant or a query parameter.
struct BoundColumn {
  int64_t column;         // 1-based column of the FIX output
  term::TermRef operand;  // the binding operand (IsBindingOperand)
};

// True for a term that can bind a column: a constant, or a query parameter
// (a variable standing for one, as in a plan-cache template). The adornment
// depends only on this, never on a constant's value, so a template's
// focused fixpoint is valid for every instantiation of its parameters.
bool IsBindingOperand(const term::TermRef& t);

struct Adornment {
  std::vector<BoundColumn> bound;  // may be empty (all-free: "ff...")

  // Classic adornment string, e.g. "bf" for arity 2 with column 1 bound.
  std::string Signature(size_t arity) const;
  bool AnyBound() const { return !bound.empty(); }
};

// Computes the adornment of input position `pos` of a SEARCH from its
// qualification `qual`: every conjunct of the form ATTR(pos, c) = operand
// (either order), with a binding operand, binds column c. Conjuncts
// referencing other inputs are ignored.
Adornment ComputeAdornment(const term::TermRef& qual, int64_t pos);

}  // namespace eds::magic

#endif  // EDS_MAGIC_ADORNMENT_H_
