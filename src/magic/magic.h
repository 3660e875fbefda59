#ifndef EDS_MAGIC_MAGIC_H_
#define EDS_MAGIC_MAGIC_H_

#include <string>

#include "common/result.h"
#include "magic/adornment.h"
#include "rewrite/builtins.h"
#include "term/term.h"

namespace eds::magic {

// The fixpoint-reduction method of §5.3: pushes a selection *before* the
// recursion by rewriting the fixpoint into one that computes only facts
// relevant to the bound constants. The paper invokes the Alexander method
// [Rohmer86]; we implement the equivalent Magic-Sets-style focusing
// directly on the algebra (both methods push selections into recursion;
// see DESIGN.md substitutions).
//
// Supported recursion shapes, for a recursive relation R with body
// UNION(SET(BASE, STEP)):
//
//   general linear recursion (any arity, any join qualification, any
//   number of non-recursive inputs):
//     STEP = SEARCH(LIST(..., R, ...), qual, projs), R a direct input
//     exactly once. A bound output column b focuses iff it passes through
//     the recursive occurrence unchanged (projs[b] = ATTR(r_pos, b)); then
//       M = σ_bound(BASE) ∪ STEP[R := M]
//     computes exactly σ_bound(R). All qualifying bound columns seed
//     together. This subsumes the classic right-linear (R ∘ D, column 1)
//     and left-linear (D ∘ R, column 2) chain shapes.
//
//   bilinear transitive closure (the BETTER_THAN view of Fig. 5):
//     STEP = SEARCH(LIST(R, R), $1.2 = $2.1, ($1.1, $2.2))
//     column 1 bound: forward seeded closure over BASE;
//     column 2 bound: backward seeded closure over BASE.
//
// Anything else returns Unsupported, in which case the invoking rule simply
// does not fire and the fixpoint is evaluated unfocused (semi-naive).
Result<term::TermRef> AlexanderTransform(const std::string& rel_name,
                                         const term::TermRef& body,
                                         const Adornment& adornment);

// True if RELATION(rel_name) occurs anywhere in `t`.
bool ReferencesRelation(const term::TermRef& t, const std::string& rel_name);

// Registers the rule methods of Fig. 9 into `reg`:
//   ADORNMENT(f, pos, sig)  computes the adornment of FIX input `pos` from
//                           qualification f; binds sig to
//                           LIST(TUPLE(col, operand), ...), each operand a
//                           constant or a query parameter. Fails when no
//                           column is bound (no selection to push).
//   ALEXANDER(r, e, sig, u) binds u to the focused fixpoint built from
//                           FIX(r, e) under adornment sig. Fails on
//                           unsupported recursion shapes.
void InstallMagicBuiltins(rewrite::BuiltinRegistry* reg);

}  // namespace eds::magic

#endif  // EDS_MAGIC_MAGIC_H_
