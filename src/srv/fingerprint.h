#ifndef EDS_SRV_FINGERPRINT_H_
#define EDS_SRV_FINGERPRINT_H_

#include <cstddef>

#include "common/result.h"
#include "term/term.h"

namespace eds::srv {

// Query fingerprinting for the rewritten-plan cache: two queries that
// differ only in literal values ("Salary > 10000" vs "Salary > 12000")
// should share one cache entry, so the rewrite work done for the first is
// replayed for the second. The fingerprint of a raw LERA plan is its
// *template*: the same term with every parameterizable literal replaced by
// a reserved parameter variable ($CQ0, $CQ1, ... in pre-order), plus the
// extracted literal list. Templates are ordinary hash-consed terms, so two
// structurally identical templates are pointer-identical while alive —
// which is exactly what the cache keys on.
//
// What gets parameterized: Int/Real/String constants in value positions
// (comparison operands, projection expressions, collection members).
// What never does:
//   * structural constants — RELATION names, ATTR indices, FIELD names,
//     NEST/UNNEST column indices — which select schema objects, not values;
//   * booleans — TRUE/FALSE in a qualification is plan shape (the
//     translator emits TRUE quals that simplify away), not a parameter.
//
// Soundness of replaying a template rewrite under different literals rests
// on parameter variables being opaque: a rule whose firing depends on a
// literal's value fails on a parameter (EVALUATE and friends fail on
// non-ground terms, which makes the rule not fire), so every rule that
// *does* fire on the template fired for structural/catalog reasons and its
// application is valid under any substitution of the parameters. Recursive
// plans are no exception: ADORNMENT binds a column because a constant or a
// parameter is equated with it, never because of the value, and ALEXANDER
// copies that operand into the focused fixpoint's seed as it is.
// Positional parameters keep distinct literal occurrences distinct even
// when their values coincide, so no rule can fire off an accidental value
// alias. See docs/server.md.
struct Fingerprint {
  term::TermRef tmpl;     // canonical parameterized plan (the cache key)
  term::TermList params;  // literal constants, index i <-> $CQi
};

// Builds the fingerprint of a raw (pre-rewrite) LERA plan. Total, never
// fails: a plan with nothing to parameterize yields itself as template.
Fingerprint FingerprintPlan(const term::TermRef& raw);

// Substitutes `params` back into a cached normal form derived from a
// template with `params.size()` parameter variables. Errors only on a
// malformed cache entry (a parameter index out of range), which callers
// treat as a miss, never as a query failure.
Result<term::TermRef> InstantiatePlan(const term::TermRef& nf_tmpl,
                                      const term::TermList& params);

// The reserved parameter-variable prefix ("$CQ"); exposed for tests.
extern const char kParamPrefix[];

}  // namespace eds::srv

#endif  // EDS_SRV_FINGERPRINT_H_
