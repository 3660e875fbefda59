#ifndef EDS_TESTS_LERA_CORPUS_H_
#define EDS_TESTS_LERA_CORPUS_H_

// Shared LERA plan corpus over the soundness verifier's corner databases
// (src/verify/instance.h): V0/V1/V2 (A, B), VE (empty), VS (S CHAR, N),
// VEDGE/CLO. Exercises comparisons against NULL (three-valued), duplicate
// rows (bag vs set semantics), empty inputs, strings, explicit operators,
// and a transitive-closure fixpoint. Used by the columnar/row differential
// suite (vec_diff_test.cc) and the term print->parse round-trip property
// suite (term_roundtrip_test.cc).

namespace eds::testutil {

inline constexpr const char* kLeraCorpus[] = {
    // Single-input scans: comparisons, AND/OR/NOT, constant quals.
    "SEARCH(LIST(RELATION('V0')), TRUE, LIST($1.1, $1.2))",
    "SEARCH(LIST(RELATION('V0')), FALSE, LIST($1.1))",
    "SEARCH(LIST(RELATION('V0')), ($1.1 < $1.2), LIST($1.1, $1.2))",
    "SEARCH(LIST(RELATION('V0')), (($1.1 < $1.2) AND ($1.1 = $1.1)), "
    "LIST($1.2, $1.1))",
    "SEARCH(LIST(RELATION('V1')), (($1.1 = 1) OR ($1.2 = 2)), "
    "LIST($1.1, $1.2))",
    "SEARCH(LIST(RELATION('V1')), (NOT ($1.1 = 1)), LIST($1.1))",
    // Equi joins (hash kernel), residual conjuncts, pure cross joins.
    "SEARCH(LIST(RELATION('V0'), RELATION('V1')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2))",
    "SEARCH(LIST(RELATION('V0'), RELATION('V1')), "
    "(($1.2 = $2.1) AND ($1.1 < $2.2)), LIST($1.1, $2.2))",
    "SEARCH(LIST(RELATION('V0'), RELATION('V1')), ($1.1 < $2.2), "
    "LIST($1.1, $2.2))",
    "SEARCH(LIST(RELATION('V0'), RELATION('V1'), RELATION('V2')), "
    "(($1.2 = $2.1) AND ($2.2 = $3.1)), LIST($1.1, $3.2))",
    "SEARCH(LIST(RELATION('V0'), RELATION('V1')), "
    "(($1.1 = $2.1) OR ($1.2 = $2.2)), LIST($1.1, $2.1))",
    // Empty-input corners.
    "SEARCH(LIST(RELATION('VE')), ($1.1 = 1), LIST($1.1))",
    "SEARCH(LIST(RELATION('V0'), RELATION('VE')), ($1.1 = $2.1), "
    "LIST($1.1, $2.2))",
    // Strings.
    "SEARCH(LIST(RELATION('VS')), ($1.2 > 1), LIST($1.1, $1.2))",
    "SEARCH(LIST(RELATION('VS'), RELATION('VS')), ($1.1 = $2.1), "
    "LIST($1.1, $1.2, $2.2))",
    // Explicit operators: FILTER / PROJECT / JOIN / DEDUP / set ops.
    "FILTER(RELATION('V0'), ($1.1 > 1))",
    "PROJECT(RELATION('V0'), LIST($1.2, $1.1))",
    "JOIN(RELATION('V0'), RELATION('V1'), ($1.2 = $2.1))",
    "JOIN(RELATION('V0'), RELATION('V1'), ($1.1 < $2.1))",
    // A conjunct after one that is not TRUE never runs: a DIV that can
    // fail behind a JOIN's first conjunct, and a FILTER whose AND has a
    // NULL on its left where the right would fail (SUB over NULL).
    "JOIN(RELATION('V0'), RELATION('V2'), "
    "(($1.2 > 2) AND (DIV(12, $2.2) > 1)))",
    "FILTER(RELATION('V0'), (($1.2 > 1) AND (DIV(6, SUB($1.2, 1)) > 1)))",
    "DEDUP(SEARCH(LIST(RELATION('V0')), TRUE, LIST($1.1)))",
    "DEDUP(RELATION('V0'))",
    "UNION(SET(RELATION('V0'), RELATION('V1')))",
    "DIFFERENCE(RELATION('V0'), RELATION('V1'))",
    "INTERSECT(RELATION('V0'), RELATION('V1'))",
    // Fixpoint: transitive closure over the verifier's graph, semi-naive
    // deltas flowing through the vectorized SEARCH.
    "FIX(RELATION('CLO'), UNION(SET("
    "SEARCH(LIST(RELATION('VEDGE')), TRUE, LIST($1.1, $1.2)), "
    "SEARCH(LIST(RELATION('CLO'), RELATION('CLO')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2)))))",
};

}  // namespace eds::testutil

#endif  // EDS_TESTS_LERA_CORPUS_H_
