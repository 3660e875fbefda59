#ifndef EDS_TESTS_REFERENCE_REFERENCE_H_
#define EDS_TESTS_REFERENCE_REFERENCE_H_

#include <list>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/executor.h"
#include "term/term.h"

namespace eds::reference {

// A row-at-a-time interpreter of LERA plans, built for the tests only:
// the semantics exec::Executor must reproduce, which the differential
// suites compare it against. SEARCH, and FILTER, PROJECT and JOIN as the
// SEARCH they normalize to, runs tuple-substitution nested loops: each
// conjunct runs, in the order written, as soon as the inputs it references
// are bound, and a combination is dropped at its first conjunct that is
// not TRUE, so the rows, their order and the first error are the nested
// loop's. UNION, DEDUP, the set operations, NEST, UNNEST and FIX work on
// rows with the executor's results: sorted set semantics, the first row of
// each Compare-equal group, and the same InvalidArgument for ragged inputs.
//
// It charges ExecStats as the executor does, so a caller compares
// rows_scanned, qual_evaluations, rows_output, fix_iterations and
// fix_tuples too (batches and vec_rows stay 0). The executor charges a
// join level's conjuncts where exec::vec::PlanLevel places them (once per
// right row before the join, once per key for every pairing, once per
// combination after it), so once a SEARCH's nested loop has succeeded,
// the reference counts its conjuncts again in that order.
class Reference {
 public:
  // Honors options.seminaive and options.max_fix_iterations.
  Reference(const catalog::Catalog* cat, const exec::Database* db,
            exec::ExecOptions options = {});

  Result<exec::Rows> Execute(const term::TermRef& plan);
  const exec::ExecStats& stats() const { return stats_; }

 private:
  using FixEnv = std::map<std::string, const exec::Rows*>;

  Result<exec::Rows> Eval(const term::TermRef& t, const FixEnv& env);
  // A SEARCH input: a fixpoint binding or a stored table, whose rows are
  // added to `*scanned`, or an evaluated operator kept in `owned`.
  Result<const exec::Rows*> Input(const term::TermRef& t, const FixEnv& env,
                                  std::list<exec::Rows>* owned,
                                  size_t* scanned);
  Result<exec::Rows> Search(const term::TermRef& t, const FixEnv& env);
  Result<exec::Rows> SearchWithInputs(
      const term::TermRef& qual, const term::TermList& projections,
      const std::vector<const exec::Rows*>& inputs, size_t scanned);
  // The executor's qualification charges for a search whose nested loop
  // succeeded.
  void ChargeQualifications(const std::vector<term::TermList>& conjuncts_at,
                            const std::vector<const exec::Rows*>& inputs);
  Result<exec::Rows> SetOp(const term::TermRef& t, const FixEnv& env);
  Result<exec::Rows> Nest(const term::TermRef& t, const FixEnv& env);
  Result<exec::Rows> Unnest(const term::TermRef& t, const FixEnv& env);
  Result<exec::Rows> Fix(const term::TermRef& t, const FixEnv& env);

  exec::EvalContext Context(size_t inputs) const;

  const catalog::Catalog* catalog_;
  const exec::Database* db_;
  exec::ExecOptions options_;
  exec::ExecStats stats_;
};

}  // namespace eds::reference

#endif  // EDS_TESTS_REFERENCE_REFERENCE_H_
