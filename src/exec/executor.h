#ifndef EDS_EXEC_EXECUTOR_H_
#define EDS_EXEC_EXECUTOR_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/expr_eval.h"
#include "exec/storage.h"
#include "gov/governor.h"
#include "term/term.h"

namespace eds::obs {
class TraceSink;
}  // namespace eds::obs

namespace eds::exec {

struct ExecOptions {
  // Semi-naive fixpoint evaluation for UNION-of-SEARCH bodies; false forces
  // naive iteration everywhere (the Fig. 5 / bench_fixpoint ablation).
  bool seminaive = true;
  // Safety valve for non-terminating recursions: the most rounds one FIX
  // may run, counted as ExecStats::fix_iterations counts them (the seeding
  // round and the final round that adds nothing included). A FIX that
  // converges in k rounds succeeds with a limit of k and fails with k - 1,
  // in both modes.
  size_t max_fix_iterations = 100000;
  // When set, Eval records one span per operator evaluation (named by
  // functor, relation scans by relation name) and EvalFix one per fixpoint
  // round. Null (the default) costs a single branch per Eval call.
  obs::TraceSink* trace_sink = nullptr;
  // Query governor (may be null, the default): checked at every operator
  // evaluation and fixpoint-round boundary, with every operator's output
  // rows charged against the row ceiling. Unlike the rewriter, execution
  // cannot degrade — a partial answer is a wrong answer — so a trip
  // surfaces as Status::ResourceExhausted; ExecStats keep their partial
  // values. Non-owning; must outlive the executor.
  gov::QueryGuard* guard = nullptr;
};

struct ExecStats {
  size_t rows_scanned = 0;       // stored rows the operators read
  size_t qual_evaluations = 0;   // qualification probes (join work proxy)
  size_t rows_output = 0;        // rows produced by the top operator
  size_t fix_iterations = 0;     // fixpoint rounds across all FIX operators
  size_t fix_tuples = 0;         // tuples accumulated by FIX operators
  size_t batches = 0;            // vectorized kernel invocations
  size_t vec_rows = 0;           // rows pushed through vectorized kernels
  size_t vec_fallbacks = 0;      // always 0: the executor has one engine
  size_t value_copies = 0;       // Value copy-constructions during Execute()

  void Reset() { *this = ExecStats(); }
};

// Evaluates LERA trees over an in-memory database. Deliberately simple
// physical behaviour — every operator maps batches to a batch, one SEARCH
// path for SEARCH, FILTER, PROJECT and JOIN gives what tuple-substitution
// nested loops give (rows, order and first error), set-semantics UNION,
// semi-naive fixpoints — so benchmark deltas reflect the *logical*
// rewrites, which is what the paper is about, and a plan behaves as its
// normalized form does.
//
// Views resolve through the catalog: a RELATION reference that names a view
// evaluates the view's stored definition (query modification happens in the
// rewriter; the executor fallback keeps unrewritten plans runnable as
// baselines).
class Executor {
 public:
  // All pointers must outlive the executor.
  Executor(const catalog::Catalog* cat, const Database* db,
           ExecOptions options = {});

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Evaluates a relational plan to its rows, converting the top
  // operator's batch once. Stats accumulate across calls until
  // ResetStats().
  Result<Rows> Execute(const term::TermRef& plan);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  // Names bound by enclosing FIX operators during iteration, each to the
  // FIX's total, a batch that grows in place between rounds.
  using FixEnv = std::map<std::string, const vec::Batch*>;

  // Wraps EvalDispatch in a per-operator span when tracing is on.
  Result<vec::Batch> Eval(const term::TermRef& t, const FixEnv& env);
  Result<vec::Batch> EvalDispatch(const term::TermRef& t, const FixEnv& env);

  // An operator's input as a batch, without copying where it needs no
  // evaluation: a fixpoint binding, or a stored table's batch, whose rows
  // are added to `*scanned` (a SEARCH charges them when it reads them), or
  // to rows_scanned when `scanned` is null. Anything else is evaluated
  // into `owned`, whose elements keep their addresses.
  Result<const vec::Batch*> InputBatch(const term::TermRef& t,
                                       const FixEnv& env,
                                       std::list<vec::Batch>* owned,
                                       size_t* scanned = nullptr);

  // operators.cc
  // SEARCH, and FILTER, PROJECT and JOIN as the SEARCH their normalization
  // rules build: FILTER(z, f) runs as SEARCH(LIST(z), f, identity),
  // PROJECT(z, p) as SEARCH(LIST(z), TRUE, p) and JOIN(a, b, f) as
  // SEARCH(LIST(a, b), f, identity), the identity projection taken from
  // the widths of the materialized inputs.
  Result<vec::Batch> EvalSearch(const term::TermRef& t, const FixEnv& env);
  // Runs a search over materialized inputs: buckets the qualification's
  // conjuncts by the highest input each references, evaluates the
  // input-independent ones once, and, unless one is not TRUE or an input
  // is empty, charges `scanned` stored rows and runs the batch engine.
  Result<vec::Batch> SearchWithInputs(
      const term::TermRef& qual, const term::TermList& projections,
      const std::vector<const vec::Batch*>& inputs, size_t scanned);
  // UNION, DEDUP, DIFFERENCE and INTERSECTION, with set semantics; the
  // non-empty inputs must share one width.
  Result<vec::Batch> EvalSetOp(const term::TermRef& t, const FixEnv& env);
  Result<vec::Batch> EvalNest(const term::TermRef& t, const FixEnv& env);
  Result<vec::Batch> EvalUnnest(const term::TermRef& t, const FixEnv& env);

  // fixpoint_eval.cc
  Result<vec::Batch> EvalFix(const term::TermRef& t, const FixEnv& env);

  // vec/vec_exec.cc — the batch engine: conjuncts_at[k] (k >= 1) run once
  // inputs 1..k are joined; the result holds the projections' columns, or
  // is the error a nested loop over the inputs would meet first.
  Result<vec::Batch> EvalSearchWithInputsVec(
      const std::vector<term::TermList>& conjuncts_at,
      const term::TermList& projections,
      const std::vector<const vec::Batch*>& inputs);

  EvalContext MakeExprContext() const;

  const catalog::Catalog* catalog_;
  const Database* db_;
  ExecOptions options_;
  ExecStats stats_;
};

// Sorts rows lexicographically and removes duplicates (set semantics); a
// helper for comparing results as sets.
void DedupRows(Rows* rows);

// Lexicographic row comparison consistent with value::Compare.
int CompareRows(const Row& a, const Row& b);

}  // namespace eds::exec

#endif  // EDS_EXEC_EXECUTOR_H_
