#ifndef EDS_EXEC_EXECUTOR_H_
#define EDS_EXEC_EXECUTOR_H_

#include <cstdint>
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
  // Safety valve for non-terminating recursions.
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
  // Columnar batch execution for SEARCH (which FILTER, PROJECT and JOIN
  // run as) and DEDUP (and the dedups inside UNION, set ops and fixpoint
  // rounds). Results are byte-identical to the row path — a search the
  // kernels cannot handle falls back whole (counted in
  // ExecStats::vec_fallbacks). False forces the row-at-a-time oracle
  // everywhere.
  bool vectorized = true;
};

struct ExecStats {
  size_t rows_scanned = 0;       // input rows materialized from storage
  size_t qual_evaluations = 0;   // qualification probes (join work proxy)
  size_t rows_output = 0;        // rows produced by the top operator
  size_t fix_iterations = 0;     // fixpoint rounds across all FIX operators
  size_t fix_tuples = 0;         // tuples accumulated by FIX operators
  size_t batches = 0;            // vectorized kernel invocations
  size_t vec_rows = 0;           // rows pushed through vectorized kernels
  size_t vec_fallbacks = 0;      // operators that fell back to the row path
  size_t value_copies = 0;       // Value copy-constructions during Execute()

  void Reset() { *this = ExecStats(); }
};

// Evaluates LERA trees over an in-memory database. Deliberately simple
// physical behaviour — one SEARCH path for SEARCH, FILTER, PROJECT and JOIN
// that drops a combination at its first conjunct that is not TRUE (a
// columnar pipeline, with tuple-substitution nested loops as the oracle),
// set-semantics UNION, semi-naive fixpoints — so benchmark deltas reflect
// the *logical* rewrites, which is what the paper is about, and a plan
// behaves as its normalized form does.
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

  // Evaluates a relational plan to its rows. Stats accumulate across calls
  // until ResetStats().
  Result<Rows> Execute(const term::TermRef& plan);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  // Names bound by enclosing FIX operators during iteration.
  using FixEnv = std::map<std::string, const Rows*>;

  // Wraps EvalDispatch in a per-operator span when tracing is on.
  Result<Rows> Eval(const term::TermRef& t, const FixEnv& env);
  Result<Rows> EvalDispatch(const term::TermRef& t, const FixEnv& env);

  // An input that needs no evaluation, borrowed without copying (counted
  // as scanned just like an evaluated scan): a fixpoint binding's rows or a
  // stored table's batch, exactly one of them set. Empty when `t`
  // genuinely needs evaluation (views, operator trees, unknown names: Eval
  // reports those errors). SEARCH (and FILTER, PROJECT and JOIN with it)
  // feeds on borrowed inputs where it can, so a scan over a stored table
  // never copies the table first.
  struct Borrowed {
    const Rows* rows = nullptr;
    const vec::Batch* batch = nullptr;
    explicit operator bool() const {
      return rows != nullptr || batch != nullptr;
    }
  };
  Borrowed TryBorrow(const term::TermRef& t, const FixEnv& env);

  // The row image of a stored table's batch, built on first use and kept
  // until Execute returns, so the row path converts each table at most
  // once per Execute.
  const Rows& StoredRows(const vec::Batch* batch);

  // operators.cc
  // SEARCH, and FILTER, PROJECT and JOIN as the SEARCH their normalization
  // rules build: FILTER(z, f) runs as SEARCH(LIST(z), f, identity),
  // PROJECT(z, p) as SEARCH(LIST(z), TRUE, p) and JOIN(a, b, f) as
  // SEARCH(LIST(a, b), f, identity), the identity projection taken from
  // the widths of the materialized inputs.
  Result<Rows> EvalSearch(const term::TermRef& t, const FixEnv& env);
  // Runs a search over materialized inputs: buckets the qualification's
  // conjuncts by the highest input each references, evaluates the
  // input-independent ones once, then tries the vectorized engine. A
  // vectorized attempt whose error is anything but ResourceExhausted (a
  // governor trip, always final) restores the stats snapshot, counts a
  // fallback and reruns the row-path oracle, which reproduces the precise
  // user-visible error or result. Input i is batches[i] when that is set (a
  // stored table; inputs[i] is then null), else *inputs[i].
  Result<Rows> SearchWithInputsMaybeVec(
      const term::TermRef& qual, const term::TermList& projections,
      std::vector<const Rows*> inputs,
      const std::vector<const vec::Batch*>& batches);
  // The row engine: tuple-substitution nested loops that run each conjunct
  // in conjuncts_at[k] (k >= 1) once inputs 1..k are bound.
  Result<Rows> EvalSearchWithInputs(
      const std::vector<term::TermList>& conjuncts_at,
      const term::TermList& projections,
      const std::vector<const Rows*>& inputs);
  Result<Rows> EvalUnion(const term::TermRef& t, const FixEnv& env);
  Result<Rows> EvalSetOp(const term::TermRef& t, const FixEnv& env);
  Result<Rows> EvalNest(const term::TermRef& t, const FixEnv& env);
  Result<Rows> EvalUnnest(const term::TermRef& t, const FixEnv& env);

  // fixpoint_eval.cc
  Result<Rows> EvalFix(const term::TermRef& t, const FixEnv& env);

  // vec/vec_exec.cc — the vectorized engine, with the row engine's
  // arguments plus the stored inputs' batches.
  Result<Rows> EvalSearchWithInputsVec(
      const std::vector<term::TermList>& conjuncts_at,
      const term::TermList& projections,
      const std::vector<const Rows*>& inputs,
      const std::vector<const vec::Batch*>& batches);
  // Sorted set-semantics dedup: vectorized hash grouping when profitable,
  // DedupRows otherwise; output identical either way.
  void DedupMaybeVec(Rows* rows);

  EvalContext MakeExprContext() const;

  const catalog::Catalog* catalog_;
  const Database* db_;
  ExecOptions options_;
  ExecStats stats_;
  std::map<const vec::Batch*, Rows> stored_rows_;  // see StoredRows()
};

// Sorts rows lexicographically and removes duplicates (set semantics).
void DedupRows(Rows* rows);

// Lexicographic row comparison consistent with value::Compare.
int CompareRows(const Row& a, const Row& b);

}  // namespace eds::exec

#endif  // EDS_EXEC_EXECUTOR_H_
