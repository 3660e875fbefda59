#ifndef EDS_EXEC_VEC_VEC_EVAL_H_
#define EDS_EXEC_VEC_VEC_EVAL_H_

#include <array>
#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/expr_eval.h"
#include "exec/vec/column.h"
#include "term/term.h"

namespace eds::exec::vec {

// Shared so ATTR references can alias a batch column without copying it.
using ColumnPtr = std::shared_ptr<const ColumnVector>;

// Batch evaluation context: one combined batch whose columns are the
// concatenated columns of the operator's bound inputs, read through an
// optional selection. Input i (1-based) owns columns [offsets[i-1],
// offsets[i]), so ATTR(i, j) resolves to column offsets[i-1] + j - 1. Row
// r of the frame is batch row (*sel)[r], or batch row r when `sel` is
// null: a filter narrows the selection instead of copying the rows that
// pass.
struct ExprFrame {
  const Batch* batch = nullptr;
  std::vector<uint32_t> offsets;  // size = bound inputs + 1; offsets[0] == 0
  const SelectionVector* sel = nullptr;
  const Database* db = nullptr;
  const value::FunctionLibrary* library = nullptr;

  size_t rows() const { return sel != nullptr ? sel->size() : batch->rows; }
};

// An expression's value over a frame, one cell per frame row: an ATTR is
// the frame's own column read through the frame's selection (no copy);
// anything computed is a column of exactly the frame's rows, with no
// selection. `->` reaches the column itself. An evaluation that fails on a
// row keeps the rows before it: `rows` is then short of the frame's and
// `error` is the scalar evaluator's error for frame row `rows`.
struct FrameColumn {
  ColumnPtr col;
  const SelectionVector* sel = nullptr;
  size_t rows = 0;
  Status error;

  ColumnView view() const { return {col.get(), sel, rows}; }
  const ColumnVector* operator->() const { return col.get(); }
};

// Evaluates a scalar expression over the rows of the frame. Comparisons
// and AND/OR/NOT run as columnar kernels over views; constants broadcast;
// everything else (FIELD, VALUE, quantifiers, function calls, collection
// literals) evaluates per row through the scalar EvalExpr, so semantics
// cannot drift. AND and OR evaluate their right operand only on the rows
// their left operand leaves undecided, as the scalar evaluator does. The
// result stops at the first row on which the scalar evaluator fails, with
// its error: the operands of an operator are evaluated over every row, and
// the operator keeps the rows before the earliest failure among them (the
// first operand's on a tie, as it runs first).
FrameColumn EvalExprBatch(const term::TermRef& expr, const ExprFrame& frame);

// Qualification semantics over the frame: `rows` are the frame rows
// (positions, not batch rows) whose predicate is a valid TRUE (NULL counts
// as false), ascending, among the first `evaluated`; when that is short of
// the frame's rows, frame row `evaluated` failed with `error` (a
// non-boolean result is EvalPredicate's TypeError).
struct FrameSelection {
  SelectionVector rows;
  size_t evaluated = 0;
  Status error;
};
FrameSelection EvalPredicateBatch(const term::TermRef& qual,
                                  const ExprFrame& frame);

// How one join level of a SEARCH applies its conjuncts: `before` narrows
// the new input alone, `equi` ({earlier-inputs side, new-input side}
// pairs) are the hash join's keys, and `after` runs over the joined
// combinations, each list in the order written.
struct LevelPlan {
  term::TermList before;
  std::vector<std::array<term::TermRef, 2>> equi;
  term::TermList after;
};
// The plan of level k, whose `conjuncts` reference input k and possibly
// inputs before it; `offsets` (size k + 1) are the inputs' column offsets,
// as in ExprFrame. One that can fail never runs in an earlier place than a
// conjunct written before it, nor any in an earlier place than one written
// before it that can fail, so every conjunct that can fail sees exactly
// the combinations it sees in the nested loop (docs/executor.md).
LevelPlan PlanLevel(const term::TermList& conjuncts,
                    const std::vector<uint32_t>& offsets);

}  // namespace eds::exec::vec

#endif  // EDS_EXEC_VEC_VEC_EVAL_H_
