#ifndef EDS_EXEC_VEC_VEC_EVAL_H_
#define EDS_EXEC_VEC_VEC_EVAL_H_

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
// selection. `->` reaches the column itself.
struct FrameColumn {
  ColumnPtr col;
  const SelectionVector* sel = nullptr;

  ColumnView view() const { return {col.get(), sel}; }
  const ColumnVector* operator->() const { return col.get(); }
};

// Evaluates a scalar expression over every row of the frame. Comparisons
// and AND/OR/NOT run as columnar kernels over views; constants broadcast;
// everything else (FIELD, VALUE, quantifiers, function calls, collection
// literals) evaluates per row through the scalar EvalExpr, so semantics
// cannot drift. AND and OR evaluate their right operand only on the rows
// their left operand leaves undecided, as the scalar evaluator does, so a
// batched qualification raises an error only where the scalar one would.
// Errors make the calling operator fall back to the row path, which
// reproduces the precise per-row diagnostic.
Result<FrameColumn> EvalExprBatch(const term::TermRef& expr,
                                  const ExprFrame& frame);

// Qualification semantics over the frame: the frame rows (positions, not
// batch rows) whose predicate is a valid TRUE (NULL counts as false,
// non-boolean is a TypeError), ascending.
Result<SelectionVector> EvalPredicateBatch(const term::TermRef& qual,
                                           const ExprFrame& frame);

}  // namespace eds::exec::vec

#endif  // EDS_EXEC_VEC_VEC_EVAL_H_
