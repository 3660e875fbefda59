#include "exec/vec/vec_eval.h"

#include <string>
#include <utility>

#include "exec/vec/kernels.h"
#include "lera/lera.h"

namespace eds::exec::vec {

using term::TermRef;
using value::Value;

namespace {

Result<ColumnPtr> EvalAttr(const TermRef& expr, const ExprFrame& frame) {
  EDS_ASSIGN_OR_RETURN(lera::AttrRef a, lera::GetAttr(expr));
  if (a.input < 1 ||
      static_cast<size_t>(a.input) + 1 > frame.offsets.size()) {
    return Status::RuntimeError("ATTR input index out of range");
  }
  const uint32_t lo = frame.offsets[static_cast<size_t>(a.input) - 1];
  const uint32_t hi = frame.offsets[static_cast<size_t>(a.input)];
  if (a.column < 1 || static_cast<uint32_t>(a.column) > hi - lo) {
    return Status::RuntimeError("ATTR column index out of range");
  }
  const ColumnVector* col =
      &frame.batch->cols[lo + static_cast<uint32_t>(a.column) - 1];
  // Aliasing constructor: borrow the batch's column, no copy, no ownership.
  return ColumnPtr(ColumnPtr{}, col);
}

ColumnPtr Broadcast(const Value& v, size_t n) {
  auto col = std::make_shared<ColumnVector>();
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) col->AppendValue(v);
  return col;
}

// Slow lane: evaluate the expression with the scalar evaluator once per
// row, reconstructing each input's current row from the batch columns.
// Costs what the row engine costs, but keeps every expression form on the
// vectorized path with semantics identical by construction.
Result<ColumnPtr> EvalPerRow(const TermRef& expr, const ExprFrame& frame) {
  const size_t n = frame.batch->rows;
  const size_t inputs = frame.offsets.size() - 1;
  std::vector<Row> rows(inputs);
  EvalContext ctx;
  ctx.db = frame.db;
  ctx.library = frame.library;
  ctx.current.resize(inputs);
  for (size_t i = 0; i < inputs; ++i) ctx.current[i] = &rows[i];
  auto out = std::make_shared<ColumnVector>();
  out->Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < inputs; ++i) {
      rows[i].clear();
      for (uint32_t c = frame.offsets[i]; c < frame.offsets[i + 1]; ++c) {
        rows[i].push_back(frame.batch->cols[c].ValueAt(r));
      }
    }
    EDS_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, &ctx));
    out->AppendValue(v);
  }
  return ColumnPtr(std::move(out));
}

bool CmpOpFor(const std::string& f, CmpOp* op) {
  if (f == term::kEq) *op = CmpOp::kEq;
  else if (f == term::kNe) *op = CmpOp::kNe;
  else if (f == term::kLt) *op = CmpOp::kLt;
  else if (f == term::kLe) *op = CmpOp::kLe;
  else if (f == term::kGt) *op = CmpOp::kGt;
  else if (f == term::kGe) *op = CmpOp::kGe;
  else return false;
  return true;
}

// The operator that reads `c op x` as `x Mirror(op) c`.
CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

}  // namespace

Result<ColumnPtr> EvalExprBatch(const TermRef& expr, const ExprFrame& frame) {
  if (expr->is_constant()) {
    return Broadcast(expr->constant(), frame.batch->rows);
  }
  if (lera::IsAttr(expr)) return EvalAttr(expr, frame);
  if (expr->is_apply()) {
    const std::string& f = expr->functor();
    CmpOp op;
    if (CmpOpFor(f, &op) && expr->args().size() == 2) {
      // One constant operand is compared in place, not broadcast to a
      // column as long as the batch.
      const TermRef& lhs = expr->arg(0);
      const TermRef& rhs = expr->arg(1);
      if (lhs->is_constant() != rhs->is_constant()) {
        const bool constant_left = lhs->is_constant();
        EDS_ASSIGN_OR_RETURN(
            ColumnPtr col, EvalExprBatch(constant_left ? rhs : lhs, frame));
        return ColumnPtr(std::make_shared<ColumnVector>(CompareColumnToValue(
            constant_left ? Mirror(op) : op, *col,
            (constant_left ? lhs : rhs)->constant())));
      }
      EDS_ASSIGN_OR_RETURN(ColumnPtr a, EvalExprBatch(expr->arg(0), frame));
      EDS_ASSIGN_OR_RETURN(ColumnPtr b, EvalExprBatch(expr->arg(1), frame));
      return ColumnPtr(
          std::make_shared<ColumnVector>(CompareColumns(op, *a, *b)));
    }
    if ((f == term::kAnd || f == term::kOr) && expr->args().size() >= 2) {
      EDS_ASSIGN_OR_RETURN(ColumnPtr acc, EvalExprBatch(expr->arg(0), frame));
      for (size_t i = 1; i < expr->args().size(); ++i) {
        EDS_ASSIGN_OR_RETURN(ColumnPtr next,
                             EvalExprBatch(expr->arg(i), frame));
        Result<ColumnVector> combined = f == term::kAnd
                                            ? AndColumns(*acc, *next)
                                            : OrColumns(*acc, *next);
        EDS_RETURN_IF_ERROR(combined.status());
        acc = std::make_shared<ColumnVector>(std::move(*combined));
      }
      return acc;
    }
    if (f == term::kNot && expr->args().size() == 1) {
      EDS_ASSIGN_OR_RETURN(ColumnPtr a, EvalExprBatch(expr->arg(0), frame));
      EDS_ASSIGN_OR_RETURN(ColumnVector negated, NotColumn(*a));
      return ColumnPtr(std::make_shared<ColumnVector>(std::move(negated)));
    }
  }
  return EvalPerRow(expr, frame);
}

Result<SelectionVector> EvalPredicateBatch(const TermRef& qual,
                                           const ExprFrame& frame) {
  EDS_ASSIGN_OR_RETURN(ColumnPtr pred, EvalExprBatch(qual, frame));
  return SelectTrue(*pred);
}

}  // namespace eds::exec::vec
