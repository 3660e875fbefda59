#include "exec/vec/vec_eval.h"

#include <string>
#include <utility>

#include "exec/vec/kernels.h"
#include "lera/lera.h"

namespace eds::exec::vec {

using term::TermRef;
using value::Value;

namespace {

Result<FrameColumn> EvalAttr(const TermRef& expr, const ExprFrame& frame) {
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
  return FrameColumn{ColumnPtr(ColumnPtr{}, col), frame.sel};
}

FrameColumn Broadcast(const Value& v, size_t n) {
  auto col = std::make_shared<ColumnVector>();
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) col->AppendValue(v);
  return {std::move(col)};
}

FrameColumn Computed(ColumnVector col) {
  return {std::make_shared<ColumnVector>(std::move(col))};
}

// Slow lane: evaluate the expression with the scalar evaluator once per
// row, reconstructing each input's current row from the batch columns.
// Costs what the row engine costs, but keeps every expression form on the
// vectorized path with semantics identical by construction.
Result<FrameColumn> EvalPerRow(const TermRef& expr, const ExprFrame& frame) {
  const size_t n = frame.rows();
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
    const size_t b = frame.sel != nullptr ? (*frame.sel)[r] : r;
    for (size_t i = 0; i < inputs; ++i) {
      rows[i].clear();
      for (uint32_t c = frame.offsets[i]; c < frame.offsets[i + 1]; ++c) {
        rows[i].push_back(frame.batch->cols[c].ValueAt(b));
      }
    }
    EDS_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, &ctx));
    out->AppendValue(v);
  }
  return FrameColumn{std::move(out)};
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

// AND/OR of the frame's rows: the right operand runs on the rows the left
// one leaves undecided, over a frame narrowed to them (the whole frame
// when the left one decided none, no frame when it decided all).
Result<FrameColumn> EvalConnective(Connective op, const TermRef& expr,
                                   const ExprFrame& frame) {
  EDS_ASSIGN_OR_RETURN(FrameColumn a, EvalExprBatch(expr->arg(0), frame));
  const SelectionVector undecided = UndecidedRows(op, a.view());
  SelectionVector narrowed;  // batch row sel[u] of each undecided u
  FrameColumn b;
  if (!undecided.empty()) {
    ExprFrame sub = frame;
    if (undecided.size() < frame.rows()) {
      if (frame.sel != nullptr) {
        narrowed.reserve(undecided.size());
        for (uint32_t u : undecided) narrowed.push_back((*frame.sel)[u]);
        sub.sel = &narrowed;
      } else {
        sub.sel = &undecided;
      }
    }
    EDS_ASSIGN_OR_RETURN(b, EvalExprBatch(expr->arg(1), sub));
  }
  EDS_ASSIGN_OR_RETURN(ColumnVector out, Connect(op, a.view(), b.view()));
  return Computed(std::move(out));
}

}  // namespace

Result<FrameColumn> EvalExprBatch(const TermRef& expr,
                                  const ExprFrame& frame) {
  if (expr->is_constant()) {
    return Broadcast(expr->constant(), frame.rows());
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
            FrameColumn col, EvalExprBatch(constant_left ? rhs : lhs, frame));
        return Computed(CompareColumnToValue(
            constant_left ? Mirror(op) : op, col.view(),
            (constant_left ? lhs : rhs)->constant()));
      }
      EDS_ASSIGN_OR_RETURN(FrameColumn a, EvalExprBatch(lhs, frame));
      EDS_ASSIGN_OR_RETURN(FrameColumn b, EvalExprBatch(rhs, frame));
      return Computed(CompareColumns(op, a.view(), b.view()));
    }
    // Binary only: the scalar evaluator short-circuits AND/OR of two
    // operands, and anything wider goes through the function library.
    if ((f == term::kAnd || f == term::kOr) && expr->args().size() == 2) {
      return EvalConnective(
          f == term::kAnd ? Connective::kAnd : Connective::kOr, expr, frame);
    }
    if (f == term::kNot && expr->args().size() == 1) {
      EDS_ASSIGN_OR_RETURN(FrameColumn a, EvalExprBatch(expr->arg(0), frame));
      EDS_ASSIGN_OR_RETURN(ColumnVector negated, NotColumn(a.view()));
      return Computed(std::move(negated));
    }
  }
  return EvalPerRow(expr, frame);
}

Result<SelectionVector> EvalPredicateBatch(const TermRef& qual,
                                           const ExprFrame& frame) {
  // A comparison with one constant operand selects in place, without a
  // predicate column as long as the frame.
  CmpOp op;
  if (qual->is_apply() && CmpOpFor(qual->functor(), &op) &&
      qual->args().size() == 2 &&
      qual->arg(0)->is_constant() != qual->arg(1)->is_constant()) {
    const bool constant_left = qual->arg(0)->is_constant();
    EDS_ASSIGN_OR_RETURN(
        FrameColumn col,
        EvalExprBatch(qual->arg(constant_left ? 1 : 0), frame));
    return SelectCompareToValue(constant_left ? Mirror(op) : op, col.view(),
                                qual->arg(constant_left ? 0 : 1)->constant());
  }
  EDS_ASSIGN_OR_RETURN(FrameColumn pred, EvalExprBatch(qual, frame));
  return SelectTrue(pred.view());
}

}  // namespace eds::exec::vec
