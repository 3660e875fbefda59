#include "exec/vec/vec_eval.h"

#include <algorithm>
#include <string>
#include <utility>

#include "exec/vec/kernels.h"
#include "lera/lera.h"

namespace eds::exec::vec {

using term::TermList;
using term::TermRef;
using value::Value;

namespace {

// An evaluation of `n` frame rows that cannot go on past its first: no
// cells, and the error unless there is no row to fail on.
FrameColumn Failed(Status error, size_t n) {
  FrameColumn out;
  out.col = std::make_shared<ColumnVector>();
  if (n > 0) out.error = std::move(error);
  return out;
}

FrameColumn EvalAttr(const TermRef& expr, const ExprFrame& frame) {
  Result<lera::AttrRef> a = lera::GetAttr(expr);
  if (!a.ok()) return Failed(a.status(), frame.rows());
  if (a->input < 1 ||
      static_cast<size_t>(a->input) + 1 > frame.offsets.size()) {
    return Failed(Status::RuntimeError("ATTR input out of range: " +
                                       expr->ToString()),
                  frame.rows());
  }
  const uint32_t lo = frame.offsets[static_cast<size_t>(a->input) - 1];
  const uint32_t hi = frame.offsets[static_cast<size_t>(a->input)];
  if (a->column < 1 || static_cast<uint32_t>(a->column) > hi - lo) {
    return Failed(Status::RuntimeError("ATTR column out of range: " +
                                       expr->ToString()),
                  frame.rows());
  }
  const ColumnVector* col =
      &frame.batch->cols[lo + static_cast<uint32_t>(a->column) - 1];
  // Aliasing constructor: borrow the batch's column, no copy, no ownership.
  return {ColumnPtr(ColumnPtr{}, col), frame.sel, frame.rows(), Status()};
}

FrameColumn Computed(ColumnVector col, Status error = Status::OK()) {
  const size_t rows = col.size();
  return {std::make_shared<ColumnVector>(std::move(col)), nullptr, rows,
          std::move(error)};
}

FrameColumn Broadcast(const Value& v, size_t n) {
  ColumnVector col;
  col.Reserve(n);
  for (size_t i = 0; i < n; ++i) col.AppendValue(v);
  return Computed(std::move(col));
}

// Slow lane: evaluate the expression with the scalar evaluator once per
// row, reconstructing each input's current row from the batch columns.
// Costs what a row-at-a-time engine costs, but keeps every expression form
// on the batch path with semantics identical by construction.
FrameColumn EvalPerRow(const TermRef& expr, const ExprFrame& frame) {
  const size_t n = frame.rows();
  const size_t inputs = frame.offsets.size() - 1;
  std::vector<Row> rows(inputs);
  EvalContext ctx;
  ctx.db = frame.db;
  ctx.library = frame.library;
  ctx.current.resize(inputs);
  for (size_t i = 0; i < inputs; ++i) ctx.current[i] = &rows[i];
  ColumnVector out;
  out.Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    const size_t b = frame.sel != nullptr ? (*frame.sel)[r] : r;
    for (size_t i = 0; i < inputs; ++i) {
      rows[i].clear();
      for (uint32_t c = frame.offsets[i]; c < frame.offsets[i + 1]; ++c) {
        rows[i].push_back(frame.batch->cols[c].ValueAt(b));
      }
    }
    Result<Value> v = EvalExpr(expr, &ctx);
    if (!v.ok()) return Computed(std::move(out), v.status());
    out.AppendValue(*v);
  }
  return Computed(std::move(out));
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
FrameColumn EvalConnective(Connective op, const TermRef& expr,
                           const ExprFrame& frame) {
  const FrameColumn a = EvalExprBatch(expr->arg(0), frame);
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
    b = EvalExprBatch(expr->arg(1), sub);
  }
  // The right operand failing on an undecided row fails before the left
  // one does.
  size_t cut = a.rows;
  Status error = a.error;
  if (b.rows < undecided.size()) {
    cut = undecided[b.rows];
    error = b.error;
  }
  ColumnVector out = Connect(op, a.view().Prefix(cut), b.view());
  if (out.size() < cut) {
    error = Status::TypeError(op == Connective::kAnd
                                  ? "AND over non-boolean operands"
                                  : "OR over non-boolean operands");
  }
  return Computed(std::move(out), std::move(error));
}

}  // namespace

FrameColumn EvalExprBatch(const TermRef& expr, const ExprFrame& frame) {
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
        FrameColumn col = EvalExprBatch(constant_left ? rhs : lhs, frame);
        return Computed(CompareColumnToValue(
                            constant_left ? Mirror(op) : op, col.view(),
                            (constant_left ? lhs : rhs)->constant()),
                        std::move(col.error));
      }
      const FrameColumn a = EvalExprBatch(lhs, frame);
      const FrameColumn b = EvalExprBatch(rhs, frame);
      const FrameColumn& first = b.rows < a.rows ? b : a;
      return Computed(CompareColumns(op, a.view().Prefix(first.rows),
                                     b.view().Prefix(first.rows)),
                      first.error);
    }
    // Binary only: the scalar evaluator short-circuits AND/OR of two
    // operands, and anything wider goes through the function library.
    if ((f == term::kAnd || f == term::kOr) && expr->args().size() == 2) {
      return EvalConnective(
          f == term::kAnd ? Connective::kAnd : Connective::kOr, expr, frame);
    }
    if (f == term::kNot && expr->args().size() == 1) {
      FrameColumn a = EvalExprBatch(expr->arg(0), frame);
      ColumnVector negated = NotColumn(a.view());
      if (negated.size() < a.rows) {
        a.error = Status::TypeError("NOT: boolean operand required");
      }
      return Computed(std::move(negated), std::move(a.error));
    }
  }
  return EvalPerRow(expr, frame);
}

FrameSelection EvalPredicateBatch(const TermRef& qual,
                                  const ExprFrame& frame) {
  // A comparison with one constant operand selects in place, without a
  // predicate column as long as the frame.
  CmpOp op;
  if (qual->is_apply() && CmpOpFor(qual->functor(), &op) &&
      qual->args().size() == 2 &&
      qual->arg(0)->is_constant() != qual->arg(1)->is_constant()) {
    const bool constant_left = qual->arg(0)->is_constant();
    FrameColumn col = EvalExprBatch(qual->arg(constant_left ? 1 : 0), frame);
    return {SelectCompareToValue(constant_left ? Mirror(op) : op, col.view(),
                                 qual->arg(constant_left ? 0 : 1)->constant()),
            col.rows, std::move(col.error)};
  }
  FrameColumn pred = EvalExprBatch(qual, frame);
  FrameSelection out;
  out.rows = SelectTrue(pred.view(), &out.evaluated);
  out.error = std::move(pred.error);
  if (out.evaluated < pred.rows) {
    out.error = Status::TypeError(
        "qualification did not evaluate to a boolean: " + qual->ToString());
  }
  return out;
}

namespace {

bool IsComparison(const TermRef& t) {
  CmpOp op;
  return t->is_apply() && t->args().size() == 2 && CmpOpFor(t->functor(), &op);
}

// True when evaluating `expr` raises no error on any row: constants,
// attributes within the inputs' widths (`offsets`, as in ExprFrame), and
// comparisons of those (value::Compare is total).
bool CannotFail(const TermRef& expr, const std::vector<uint32_t>& offsets) {
  if (expr->is_constant()) return true;
  if (lera::IsAttr(expr)) {
    Result<lera::AttrRef> a = lera::GetAttr(expr);
    return a.ok() && a->input >= 1 &&
           static_cast<size_t>(a->input) < offsets.size() && a->column >= 1 &&
           static_cast<uint32_t>(a->column) <=
               offsets[static_cast<size_t>(a->input)] -
                   offsets[static_cast<size_t>(a->input) - 1];
  }
  return IsComparison(expr) && CannotFail(expr->arg(0), offsets) &&
         CannotFail(expr->arg(1), offsets);
}

// The same for a qualification, which must also come out boolean or NULL.
bool PredicateCannotFail(const TermRef& c,
                         const std::vector<uint32_t>& offsets) {
  if (c->is_constant()) {
    return c->constant().is_null() ||
           c->constant().kind() == value::ValueKind::kBool;
  }
  if (IsComparison(c)) return CannotFail(c, offsets);
  const bool connective =
      ((c->IsApply(term::kAnd) || c->IsApply(term::kOr)) &&
       c->args().size() == 2) ||
      (c->IsApply(term::kNot) && c->args().size() == 1);
  if (!connective) return false;
  for (const TermRef& a : c->args()) {
    if (!PredicateCannotFail(a, offsets)) return false;
  }
  return true;
}

// A comparison of an attribute with a constant, such as the selections
// the rewriter pushes down: it selects in place, at the cost of its
// survivors only.
bool IsConstantSelection(const TermRef& c) {
  return IsComparison(c) &&
         ((c->arg(0)->is_constant() && lera::IsAttr(c->arg(1))) ||
          (lera::IsAttr(c->arg(0)) && c->arg(1)->is_constant()));
}

}  // namespace

// A right-only conjunct runs before the join when the level has no hash
// key or when it is a constant selection; any other runs after the join,
// so it sees only right rows with a join partner. An equi-conjunct whose
// sides cannot fail is a hash key. The nested loop runs a level's
// conjuncts in the order written, each on the combinations the earlier
// ones kept; moving a conjunct ahead of another changes which
// combinations the later-written one sees, which is harmless only when
// neither can fail. So a conjunct that would break that takes the place
// after the join.
LevelPlan PlanLevel(const TermList& conjuncts,
                    const std::vector<uint32_t>& offsets) {
  enum Slot { kBefore, kKey, kAfter };
  const int64_t k = static_cast<int64_t>(offsets.size()) - 1;
  // 1: only inputs before k, 2: only input k, 3: both, 0: neither.
  auto reach = [k](const TermRef& t) {
    std::vector<lera::AttrRef> attrs;
    lera::CollectAttrs(t, &attrs);
    int mask = 0;
    for (const lera::AttrRef& a : attrs) mask |= a.input == k ? 2 : 1;
    return mask;
  };
  const size_t n = conjuncts.size();
  std::vector<Slot> want(n, kAfter);
  std::vector<std::array<TermRef, 2>> sides(n);
  bool any_key = false;
  for (size_t i = 0; i < n; ++i) {
    const TermRef& c = conjuncts[i];
    if ((reach(c) & 1) == 0) {
      want[i] = kBefore;  // right-only; settled below
      continue;
    }
    if (!c->IsApply(term::kEq) || c->args().size() != 2 ||
        !CannotFail(c, offsets)) {
      continue;
    }
    const int l = reach(c->arg(0)), r = reach(c->arg(1));
    if (l == 1 && r == 2) {
      sides[i] = {c->arg(0), c->arg(1)};
    } else if (l == 2 && r == 1) {
      sides[i] = {c->arg(1), c->arg(0)};
    } else {
      continue;
    }
    want[i] = kKey;
    any_key = true;
  }
  LevelPlan plan;
  Slot latest = kBefore;          // of any conjunct so far
  Slot latest_failing = kBefore;  // of one that can fail
  for (size_t i = 0; i < n; ++i) {
    const TermRef& c = conjuncts[i];
    const bool can_fail = !PredicateCannotFail(c, offsets);
    Slot slot = want[i];
    if (slot == kBefore && any_key && !IsConstantSelection(c)) slot = kAfter;
    if (slot < (can_fail ? latest : latest_failing)) slot = kAfter;
    switch (slot) {
      case kBefore: plan.before.push_back(c); break;
      case kKey: plan.equi.push_back(sides[i]); break;
      case kAfter: plan.after.push_back(c); break;
    }
    latest = std::max(latest, slot);
    if (can_fail) latest_failing = std::max(latest_failing, slot);
  }
  return plan;
}

}  // namespace eds::exec::vec
