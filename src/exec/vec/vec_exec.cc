#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "exec/executor.h"
#include "exec/vec/kernels.h"
#include "exec/vec/vec_eval.h"
#include "lera/lera.h"

// Vectorized implementations of the executor's relational operators.
// Contract with the row path: results (rows, values, ordering, errors the
// user sees) are byte-identical. Anything a kernel cannot reproduce —
// ragged intermediates, hash-incompatible join keys, per-row errors,
// output blow-ups past the batch caps — returns a non-OK status and the
// caller reruns the row-path oracle. Only ResourceExhausted (a governor
// trip) is final.

namespace eds::exec {

using term::TermList;
using term::TermRef;
using value::Value;

namespace {

// Pair-count caps: past these a batched join materializes index vectors
// large enough that the row path's streaming loop is the safer choice.
constexpr size_t kMaxCrossPairs = size_t{1} << 22;
constexpr size_t kMaxJoinPairs = size_t{1} << 24;

// Largest input index referenced by an expression (0 if none); mirrors the
// helper in operators.cc.
int64_t MaxInputIndex(const TermRef& expr) {
  std::vector<lera::AttrRef> attrs;
  lera::CollectAttrs(expr, &attrs);
  int64_t max = 0;
  for (const lera::AttrRef& a : attrs) max = std::max(max, a.input);
  return max;
}

struct StageCtx {
  const Database* db = nullptr;
  const value::FunctionLibrary* library = nullptr;
  ExecStats* stats = nullptr;
};

// A frame where input `k` is the only bound input, mapped onto a
// standalone batch (inputs 1..k-1 get zero-width ranges, so a stray
// reference to them errors instead of aliasing the wrong column).
vec::ExprFrame RightFrame(const vec::Batch* batch, size_t k,
                          const StageCtx& sc) {
  vec::ExprFrame frame;
  frame.batch = batch;
  frame.offsets.assign(k, 0);
  frame.offsets.push_back(static_cast<uint32_t>(batch->cols.size()));
  frame.db = sc.db;
  frame.library = sc.library;
  return frame;
}

// One nested-loop level, vectorized: extends the combination batch `left`
// (columns of inputs 1..k-1, rows in lexicographic combination order) with
// input k. `conjuncts` are this level's conjuncts (every one references
// input k and nothing higher). They split into
//   - rhs-only conjuncts (reference input k alone): pre-filter input k;
//   - equi conjuncts (EQ with one side over inputs 1..k-1 and the other
//     over input k, hash-compatible keys): one multi-key hash join;
//   - everything else: residual columnar filters over the joined batch.
// The hash join emits pairs in (left asc, right asc) order, so the
// combined batch stays in exactly the row engine's emission order.
// `offsets` (size k) gains input k's width on return.
Result<vec::Batch> JoinStage(const vec::Batch& left,
                             std::vector<uint32_t>* offsets,
                             const vec::Batch& right, size_t k,
                             const TermList& conjuncts, const StageCtx& sc) {
  TermList rhs_only, residual;
  std::vector<std::array<TermRef, 2>> equi;  // {prev-side, k-side}
  for (const TermRef& c : conjuncts) {
    std::vector<lera::AttrRef> attrs;
    lera::CollectAttrs(c, &attrs);
    bool refs_prev = false;
    for (const lera::AttrRef& a : attrs) {
      if (a.input < static_cast<int64_t>(k)) {
        refs_prev = true;
        break;
      }
    }
    if (!refs_prev) {
      rhs_only.push_back(c);
      continue;
    }
    bool is_equi = false;
    if (c->is_apply() && c->functor() == term::kEq && c->args().size() == 2) {
      auto side = [&](const TermRef& s) {
        std::vector<lera::AttrRef> sa;
        lera::CollectAttrs(s, &sa);
        bool prev = false, cur = false;
        for (const lera::AttrRef& a : sa) {
          if (a.input == static_cast<int64_t>(k)) {
            cur = true;
          } else {
            prev = true;
          }
        }
        return prev ? (cur ? 3 : 1) : (cur ? 2 : 0);
      };
      const int lc = side(c->arg(0)), rc = side(c->arg(1));
      if (lc == 1 && rc == 2) {
        equi.push_back({c->arg(0), c->arg(1)});
        is_equi = true;
      } else if (lc == 2 && rc == 1) {
        equi.push_back({c->arg(1), c->arg(0)});
        is_equi = true;
      }
    }
    if (!is_equi) residual.push_back(c);
  }

  const uint32_t right_width = static_cast<uint32_t>(right.cols.size());
  vec::Batch filtered;
  const vec::Batch* rightp = &right;
  for (const TermRef& c : rhs_only) {
    vec::ExprFrame rf = RightFrame(rightp, k, sc);
    sc.stats->qual_evaluations += rightp->rows;
    EDS_ASSIGN_OR_RETURN(vec::SelectionVector sel,
                         vec::EvalPredicateBatch(c, rf));
    ++sc.stats->batches;
    sc.stats->vec_rows += rightp->rows;
    vec::Batch next = rightp->GatherRows(sel);
    filtered = std::move(next);
    rightp = &filtered;
  }

  vec::JoinPairs pairs;
  if (left.rows != 0 && rightp->rows != 0) {
    std::vector<vec::ColumnPtr> lcols, rcols;
    std::vector<const vec::ColumnVector*> lraw, rraw;
    std::vector<vec::HashClass> classes;
    if (!equi.empty()) {
      vec::ExprFrame lf;
      lf.batch = &left;
      lf.offsets = *offsets;
      lf.db = sc.db;
      lf.library = sc.library;
      vec::ExprFrame rf = RightFrame(rightp, k, sc);
      for (const auto& [prev_side, cur_side] : equi) {
        EDS_ASSIGN_OR_RETURN(vec::ColumnPtr lc,
                             vec::EvalExprBatch(prev_side, lf));
        EDS_ASSIGN_OR_RETURN(vec::ColumnPtr rc,
                             vec::EvalExprBatch(cur_side, rf));
        const vec::HashClass ca = vec::ClassifyKey(*lc);
        const vec::HashClass cb = vec::ClassifyKey(*rc);
        if (!vec::HashCompatible(ca, cb)) {
          // Tuples or mixed-kind keys: compare pairwise instead.
          residual.push_back(term::Term::Apply(
              term::kEq, {prev_side, cur_side}));
          continue;
        }
        // Charged as logical qualification applications — the pairings the
        // row engine would have probed (|left| x |right|) — not the O(n+m)
        // hash-join work, so cost comparisons against the row path (e.g.
        // semi-naive vs naive deltas) stay meaningful.
        sc.stats->qual_evaluations += left.rows * rightp->rows;
        lcols.push_back(lc);
        rcols.push_back(rc);
        lraw.push_back(lc.get());
        rraw.push_back(rc.get());
        classes.push_back(vec::CombineClasses(ca, cb));
      }
    }
    if (!lraw.empty()) {
      EDS_ASSIGN_OR_RETURN(pairs,
                           vec::HashJoin(lraw, rraw, classes, left.rows,
                                         rightp->rows, kMaxJoinPairs));
    } else {
      EDS_ASSIGN_OR_RETURN(
          pairs, vec::CrossPairs(left.rows, rightp->rows, kMaxCrossPairs));
    }
  }
  ++sc.stats->batches;
  sc.stats->vec_rows += pairs.left.size();

  vec::Batch combined;
  combined.rows = pairs.left.size();
  combined.cols.reserve(left.cols.size() + right_width);
  for (const vec::ColumnVector& c : left.cols) {
    combined.cols.push_back(c.Gather(pairs.left));
  }
  for (const vec::ColumnVector& c : rightp->cols) {
    combined.cols.push_back(c.Gather(pairs.right));
  }
  offsets->push_back(offsets->back() + right_width);

  for (const TermRef& c : residual) {
    vec::ExprFrame cf;
    cf.batch = &combined;
    cf.offsets = *offsets;
    cf.db = sc.db;
    cf.library = sc.library;
    sc.stats->qual_evaluations += combined.rows;
    EDS_ASSIGN_OR_RETURN(vec::SelectionVector sel,
                         vec::EvalPredicateBatch(c, cf));
    ++sc.stats->batches;
    sc.stats->vec_rows += combined.rows;
    vec::Batch next = combined.GatherRows(sel);
    combined = std::move(next);
  }
  return combined;
}

}  // namespace

Result<Rows> Executor::SearchWithInputsMaybeVec(
    const term::TermRef& search, std::vector<const Rows*> inputs,
    const std::vector<const vec::Batch*>& batches) {
  if (options_.vectorized) {
    ExecStats saved = stats_;
    Result<Rows> out = EvalSearchWithInputsVec(search, inputs, batches);
    if (out.ok() || out.status().code() == StatusCode::kResourceExhausted) {
      return out;
    }
    stats_ = saved;
    ++stats_.vec_fallbacks;
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] == nullptr) inputs[i] = &StoredRows(batches[i]);
  }
  return EvalSearchWithInputs(search, inputs);
}

Result<Rows> Executor::EvalSearchWithInputsVec(
    const term::TermRef& search, const std::vector<const Rows*>& inputs,
    const std::vector<const vec::Batch*>& batches) {
  EDS_ASSIGN_OR_RETURN(TermRef qual, lera::SearchQual(search));
  EDS_ASSIGN_OR_RETURN(TermList projections, lera::SearchProjections(search));
  const size_t n = inputs.size();
  std::vector<TermList> conjuncts_at(n + 1);
  for (const TermRef& c : term::Conjuncts(qual)) {
    const int64_t level = MaxInputIndex(c);
    if (level < 0 || static_cast<size_t>(level) > n) {
      return Status::RuntimeError("qualification references input beyond " +
                                  std::to_string(n));
    }
    conjuncts_at[static_cast<size_t>(level)].push_back(c);
  }

  // Level-0 conjuncts are input-independent: evaluated once, scalar,
  // exactly as the row path does (including its errors, which are real).
  EvalContext ctx0 = MakeExprContext();
  ctx0.current.assign(n, nullptr);
  for (const TermRef& c : conjuncts_at[0]) {
    ++stats_.qual_evaluations;
    EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(c, &ctx0));
    if (!ok) return Rows{};
  }

  // Columnar images of the inputs: stored tables arrive as their batches,
  // everything else (fixpoint deltas, materialized subtrees) converts here.
  std::vector<vec::Batch> converted(n);
  std::vector<const vec::Batch*> in_batches(n);
  for (size_t i = 0; i < n; ++i) {
    if (batches[i] != nullptr) {
      in_batches[i] = batches[i];
      continue;
    }
    if (!vec::Batch::FromRows(*inputs[i], &converted[i])) {
      return Status::Unsupported("ragged input rows");
    }
    in_batches[i] = &converted[i];
  }
  for (size_t i = 0; i < n; ++i) {
    if (in_batches[i]->rows == 0) return Rows{};
  }

  // The combination batch: starts as the empty prefix (one row, no
  // columns), gains one input per stage.
  vec::Batch acc;
  acc.rows = 1;
  std::vector<uint32_t> offsets{0};
  StageCtx sc{db_, &catalog_->functions(), &stats_};
  for (size_t k = 1; k <= n; ++k) {
    if (options_.guard != nullptr && options_.guard->Check()) {
      return options_.guard->TripStatus();
    }
    EDS_ASSIGN_OR_RETURN(
        acc, JoinStage(acc, &offsets, *in_batches[k - 1], k,
                       conjuncts_at[k], sc));
    if (acc.rows == 0) return Rows{};
  }

  vec::ExprFrame pf;
  pf.batch = &acc;
  pf.offsets = offsets;
  pf.db = db_;
  pf.library = &catalog_->functions();
  std::vector<vec::ColumnPtr> outcols;
  outcols.reserve(projections.size());
  for (const TermRef& p : projections) {
    EDS_ASSIGN_OR_RETURN(vec::ColumnPtr col, vec::EvalExprBatch(p, pf));
    ++stats_.batches;
    stats_.vec_rows += acc.rows;
    outcols.push_back(std::move(col));
  }
  Rows out;
  out.reserve(acc.rows);
  for (size_t r = 0; r < acc.rows; ++r) {
    Row row;
    row.reserve(outcols.size());
    for (const vec::ColumnPtr& col : outcols) row.push_back(col->ValueAt(r));
    out.push_back(std::move(row));
  }
  return out;
}

Result<const vec::Batch*> Executor::ChildBatch(const term::TermRef& t,
                                               const FixEnv& env,
                                               vec::Batch* conv,
                                               bool* borrowed) {
  Borrowed b = TryBorrow(t, env);
  *borrowed = static_cast<bool>(b);
  if (b.batch != nullptr) return b.batch;
  Rows owned;
  if (b.rows == nullptr) {
    EDS_ASSIGN_OR_RETURN(owned, Eval(t, env));
    b.rows = &owned;
  }
  if (!vec::Batch::FromRows(*b.rows, conv)) {
    return Status::Unsupported("ragged input rows");
  }
  return conv;
}

Result<Rows> Executor::EvalFilterVec(const term::TermRef& t,
                                     const FixEnv& env) {
  vec::Batch conv;
  bool borrowed = false;
  EDS_ASSIGN_OR_RETURN(const vec::Batch* tb,
                       ChildBatch(t->arg(0), env, &conv, &borrowed));
  vec::ExprFrame frame;
  frame.batch = tb;
  frame.offsets = {0, static_cast<uint32_t>(tb->cols.size())};
  frame.db = db_;
  frame.library = &catalog_->functions();
  stats_.qual_evaluations += tb->rows;
  EDS_ASSIGN_OR_RETURN(vec::SelectionVector sel,
                       vec::EvalPredicateBatch(t->arg(1), frame));
  ++stats_.batches;
  stats_.vec_rows += tb->rows;
  Rows out = tb->GatherRows(sel).ToRows();
  // The row path charges borrowed children through the child's Eval; the
  // vectorized path charges at the end so a fallback never double-counts.
  if (borrowed && options_.guard != nullptr &&
      options_.guard->AddRows(tb->rows)) {
    return options_.guard->TripStatus();
  }
  return out;
}

Result<Rows> Executor::EvalProjectVec(const term::TermRef& t,
                                      const FixEnv& env) {
  if (!t->arg(1)->IsApply(term::kList)) {
    return Status::InvalidArgument("malformed PROJECT");
  }
  vec::Batch conv;
  bool borrowed = false;
  EDS_ASSIGN_OR_RETURN(const vec::Batch* tb,
                       ChildBatch(t->arg(0), env, &conv, &borrowed));
  const TermList& projections = t->arg(1)->args();
  vec::ExprFrame frame;
  frame.batch = tb;
  frame.offsets = {0, static_cast<uint32_t>(tb->cols.size())};
  frame.db = db_;
  frame.library = &catalog_->functions();
  std::vector<vec::ColumnPtr> cols;
  cols.reserve(projections.size());
  for (const TermRef& p : projections) {
    EDS_ASSIGN_OR_RETURN(vec::ColumnPtr col, vec::EvalExprBatch(p, frame));
    ++stats_.batches;
    stats_.vec_rows += tb->rows;
    cols.push_back(std::move(col));
  }
  Rows out;
  out.reserve(tb->rows);
  for (size_t r = 0; r < tb->rows; ++r) {
    Row row;
    row.reserve(cols.size());
    for (const vec::ColumnPtr& col : cols) row.push_back(col->ValueAt(r));
    out.push_back(std::move(row));
  }
  if (borrowed && options_.guard != nullptr &&
      options_.guard->AddRows(tb->rows)) {
    return options_.guard->TripStatus();
  }
  return out;
}

Result<Rows> Executor::EvalJoinVec(const term::TermRef& t, const FixEnv& env) {
  vec::Batch conv_a, conv_b;
  bool borrowed_a = false, borrowed_b = false;
  EDS_ASSIGN_OR_RETURN(const vec::Batch* ba,
                       ChildBatch(t->arg(0), env, &conv_a, &borrowed_a));
  EDS_ASSIGN_OR_RETURN(const vec::Batch* bb,
                       ChildBatch(t->arg(1), env, &conv_b, &borrowed_b));

  Rows out;
  if (ba->rows != 0 && bb->rows != 0) {
    std::vector<TermList> conjuncts_at(3);
    for (const TermRef& c : term::Conjuncts(t->arg(2))) {
      const int64_t level = MaxInputIndex(c);
      if (level < 0 || level > 2) {
        return Status::RuntimeError(
            "join qualification references input beyond 2");
      }
      conjuncts_at[static_cast<size_t>(level)].push_back(c);
    }
    EvalContext ctx0 = MakeExprContext();
    ctx0.current.assign(2, nullptr);
    bool level0_false = false;
    for (const TermRef& c : conjuncts_at[0]) {
      ++stats_.qual_evaluations;
      EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(c, &ctx0));
      if (!ok) {
        level0_false = true;
        break;
      }
    }
    if (!level0_false) {
      StageCtx sc{db_, &catalog_->functions(), &stats_};
      vec::Batch fa;
      const vec::Batch* leftp = ba;
      for (const TermRef& c : conjuncts_at[1]) {
        vec::ExprFrame lf = RightFrame(leftp, 1, sc);
        stats_.qual_evaluations += leftp->rows;
        EDS_ASSIGN_OR_RETURN(vec::SelectionVector sel,
                             vec::EvalPredicateBatch(c, lf));
        ++stats_.batches;
        stats_.vec_rows += leftp->rows;
        vec::Batch next = leftp->GatherRows(sel);
        fa = std::move(next);
        leftp = &fa;
      }
      std::vector<uint32_t> offsets{0,
                                    static_cast<uint32_t>(ba->cols.size())};
      EDS_ASSIGN_OR_RETURN(
          vec::Batch combined,
          JoinStage(*leftp, &offsets, *bb, 2, conjuncts_at[2], sc));
      out = combined.ToRows();
    }
  }
  const size_t charge =
      (borrowed_a ? ba->rows : 0) + (borrowed_b ? bb->rows : 0);
  if (charge > 0 && options_.guard != nullptr &&
      options_.guard->AddRows(charge)) {
    return options_.guard->TripStatus();
  }
  return out;
}

void Executor::DedupMaybeVec(Rows* rows) {
  const size_t before = rows->size();
  if (options_.vectorized && vec::VecDedupRows(rows, &stats_.batches)) {
    stats_.vec_rows += before;
    return;
  }
  DedupRows(rows);
}

}  // namespace eds::exec
