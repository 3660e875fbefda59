#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "exec/executor.h"
#include "exec/vec/kernels.h"
#include "exec/vec/vec_eval.h"
#include "lera/lera.h"

// The SEARCH engine, which FILTER, PROJECT and JOIN run through as well.
// It gives what the nested loop over its inputs gives: the same rows in
// the same order, or the error the nested loop meets first. Every input
// arrives as a batch: a stored table's, a fixpoint's total or delta, or a
// derived input's.

namespace eds::exec {

using term::TermList;
using term::TermRef;

namespace {

// Pair-count caps: a join stage whose pairs would pass these joins its
// left combinations a slice at a time.
constexpr size_t kMaxCrossPairs = size_t{1} << 22;
constexpr size_t kMaxJoinPairs = size_t{1} << 24;

struct StageCtx {
  const Database* db = nullptr;
  const value::FunctionLibrary* library = nullptr;
  ExecStats* stats = nullptr;
  // The first error the nested loop meets among the combinations
  // evaluated so far. A failure drops the combination it failed on and
  // every later one, so a failure among those left comes before it and
  // replaces it.
  Status* pending = nullptr;
};

// The rows of `batch` that the conjuncts applied so far kept: `rows`
// (ascending) when `all` is false, every row of the batch otherwise. A
// join stage's result owns the combined batch it gathered.
struct Kept {
  const vec::Batch* batch = nullptr;
  std::unique_ptr<vec::Batch> owned;
  vec::SelectionVector rows;
  bool all = true;

  size_t size() const { return all ? batch->rows : rows.size(); }
  const vec::SelectionVector* sel() const { return all ? nullptr : &rows; }
  // The batch row of kept position p.
  uint32_t Row(size_t p) const {
    return all ? static_cast<uint32_t>(p) : rows[p];
  }
  // Keeps only positions `keep` (ascending) of the rows kept so far.
  void Narrow(vec::SelectionVector keep) {
    if (keep.size() == size()) return;
    if (all) {
      rows = std::move(keep);
      all = false;
      return;
    }
    // keep[p] >= p, so composing in place never overwrites a row still
    // to be read.
    for (size_t p = 0; p < keep.size(); ++p) rows[p] = rows[keep[p]];
    rows.resize(keep.size());
  }
};

vec::ExprFrame FrameOver(const Kept& kept, std::vector<uint32_t> offsets,
                         const StageCtx& sc) {
  vec::ExprFrame frame;
  frame.batch = kept.batch;
  frame.offsets = std::move(offsets);
  frame.sel = kept.sel();
  frame.db = sc.db;
  frame.library = sc.library;
  return frame;
}

// Offsets where input k is the only bound input, mapped onto its own
// batch (inputs 1..k-1 get zero-width ranges, so a stray reference to
// them errors instead of aliasing the wrong column).
std::vector<uint32_t> AloneOffsets(const vec::Batch& batch, size_t k) {
  std::vector<uint32_t> offsets(k, 0);
  offsets.push_back(static_cast<uint32_t>(batch.cols.size()));
  return offsets;
}

// Narrows `kept` by each conjunct in turn; each one runs only on the rows
// the ones before it kept, as in the nested loop, and one that fails on a
// row keeps only the rows before it. True when one failed.
bool Filter(const TermList& conjuncts, const std::vector<uint32_t>& offsets,
            Kept* kept, const StageCtx& sc) {
  bool failed = false;
  for (const TermRef& c : conjuncts) {
    const size_t n = kept->size();
    if (n == 0) break;
    sc.stats->qual_evaluations += n;
    vec::FrameSelection pass =
        vec::EvalPredicateBatch(c, FrameOver(*kept, offsets, sc));
    ++sc.stats->batches;
    sc.stats->vec_rows += n;
    if (!pass.error.ok()) {
      *sc.pending = std::move(pass.error);
      failed = true;
    }
    kept->Narrow(std::move(pass.rows));
  }
  return failed;
}

// Rows [lo, hi) of `v`, read through `sel`.
vec::ColumnView Slice(const vec::ColumnView& v, size_t lo, size_t hi,
                      vec::SelectionVector* sel) {
  for (size_t i = lo; i < hi; ++i) sel->push_back(static_cast<uint32_t>(v[i]));
  return {v.col, sel, hi - lo};
}

// One nested-loop level: joins the combinations kept so far (`left`, whose
// batch holds inputs 1..k-1 at `offsets`) with input k. `conjuncts` are
// this level's conjuncts (every one references input k and nothing
// higher), applied as vec::PlanLevel says: the hash join pairs the rows
// that the before-join conjuncts kept of input k with `left`; a level
// without hash keys pairs every kept row with every one. The join emits
// pairs in (left asc, right asc) order, the nested loop's order. The
// after-join conjuncts run over a batch gathered for the columns they
// read, and the result gathers, at the combinations they keep, the
// columns `later` (what later levels and the projection read) reads. Past
// the pair caps the left combinations are joined a slice at a time, in
// order. `offsets` (size k) gains input k's width on return.
Kept JoinStage(Kept left, std::vector<uint32_t>* offsets,
               const vec::Batch& right, size_t k, const TermList& conjuncts,
               const std::vector<lera::AttrRef>& later, const StageCtx& sc) {
  const std::vector<uint32_t> left_offsets = *offsets;
  const uint32_t left_width = offsets->back();
  offsets->push_back(left_width + static_cast<uint32_t>(right.cols.size()));
  const vec::LevelPlan plan = vec::PlanLevel(conjuncts, *offsets);
  Kept kept_right;
  kept_right.batch = &right;
  // A before-join conjunct runs first with the first left combination,
  // so that is the one a failure there keeps.
  if (Filter(plan.before, AloneOffsets(right, k), &kept_right, sc)) {
    left.Narrow({0});
  }

  std::vector<vec::FrameColumn> keys;  // owns computed key columns
  std::vector<vec::ColumnView> lkeys, rkeys;
  if (left.size() != 0 && kept_right.size() != 0) {
    const vec::ExprFrame lf = FrameOver(left, left_offsets, sc);
    const vec::ExprFrame rf =
        FrameOver(kept_right, AloneOffsets(right, k), sc);
    for (const auto& [prev_side, cur_side] : plan.equi) {
      keys.push_back(vec::EvalExprBatch(prev_side, lf));
      lkeys.push_back(keys.back().view());
      keys.push_back(vec::EvalExprBatch(cur_side, rf));
      rkeys.push_back(keys.back().view());
    }
  }
  // Each key is charged as logical qualification applications — the
  // pairings a nested loop would probe (|left| x |right|) — not the O(n+m)
  // hash-join work, so cost comparisons (e.g. semi-naive vs naive deltas)
  // stay meaningful.
  sc.stats->qual_evaluations +=
      plan.equi.size() * left.size() * kept_right.size();

  const uint32_t width = offsets->back();
  auto needed = [&](const std::vector<lera::AttrRef>& attrs) {
    std::vector<bool> out(width, false);
    for (const lera::AttrRef& a : attrs) {
      if (a.input < 1 || a.input > static_cast<int64_t>(k)) continue;
      const uint32_t lo = (*offsets)[static_cast<size_t>(a.input) - 1];
      const uint32_t hi = (*offsets)[static_cast<size_t>(a.input)];
      if (a.column >= 1 && a.column <= static_cast<int64_t>(hi - lo)) {
        out[lo + static_cast<uint32_t>(a.column) - 1] = true;
      }
    }
    return out;
  };
  // The combined batch at `pairs` (batch rows of both sides) holding the
  // columns `cols` marks; the others stay empty and are never read.
  auto combine = [&](const vec::JoinPairs& pairs,
                     const std::vector<bool>& cols) {
    Kept out;
    out.owned = std::make_unique<vec::Batch>();
    out.owned->rows = pairs.left.size();
    out.owned->cols.resize(width);
    for (uint32_t c = 0; c < width; ++c) {
      if (!cols[c]) continue;
      out.owned->cols[c] =
          c < left_width ? left.batch->cols[c].Gather(pairs.left)
                         : right.cols[c - left_width].Gather(pairs.right);
    }
    out.batch = out.owned.get();
    return out;
  };
  std::vector<lera::AttrRef> filter_attrs;
  for (const TermRef& c : plan.after) lera::CollectAttrs(c, &filter_attrs);
  const std::vector<bool> filter_cols = needed(filter_attrs);

  vec::JoinPairs kept_pairs;  // the combinations kept, as batch rows
  size_t step = left.size();
  bool failed = false;
  for (size_t lo = 0; lo < left.size() && kept_right.size() != 0 && !failed;) {
    const size_t hi = std::min(left.size(), lo + step);
    vec::JoinPairs pairs;
    bool fits;
    if (lkeys.empty()) {
      fits = vec::CrossPairs(hi - lo, kept_right.size(),
                             hi - lo > 1 ? kMaxCrossPairs : SIZE_MAX, &pairs);
    } else {
      std::vector<vec::ColumnView> slice = lkeys;
      std::vector<vec::SelectionVector> sels(lkeys.size());
      for (size_t j = 0; j < lkeys.size() && hi - lo < left.size(); ++j) {
        slice[j] = Slice(lkeys[j], lo, hi, &sels[j]);
      }
      fits = vec::HashJoin(slice, rkeys,
                           hi - lo > 1 ? kMaxJoinPairs : SIZE_MAX, &pairs);
    }
    if (!fits) {
      step = (hi - lo) / 2;
      continue;
    }
    ++sc.stats->batches;
    sc.stats->vec_rows += pairs.left.size();
    for (uint32_t& l : pairs.left) l = left.Row(lo + l);
    for (uint32_t& r : pairs.right) r = kept_right.Row(r);
    lo = hi;
    if (plan.after.empty() && kept_pairs.left.empty()) {
      kept_pairs = std::move(pairs);
      continue;
    }
    Kept combos = combine(pairs, filter_cols);
    failed = Filter(plan.after, *offsets, &combos, sc);
    for (size_t p = 0; p < combos.size(); ++p) {
      kept_pairs.left.push_back(pairs.left[combos.Row(p)]);
      kept_pairs.right.push_back(pairs.right[combos.Row(p)]);
    }
  }
  return combine(kept_pairs, needed(later));
}

// A batch of one row and no columns: the empty combination a SEARCH
// without inputs projects once.
const vec::Batch& EmptyPrefix() {
  static const vec::Batch prefix{1, {}};
  return prefix;
}

}  // namespace

Result<vec::Batch> Executor::EvalSearchWithInputsVec(
    const std::vector<TermList>& conjuncts_at, const TermList& projections,
    const std::vector<const vec::Batch*>& inputs) {
  const size_t n = inputs.size();
  // Level 1 narrows the first input; each later level joins the next one.
  // later[k] lists what levels after k and the projection read: the
  // columns stage k's combined batch must gather.
  std::vector<std::vector<lera::AttrRef>> later(n + 1);
  for (const TermRef& p : projections) lera::CollectAttrs(p, &later[n]);
  for (size_t k = n; k-- > 1;) {
    later[k] = later[k + 1];
    for (const TermRef& c : conjuncts_at[k + 1]) {
      lera::CollectAttrs(c, &later[k]);
    }
  }
  Status pending;
  StageCtx sc{db_, &catalog_->functions(), &stats_, &pending};
  Kept acc;
  acc.batch = n == 0 ? &EmptyPrefix() : inputs[0];
  std::vector<uint32_t> offsets{0};
  for (size_t k = 1; k <= n; ++k) {
    if (options_.guard != nullptr && options_.guard->Check()) {
      return options_.guard->TripStatus();
    }
    if (k == 1) {
      offsets.push_back(static_cast<uint32_t>(acc.batch->cols.size()));
      Filter(conjuncts_at[1], offsets, &acc, sc);
    } else {
      acc = JoinStage(std::move(acc), &offsets, *inputs[k - 1], k,
                      conjuncts_at[k], later[k], sc);
    }
    if (acc.size() == 0) break;
  }

  // The projections run in order on each combination, so the first error
  // is at the earliest combination where one fails, the first to fail
  // there.
  const vec::ExprFrame pf = FrameOver(acc, offsets, sc);
  std::vector<vec::FrameColumn> cols;
  size_t rows = acc.size();
  for (size_t j = 0; j < projections.size() && rows != 0; ++j) {
    cols.push_back(vec::EvalExprBatch(projections[j], pf));
    ++stats_.batches;
    stats_.vec_rows += acc.size();
    if (cols.back().rows < rows) {
      rows = cols.back().rows;
      pending = cols.back().error;
    }
  }
  if (!pending.ok()) return pending;
  // Each projection's cells: gathered at the frame's selection, or a
  // column read whole, which is moved out of the combined batch when no
  // later projection reads it too (nothing else reads that batch now).
  vec::Batch out;
  out.rows = rows;
  out.cols.reserve(cols.size());
  for (size_t j = 0; j < cols.size(); ++j) {
    const vec::FrameColumn& col = cols[j];
    vec::ColumnVector* movable = nullptr;
    if (col.sel == nullptr && acc.owned != nullptr) {
      for (vec::ColumnVector& c : acc.owned->cols) {
        if (&c == col.col.get()) movable = &c;
      }
      for (size_t k = j + 1; k < cols.size(); ++k) {
        if (cols[k].col == col.col) movable = nullptr;
      }
    }
    out.cols.push_back(col.sel != nullptr   ? col->Gather(*col.sel)
                       : movable != nullptr ? std::move(*movable)
                                            : *col.col);
  }
  return out;
}

}  // namespace eds::exec
