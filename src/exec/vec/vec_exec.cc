#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "exec/executor.h"
#include "exec/vec/kernels.h"
#include "exec/vec/vec_eval.h"
#include "lera/lera.h"

// The vectorized SEARCH engine (which FILTER, PROJECT and JOIN run
// through as well) and dedup. Contract with the row path: results (rows,
// values, ordering, errors the user sees) are byte-identical. Anything a
// kernel cannot reproduce — ragged inputs, hash-incompatible join keys,
// per-row errors, output blow-ups past the batch caps — returns a non-OK
// status and the caller reruns the row-path oracle. Only
// ResourceExhausted (a governor trip) is final. Every input arrives as a
// batch: a stored table's, a fixpoint's total or delta, or a derived input
// converted once.

namespace eds::exec {

using term::TermList;
using term::TermRef;

namespace {

// Pair-count caps: past these a batched join materializes index vectors
// large enough that the row path's streaming loop is the safer choice.
constexpr size_t kMaxCrossPairs = size_t{1} << 22;
constexpr size_t kMaxJoinPairs = size_t{1} << 24;

struct StageCtx {
  const Database* db = nullptr;
  const value::FunctionLibrary* library = nullptr;
  ExecStats* stats = nullptr;
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
  uint32_t Row(uint32_t p) const { return all ? p : rows[p]; }
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
// the ones before it kept, as in the row engine's nested loop.
Status Filter(const TermList& conjuncts, const std::vector<uint32_t>& offsets,
              Kept* kept, const StageCtx& sc) {
  for (const TermRef& c : conjuncts) {
    const size_t n = kept->size();
    if (n == 0) break;
    sc.stats->qual_evaluations += n;
    EDS_ASSIGN_OR_RETURN(
        vec::SelectionVector pass,
        vec::EvalPredicateBatch(c, FrameOver(*kept, offsets, sc)));
    ++sc.stats->batches;
    sc.stats->vec_rows += n;
    kept->Narrow(std::move(pass));
  }
  return Status::OK();
}

// `n` rows, one cell from each evaluated projection.
Rows ProjectRows(const std::vector<vec::FrameColumn>& cols, size_t n) {
  Rows out;
  out.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    Row row;
    row.reserve(cols.size());
    for (const vec::FrameColumn& col : cols) {
      const vec::ColumnView v = col.view();
      row.push_back(v.col->ValueAt(v[r]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

bool IsComparison(const TermRef& t) {
  static const char* const kOps[] = {term::kEq, term::kNe, term::kLt,
                                     term::kLe, term::kGt, term::kGe};
  if (!t->is_apply() || t->args().size() != 2) return false;
  for (const char* op : kOps) {
    if (t->functor() == op) return true;
  }
  return false;
}

// True when evaluating `expr` raises no error on any row: constants,
// attributes, and comparisons of those (value::Compare is total).
bool CannotFail(const TermRef& expr) {
  if (expr->is_constant() || lera::IsAttr(expr)) return true;
  return IsComparison(expr) && CannotFail(expr->arg(0)) &&
         CannotFail(expr->arg(1));
}

// The same for a qualification, which must also come out boolean or NULL.
bool PredicateCannotFail(const TermRef& c) {
  if (c->is_constant()) {
    return c->constant().is_null() ||
           c->constant().kind() == value::ValueKind::kBool;
  }
  if (IsComparison(c)) return CannotFail(c);
  const bool connective =
      ((c->IsApply(term::kAnd) || c->IsApply(term::kOr)) &&
       c->args().size() == 2) ||
      (c->IsApply(term::kNot) && c->args().size() == 1);
  if (!connective) return false;
  for (const TermRef& a : c->args()) {
    if (!PredicateCannotFail(a)) return false;
  }
  return true;
}

// How join level k applies its conjuncts: `before` narrows input k alone,
// `equi` ({prev-side, k-side} pairs) are the hash join's keys, and `after`
// runs over the joined combinations, in the order given.
struct LevelPlan {
  TermList before;
  std::vector<std::array<TermRef, 2>> equi;
  TermList after;
};

// A comparison of an attribute with a constant, such as the selections
// the rewriter pushes down: it selects in place, at the cost of its
// survivors only.
bool IsConstantSelection(const TermRef& c) {
  return IsComparison(c) &&
         ((c->arg(0)->is_constant() && lera::IsAttr(c->arg(1))) ||
          (lera::IsAttr(c->arg(0)) && c->arg(1)->is_constant()));
}

// Where level k runs each conjunct. A right-only conjunct runs before the
// join when the level has no equi-conjunct or when it is a constant
// selection; any other runs after the join, so it sees only right rows
// with a join partner. The row engine runs a level's conjuncts in the
// order given, each on the combinations the earlier ones kept, and a
// conjunct moved ahead of an earlier one narrows what that one sees. That
// is harmless only when the earlier one cannot fail, so a conjunct never
// runs in an earlier place than one before it that can: it takes that
// place (after the join for an equi-conjunct that cannot be a key there).
LevelPlan PlanLevel(const TermList& conjuncts, size_t k) {
  enum Slot { kBefore, kKey, kAfter };
  // 1: only inputs before k, 2: only input k, 3: both, 0: neither.
  auto reach = [k](const TermRef& t) {
    std::vector<lera::AttrRef> attrs;
    lera::CollectAttrs(t, &attrs);
    int mask = 0;
    for (const lera::AttrRef& a : attrs) {
      mask |= a.input == static_cast<int64_t>(k) ? 2 : 1;
    }
    return mask;
  };
  const size_t n = conjuncts.size();
  std::vector<Slot> want(n, kAfter);
  std::vector<std::array<TermRef, 2>> sides(n);
  bool any_equi = false;
  for (size_t i = 0; i < n; ++i) {
    const TermRef& c = conjuncts[i];
    if ((reach(c) & 1) == 0) {
      want[i] = kBefore;  // right-only; settled below
      continue;
    }
    if (!c->IsApply(term::kEq) || c->args().size() != 2) continue;
    const int l = reach(c->arg(0)), r = reach(c->arg(1));
    if (l == 1 && r == 2) {
      sides[i] = {c->arg(0), c->arg(1)};
    } else if (l == 2 && r == 1) {
      sides[i] = {c->arg(1), c->arg(0)};
    } else {
      continue;
    }
    want[i] = kKey;
    any_equi = true;
  }
  LevelPlan plan;
  Slot floor = kBefore;
  for (size_t i = 0; i < n; ++i) {
    const TermRef& c = conjuncts[i];
    Slot slot = want[i];
    if (slot == kBefore && any_equi && !IsConstantSelection(c)) {
      slot = kAfter;
    }
    // Only an equi-conjunct can share the keys' place, and one that
    // would run before it shares nothing.
    if (slot < floor) slot = kAfter;
    switch (slot) {
      case kBefore: plan.before.push_back(c); break;
      case kKey: plan.equi.push_back(sides[i]); break;
      case kAfter: plan.after.push_back(c); break;
    }
    if (!PredicateCannotFail(c) && slot > floor) floor = slot;
  }
  return plan;
}

// One nested-loop level, vectorized: joins the combinations kept so far
// (`left`, whose batch holds inputs 1..k-1 at `offsets`) with input k.
// `conjuncts` are this level's conjuncts (every one references input k and
// nothing higher), applied as PlanLevel says: the hash join pairs the rows
// that the before-join conjuncts kept of input k with `left`; a level
// without hash keys pairs every kept row with every one. The join emits
// pairs in (left asc, right asc) order, so the combinations stay in
// exactly the row engine's emission order. The combined batch is gathered
// once, and only for the columns that the after-join conjuncts or `later`
// (what later levels and the projection read) read; the after-join
// conjuncts then narrow its selection.
// `offsets` (size k) gains input k's width on return.
Result<Kept> JoinStage(const Kept& left, std::vector<uint32_t>* offsets,
                       const vec::Batch& right, size_t k,
                       const TermList& conjuncts,
                       const std::vector<lera::AttrRef>& later,
                       const StageCtx& sc) {
  LevelPlan plan = PlanLevel(conjuncts, k);
  Kept kept_right;
  kept_right.batch = &right;
  EDS_RETURN_IF_ERROR(
      Filter(plan.before, AloneOffsets(right, k), &kept_right, sc));

  vec::JoinPairs pairs;
  if (left.size() != 0 && kept_right.size() != 0) {
    std::vector<vec::FrameColumn> keys;  // owns computed key columns
    std::vector<vec::ColumnView> lkeys, rkeys;
    std::vector<vec::HashClass> classes;
    const vec::ExprFrame lf = FrameOver(left, *offsets, sc);
    const vec::ExprFrame rf =
        FrameOver(kept_right, AloneOffsets(right, k), sc);
    for (const auto& [prev_side, cur_side] : plan.equi) {
      EDS_ASSIGN_OR_RETURN(vec::FrameColumn lc,
                           vec::EvalExprBatch(prev_side, lf));
      EDS_ASSIGN_OR_RETURN(vec::FrameColumn rc,
                           vec::EvalExprBatch(cur_side, rf));
      const vec::HashClass ca = vec::ClassifyKey(lc.view());
      const vec::HashClass cb = vec::ClassifyKey(rc.view());
      if (!vec::HashCompatible(ca, cb)) {
        // Tuples or mixed-kind keys: compare pairwise instead.
        plan.after.push_back(
            term::Term::Apply(term::kEq, {prev_side, cur_side}));
        continue;
      }
      // Charged as logical qualification applications — the pairings the
      // row engine would have probed (|left| x |right|) — not the O(n+m)
      // hash-join work, so cost comparisons against the row path (e.g.
      // semi-naive vs naive deltas) stay meaningful.
      sc.stats->qual_evaluations += left.size() * kept_right.size();
      lkeys.push_back(lc.view());
      rkeys.push_back(rc.view());
      classes.push_back(vec::CombineClasses(ca, cb));
      keys.push_back(std::move(lc));
      keys.push_back(std::move(rc));
    }
    if (!lkeys.empty()) {
      EDS_ASSIGN_OR_RETURN(
          pairs, vec::HashJoin(lkeys, rkeys, classes, kMaxJoinPairs));
    } else {
      EDS_ASSIGN_OR_RETURN(pairs,
                           vec::CrossPairs(left.size(), kept_right.size(),
                                           kMaxCrossPairs));
    }
  }
  ++sc.stats->batches;
  sc.stats->vec_rows += pairs.left.size();

  const uint32_t left_width = offsets->back();
  offsets->push_back(left_width + static_cast<uint32_t>(right.cols.size()));
  std::vector<bool> needed(offsets->back(), false);
  auto mark = [&](const lera::AttrRef& a) {
    if (a.input < 1 || a.input > static_cast<int64_t>(k)) return;
    const uint32_t lo = (*offsets)[static_cast<size_t>(a.input) - 1];
    const uint32_t hi = (*offsets)[static_cast<size_t>(a.input)];
    if (a.column >= 1 && a.column <= static_cast<int64_t>(hi - lo)) {
      needed[lo + static_cast<uint32_t>(a.column) - 1] = true;
    }
  };
  std::vector<lera::AttrRef> attrs;
  for (const TermRef& c : plan.after) lera::CollectAttrs(c, &attrs);
  attrs.insert(attrs.end(), later.begin(), later.end());
  for (const lera::AttrRef& a : attrs) mark(a);

  // Pair positions become batch rows, then every needed column is
  // gathered at them; the others stay empty and are never read.
  for (uint32_t& l : pairs.left) l = left.Row(l);
  for (uint32_t& r : pairs.right) r = kept_right.Row(r);
  Kept out;
  out.owned = std::make_unique<vec::Batch>();
  out.owned->rows = pairs.left.size();
  out.owned->cols.resize(offsets->back());
  for (uint32_t c = 0; c < offsets->back(); ++c) {
    if (!needed[c]) continue;
    out.owned->cols[c] =
        c < left_width ? left.batch->cols[c].Gather(pairs.left)
                       : right.cols[c - left_width].Gather(pairs.right);
  }
  out.batch = out.owned.get();
  EDS_RETURN_IF_ERROR(Filter(plan.after, *offsets, &out, sc));
  return out;
}

// A batch of one row and no columns: the empty combination a SEARCH
// without inputs projects once.
const vec::Batch& EmptyPrefix() {
  static const vec::Batch prefix{1, {}};
  return prefix;
}

}  // namespace

Result<Rows> Executor::EvalSearchWithInputsVec(
    const std::vector<TermList>& conjuncts_at, const TermList& projections,
    const std::vector<const vec::Batch*>& inputs) {
  const size_t n = inputs.size();
  for (const vec::Batch* in : inputs) {
    if (!in->ragged.empty()) return Status::Unsupported("ragged input rows");
  }
  for (const vec::Batch* in : inputs) {
    if (in->rows == 0) return Rows{};
  }

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
  StageCtx sc{db_, &catalog_->functions(), &stats_};
  Kept acc;
  acc.batch = n == 0 ? &EmptyPrefix() : inputs[0];
  std::vector<uint32_t> offsets{0};
  for (size_t k = 1; k <= n; ++k) {
    if (options_.guard != nullptr && options_.guard->Check()) {
      return options_.guard->TripStatus();
    }
    if (k == 1) {
      offsets.push_back(static_cast<uint32_t>(acc.batch->cols.size()));
      EDS_RETURN_IF_ERROR(Filter(conjuncts_at[1], offsets, &acc, sc));
    } else {
      EDS_ASSIGN_OR_RETURN(acc, JoinStage(acc, &offsets, *inputs[k - 1],
                                          k, conjuncts_at[k], later[k], sc));
    }
    if (acc.size() == 0) return Rows{};
  }

  const vec::ExprFrame pf = FrameOver(acc, offsets, sc);
  std::vector<vec::FrameColumn> outcols;
  outcols.reserve(projections.size());
  for (const TermRef& p : projections) {
    EDS_ASSIGN_OR_RETURN(vec::FrameColumn col, vec::EvalExprBatch(p, pf));
    ++stats_.batches;
    stats_.vec_rows += acc.size();
    outcols.push_back(std::move(col));
  }
  return ProjectRows(outcols, acc.size());
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
