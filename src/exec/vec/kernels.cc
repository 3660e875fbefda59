#include "exec/vec/kernels.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "term/term.h"

namespace eds::exec::vec {
namespace {

using value::Value;
using value::ValueKind;

// splitmix64 finalizer: cheap, well-distributed, deterministic.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t HashDoubleBits(double d) {
  if (d == 0) d = 0;  // fold -0.0 onto +0.0, consistent with value::Compare
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

// A cell's share of a row hash (RowHash, RowSet): equal for
// Compare-equal cells whatever lane holds them, so a row hashes the same
// in every batch. Numbers hash as doubles, folding Int(2) onto Real(2.0).
constexpr uint64_t kNullCellHash = 0x7fb5d329728ea185ULL;
inline uint64_t HashBoolCell(bool b) { return Mix64(b ? 3 : 7); }

uint64_t HashValueCell(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull: return kNullCellHash;
    case ValueKind::kInt:
    case ValueKind::kReal: return HashDoubleBits(v.AsReal());
    case ValueKind::kBool: return HashBoolCell(v.AsBool());
    case ValueKind::kObjectRef: return Mix64(v.AsObjectRef());
    default: return term::internal::HashConstantValue(v);
  }
}

constexpr uint64_t kRowHashSeed = 0x84222325cbf29ce4ULL;

// Calls `fn` with a callable mapping view row i to its cell index, one
// instantiation for a plain column and one for a selection, so the
// kernels' loops carry no per-row branch on which it is.
template <typename Fn>
decltype(auto) WithRows(const ColumnView& v, Fn fn) {
  if (v.sel == nullptr) return fn([](size_t i) { return i; });
  const uint32_t* s = v.sel->data();
  return fn([s](size_t i) { return static_cast<size_t>(s[i]); });
}

template <typename Pred, typename RowA, typename RowB>
ColumnVector CompareImpl(const ColumnVector& a, RowA ra, const ColumnVector& b,
                         RowB rb, size_t n, Pred pred) {
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  const bool clean = a.all_valid() && b.all_valid();
  if (clean && a.lane() == Lane::kInt64 && b.lane() == Lane::kInt64) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t x = a.IntAt(ra(i)), y = b.IntAt(rb(i));
      out[i] = pred(x < y ? -1 : (x > y ? 1 : 0)) ? 1 : 0;
    }
  } else if (clean && a.is_numeric_lane() && b.is_numeric_lane()) {
    for (size_t i = 0; i < n; ++i) {
      const double x = a.NumericAt(ra(i)), y = b.NumericAt(rb(i));
      out[i] = pred(x < y ? -1 : (x > y ? 1 : 0)) ? 1 : 0;
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      if (a.IsNull(ra(i)) || b.IsNull(rb(i))) {
        ++nulls;
        continue;
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = pred(a.CompareCells(ra(i), b, rb(i))) ? 1 : 0;
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

// Calls visit(i, r) for every view row i of `a` against `c` under `pred`,
// r being -1 for NULL, 0 for FALSE and 1 for TRUE; `cmp(cell)` is
// value::Compare(a's cell, c) for a non-null cell.
template <typename Pred, typename Rows, typename Cmp, typename Visit>
void VisitEach(const ColumnVector& a, Rows ra, size_t n, Pred pred, Cmp cmp,
               Visit visit) {
  if (a.all_valid()) {
    for (size_t i = 0; i < n; ++i) visit(i, pred(cmp(ra(i))) ? 1 : 0);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t cell = ra(i);
    visit(i, a.IsNull(cell) ? -1 : (pred(cmp(cell)) ? 1 : 0));
  }
}

template <typename Pred, typename Rows, typename Visit>
void VisitCompareToValue(const ColumnVector& a, Rows ra, size_t n,
                         const Value& c, Pred pred, Visit visit) {
  if (c.is_null()) {
    for (size_t i = 0; i < n; ++i) visit(i, -1);
    return;
  }
  auto sign = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  if (a.lane() == Lane::kInt64 && c.kind() == ValueKind::kInt) {
    const int64_t y = c.AsInt();
    VisitEach(a, ra, n, pred, [&](size_t i) { return sign(a.IntAt(i), y); },
              visit);
  } else if (a.is_numeric_lane() && c.is_numeric()) {
    const double y = c.AsReal();
    VisitEach(a, ra, n, pred,
              [&](size_t i) { return sign(a.NumericAt(i), y); }, visit);
  } else if (a.lane() == Lane::kObjectRef &&
             c.kind() == ValueKind::kObjectRef) {
    const uint64_t y = c.AsObjectRef();
    VisitEach(a, ra, n, pred,
              [&](size_t i) { return sign(a.ObjectRefAt(i), y); }, visit);
  } else if (a.lane() == Lane::kGeneric) {
    VisitEach(a, ra, n, pred,
              [&](size_t i) { return value::Compare(a.GenericAt(i), c); },
              visit);
  } else {
    VisitEach(a, ra, n, pred,
              [&](size_t i) { return value::Compare(a.ValueAt(i), c); },
              visit);
  }
}

// Calls `impl` with the predicate over value::Compare's sign that `op`
// names.
template <typename Impl>
decltype(auto) WithPredicate(CmpOp op, Impl impl) {
  switch (op) {
    case CmpOp::kEq: return impl([](int c) { return c == 0; });
    case CmpOp::kNe: return impl([](int c) { return c != 0; });
    case CmpOp::kLt: return impl([](int c) { return c < 0; });
    case CmpOp::kLe: return impl([](int c) { return c <= 0; });
    case CmpOp::kGt: return impl([](int c) { return c > 0; });
    case CmpOp::kGe: return impl([](int c) { return c >= 0; });
  }
  return impl([](int c) { return c == 0; });
}

// Calls visit(i, r) for every row of `a` against `c` under `op`, r as in
// VisitEach.
template <typename Visit>
void ForEachCompareToValue(CmpOp op, ColumnView a, const Value& c,
                           Visit visit) {
  WithPredicate(op, [&](auto pred) {
    WithRows(a, [&](auto ra) {
      VisitCompareToValue(*a.col, ra, a.size(), c, pred, visit);
    });
  });
}

// A cell as the scalar connectives and WHERE read it.
enum class Truth : uint8_t { kFalse, kTrue, kNull, kOther };

Truth TruthAt(const ColumnVector& c, size_t i) {
  switch (c.lane()) {
    case Lane::kNullOnly:
      return Truth::kNull;
    case Lane::kBool:
      if (c.IsNull(i)) return Truth::kNull;
      return c.BoolAt(i) ? Truth::kTrue : Truth::kFalse;
    case Lane::kGeneric: {
      const Value& v = c.GenericAt(i);
      if (v.is_null()) return Truth::kNull;
      if (v.kind() != ValueKind::kBool) return Truth::kOther;
      return v.AsBool() ? Truth::kTrue : Truth::kFalse;
    }
    default:
      return c.IsNull(i) ? Truth::kNull : Truth::kOther;
  }
}

Truth Dominant(Connective op) {
  return op == Connective::kAnd ? Truth::kFalse : Truth::kTrue;
}

}  // namespace

ColumnVector CompareColumns(CmpOp op, ColumnView a, ColumnView b) {
  return WithPredicate(op, [&](auto pred) {
    return WithRows(a, [&](auto ra) {
      return WithRows(b, [&](auto rb) {
        return CompareImpl(*a.col, ra, *b.col, rb, a.size(), pred);
      });
    });
  });
}

ColumnVector CompareColumnToValue(CmpOp op, ColumnView a, const Value& c) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid((n + 63) >> 6, 0);
  size_t nulls = 0;
  ForEachCompareToValue(op, a, c, [&](size_t i, int r) {
    if (r < 0) {
      ++nulls;
      return;
    }
    valid[i >> 6] |= uint64_t{1} << (i & 63);
    out[i] = static_cast<uint8_t>(r);
  });
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

SelectionVector SelectCompareToValue(CmpOp op, ColumnView a,
                                     const Value& c) {
  // Counted first, so the selection holds the surviving rows and no more.
  size_t hits = 0;
  ForEachCompareToValue(op, a, c,
                        [&](size_t, int r) { hits += r > 0 ? 1 : 0; });
  SelectionVector sel;
  sel.reserve(hits);
  ForEachCompareToValue(op, a, c, [&](size_t i, int r) {
    if (r > 0) sel.push_back(static_cast<uint32_t>(i));
  });
  return sel;
}

SelectionVector UndecidedRows(Connective op, ColumnView a) {
  const Truth dominant = Dominant(op);
  const size_t n = a.size();
  size_t undecided = 0;
  for (size_t i = 0; i < n; ++i) {
    undecided += TruthAt(*a.col, a[i]) != dominant ? 1 : 0;
  }
  SelectionVector out;
  out.reserve(undecided);
  for (size_t i = 0; i < n; ++i) {
    if (TruthAt(*a.col, a[i]) != dominant) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

ColumnVector Connect(Connective op, ColumnView a, ColumnView b) {
  const Truth dominant = Dominant(op);
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid((n + 63) >> 6, 0);
  size_t nulls = 0;
  size_t k = 0;  // the next cell of `b`
  size_t i = 0;
  for (; i < n; ++i) {
    const Truth x = TruthAt(*a.col, a[i]);
    Truth r = dominant;
    if (x != dominant) {
      const Truth y = TruthAt(*b.col, b[k++]);
      if (y == dominant) {
        r = dominant;
      } else if (x == Truth::kNull || y == Truth::kNull) {
        r = Truth::kNull;
      } else if (x == Truth::kOther || y == Truth::kOther) {
        break;
      } else {
        r = x;  // both the non-dominant boolean
      }
    }
    if (r == Truth::kNull) {
      ++nulls;
      continue;
    }
    valid[i >> 6] |= uint64_t{1} << (i & 63);
    out[i] = r == Truth::kTrue ? 1 : 0;
  }
  out.resize(i);
  valid.resize((i + 63) >> 6);
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

ColumnVector NotColumn(ColumnView a) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid((n + 63) >> 6, 0);
  size_t nulls = 0;
  size_t i = 0;
  for (; i < n; ++i) {
    const Truth x = TruthAt(*a.col, a[i]);
    if (x == Truth::kOther) break;
    if (x == Truth::kNull) {
      ++nulls;
      continue;
    }
    valid[i >> 6] |= uint64_t{1} << (i & 63);
    out[i] = x == Truth::kFalse ? 1 : 0;
  }
  out.resize(i);
  valid.resize((i + 63) >> 6);
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

SelectionVector SelectTrue(ColumnView pred, size_t* read) {
  // Counted first, so the selection holds the surviving rows and no more:
  // a selective filter over a large table keeps a few indices.
  const size_t n = pred.size();
  size_t hits = 0;
  size_t i = 0;
  for (; i < n; ++i) {
    const Truth t = TruthAt(*pred.col, pred[i]);
    if (t == Truth::kOther) break;
    hits += t == Truth::kTrue ? 1 : 0;
  }
  *read = i;
  SelectionVector sel;
  sel.reserve(hits);
  for (size_t j = 0; j < i && sel.size() < hits; ++j) {
    if (TruthAt(*pred.col, pred[j]) == Truth::kTrue) {
      sel.push_back(static_cast<uint32_t>(j));
    }
  }
  return sel;
}

namespace {

// Row equality and row hashing: every row match in the executor (hash-join
// keys, RowSet's rows: DEDUP, the set operations, a FIX's total, NEST's
// groups) compares cells with ColumnVector::CompareCells and hashes them
// with CellHash. A cell's hash is equal for Compare-equal cells whatever
// lane holds them, so a row hashes the same in every batch. Numbers hash
// as doubles, folding Int(2) onto Real(2.0); tuples, collections and
// strings hash as term constants do, by their elements.

// HashValueCell of cell i, read from its lane.
uint64_t CellHash(const ColumnVector& c, size_t i) {
  if (c.lane() == Lane::kGeneric) return HashValueCell(c.GenericAt(i));
  if (c.IsNull(i)) return kNullCellHash;
  switch (c.lane()) {
    case Lane::kInt64: return HashDoubleBits(static_cast<double>(c.IntAt(i)));
    case Lane::kFloat64: return HashDoubleBits(c.RealAt(i));
    case Lane::kBool: return HashBoolCell(c.BoolAt(i));
    case Lane::kObjectRef: return Mix64(c.ObjectRefAt(i));
    default: return kNullCellHash;
  }
}

// The hash of row r over `cols`.
uint64_t RowHash(const std::vector<ColumnView>& cols, size_t r) {
  uint64_t h = kRowHashSeed;
  for (const ColumnView& c : cols) h = Mix64(h ^ CellHash(*c.col, c[r]));
  return h;
}

// True when row i of `a` and row j of `b` (lists of ColumnVectors or
// ColumnViews, of one width) are Compare-equal cell by cell.
template <typename A, typename B>
bool SameRow(const A& a, size_t i, const B& b, size_t j) {
  for (size_t c = 0; c < a.size(); ++c) {
    const ColumnView x = a[c], y = b[c];
    if (x.col->CompareCells(x[i], *y.col, y[j]) != 0) return false;
  }
  return true;
}

// Reorders pairs emitted right-major into (left asc, right asc) order: a
// stable counting sort by left row keeps each left row's right rows in
// the ascending order they were emitted in.
void SortByLeft(size_t left_rows, JoinPairs* pairs) {
  std::vector<uint32_t> start(left_rows + 1, 0);
  for (uint32_t l : pairs->left) ++start[l + 1];
  for (size_t i = 0; i < left_rows; ++i) start[i + 1] += start[i];
  SelectionVector left(pairs->left.size()), right(pairs->right.size());
  for (size_t p = 0; p < pairs->left.size(); ++p) {
    const uint32_t at = start[pairs->left[p]]++;
    left[at] = pairs->left[p];
    right[at] = pairs->right[p];
  }
  pairs->left = std::move(left);
  pairs->right = std::move(right);
}

}  // namespace

bool HashJoin(const std::vector<ColumnView>& left_keys,
              const std::vector<ColumnView>& right_keys, size_t max_pairs,
              JoinPairs* out) {
  const size_t left_rows = left_keys[0].size();
  const size_t right_rows = right_keys[0].size();
  if (left_rows == 0 || right_rows == 0) return true;
  if (std::min(left_rows, right_rows) > (size_t{1} << 30)) return false;
  const bool build_left = left_rows < right_rows;
  const std::vector<ColumnView>& build = build_left ? left_keys : right_keys;
  const std::vector<ColumnView>& probe = build_left ? right_keys : left_keys;
  const size_t build_rows = build_left ? left_rows : right_rows;
  const size_t probe_rows = build_left ? right_rows : left_rows;
  // A row with a NULL key matches nothing: it is never built or probed.
  auto null_key = [](const std::vector<ColumnView>& keys, size_t i) {
    for (const ColumnView& k : keys) {
      if (k.col->IsNull(k[i])) return true;
    }
    return false;
  };
  size_t buckets = 16;
  while (buckets < build_rows * 2) buckets <<= 1;
  const uint64_t mask = buckets - 1;
  std::vector<int32_t> heads(buckets, -1);
  std::vector<int32_t> nxt(build_rows, -1);
  std::vector<uint64_t> hashes(build_rows, 0);
  // Insert build rows in reverse so each bucket chain is ascending; a
  // probe row then meets its matches in ascending build order.
  for (size_t j = build_rows; j-- > 0;) {
    if (null_key(build, j)) continue;
    hashes[j] = RowHash(build, j);
    const size_t b = hashes[j] & mask;
    nxt[j] = heads[b];
    heads[b] = static_cast<int32_t>(j);
  }
  for (size_t i = 0; i < probe_rows; ++i) {
    if (null_key(probe, i)) continue;
    const uint64_t h = RowHash(probe, i);
    for (int32_t j = heads[h & mask]; j >= 0; j = nxt[j]) {
      if (hashes[j] != h || !SameRow(probe, i, build, j)) continue;
      if (out->left.size() >= max_pairs) return false;
      out->left.push_back(static_cast<uint32_t>(build_left ? j : i));
      out->right.push_back(static_cast<uint32_t>(build_left ? i : j));
    }
  }
  if (build_left) SortByLeft(left_rows, out);
  return true;
}

bool CrossPairs(size_t left_rows, size_t right_rows, size_t max_pairs,
                JoinPairs* out) {
  if (left_rows == 0 || right_rows == 0) return true;
  if (left_rows > max_pairs / right_rows) return false;
  out->left.reserve(left_rows * right_rows);
  out->right.reserve(left_rows * right_rows);
  for (size_t i = 0; i < left_rows; ++i) {
    for (size_t j = 0; j < right_rows; ++j) {
      out->left.push_back(static_cast<uint32_t>(i));
      out->right.push_back(static_cast<uint32_t>(j));
    }
  }
  return true;
}

Batch Sorted(const Batch& b) {
  SelectionVector order(b.rows);
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    for (const ColumnVector& c : b.cols) {
      const int cmp = c.CompareCells(x, c, y);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return b.Gather(order);
}

int32_t RowSet::Find(const std::vector<ColumnView>& cols, size_t r,
                     uint64_t h) const {
  if (heads_.empty()) return -1;
  for (int32_t j = heads_[h & (heads_.size() - 1)]; j >= 0; j = next_[j]) {
    if (hashes_[j] == h && SameRow(batch_.cols, j, cols, r)) return j;
  }
  return -1;
}

bool RowSet::Contains(const std::vector<ColumnView>& cols, size_t r) const {
  return cols.size() == batch_.cols.size() &&
         Find(cols, r, RowHash(cols, r)) >= 0;
}

size_t RowSet::Add(const std::vector<ColumnView>& cols, size_t r) {
  const uint64_t h = RowHash(cols, r);
  const int32_t held = Find(cols, r, h);
  if (held >= 0) return static_cast<size_t>(held);
  if (heads_.size() < 2 * (batch_.rows + 1)) {
    // Doubles the buckets and rechains every row held.
    heads_.assign(std::max<size_t>(16, heads_.size() * 2), -1);
    for (size_t j = 0; j < batch_.rows; ++j) {
      const size_t bkt = hashes_[j] & (heads_.size() - 1);
      next_[j] = heads_[bkt];
      heads_[bkt] = static_cast<int32_t>(j);
    }
  }
  if (batch_.rows == 0) batch_.cols.resize(cols.size());
  const size_t bkt = h & (heads_.size() - 1);
  hashes_.push_back(h);
  next_.push_back(heads_[bkt]);
  heads_[bkt] = static_cast<int32_t>(batch_.rows);
  for (size_t c = 0; c < cols.size(); ++c) {
    batch_.cols[c].AppendCell(*cols[c].col, cols[c][r]);
  }
  return batch_.rows++;
}

Status RowSet::Insert(const Batch& rows) {
  if (rows.rows == 0) return Status::OK();
  if (batch_.rows != 0 && rows.cols.size() != batch_.cols.size()) {
    return Status::InvalidArgument(
        "ragged rows: a row of width " + std::to_string(rows.cols.size()) +
        " among rows of width " + std::to_string(batch_.cols.size()));
  }
  const std::vector<ColumnView> cols(rows.cols.begin(), rows.cols.end());
  for (size_t r = 0; r < rows.rows; ++r) Add(cols, r);
  return Status::OK();
}

}  // namespace eds::exec::vec
