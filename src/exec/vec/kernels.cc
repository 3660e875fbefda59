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

inline uint64_t HashStringBytes(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, then mixed
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

// A cell's share of a row hash (VecDedupRows, RowSet): equal for
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

Result<ColumnVector> Connect(Connective op, ColumnView a, ColumnView b) {
  const Truth dominant = Dominant(op);
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid((n + 63) >> 6, 0);
  size_t nulls = 0;
  size_t k = 0;  // the next cell of `b`
  for (size_t i = 0; i < n; ++i) {
    const Truth x = TruthAt(*a.col, a[i]);
    Truth r = dominant;
    if (x != dominant) {
      const Truth y = TruthAt(*b.col, b[k++]);
      if (y == dominant) {
        r = dominant;
      } else if (x == Truth::kNull || y == Truth::kNull) {
        r = Truth::kNull;
      } else if (x == Truth::kOther || y == Truth::kOther) {
        return Status::TypeError(op == Connective::kAnd
                                     ? "AND requires boolean operands"
                                     : "OR requires boolean operands");
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
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

Result<ColumnVector> NotColumn(ColumnView a) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid((n + 63) >> 6, 0);
  size_t nulls = 0;
  for (size_t i = 0; i < n; ++i) {
    const Truth x = TruthAt(*a.col, a[i]);
    if (x == Truth::kNull) {
      ++nulls;
      continue;
    }
    if (x == Truth::kOther) {
      return Status::TypeError("NOT requires a boolean operand");
    }
    valid[i >> 6] |= uint64_t{1} << (i & 63);
    out[i] = x == Truth::kFalse ? 1 : 0;
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

Result<SelectionVector> SelectTrue(ColumnView pred) {
  // Counted first, so the selection holds the surviving rows and no more:
  // a selective filter over a large table keeps a few indices.
  const size_t n = pred.size();
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const Truth t = TruthAt(*pred.col, pred[i]);
    if (t == Truth::kOther) {
      return Status::TypeError("qualification is not a boolean");
    }
    hits += t == Truth::kTrue ? 1 : 0;
  }
  SelectionVector sel;
  sel.reserve(hits);
  for (size_t i = 0; i < n && sel.size() < hits; ++i) {
    if (TruthAt(*pred.col, pred[i]) == Truth::kTrue) {
      sel.push_back(static_cast<uint32_t>(i));
    }
  }
  return sel;
}

HashClass ClassifyKey(ColumnView view) {
  const ColumnVector& col = *view.col;
  switch (col.lane()) {
    case Lane::kInt64:
    case Lane::kFloat64:
      return HashClass::kNumeric;
    case Lane::kBool:
      return HashClass::kBool;
    case Lane::kObjectRef:
      return HashClass::kObjectRef;
    case Lane::kNullOnly:
      return HashClass::kAny;
    case Lane::kGeneric:
      break;
  }
  HashClass cls = HashClass::kAny;
  for (size_t i = 0; i < view.size(); ++i) {
    const Value& v = col.GenericAt(view[i]);
    HashClass want;
    switch (v.kind()) {
      case ValueKind::kNull:
        continue;
      case ValueKind::kInt:
      case ValueKind::kReal:
        want = HashClass::kNumeric;
        break;
      case ValueKind::kBool:
        want = HashClass::kBool;
        break;
      case ValueKind::kString:
        want = HashClass::kString;
        break;
      case ValueKind::kObjectRef:
        want = HashClass::kObjectRef;
        break;
      default:
        return HashClass::kNone;  // tuples/collections: residual compare
    }
    if (cls == HashClass::kAny) {
      cls = want;
    } else if (cls != want) {
      return HashClass::kNone;
    }
  }
  return cls;
}

bool HashCompatible(HashClass a, HashClass b) {
  if (a == HashClass::kNone || b == HashClass::kNone) return false;
  return a == b || a == HashClass::kAny || b == HashClass::kAny;
}

HashClass CombineClasses(HashClass a, HashClass b) {
  return a == HashClass::kAny ? b : a;
}

uint64_t HashCell(const ColumnVector& col, size_t i, HashClass cls) {
  switch (cls) {
    case HashClass::kNumeric: {
      const double d = col.is_numeric_lane() ? col.NumericAt(i)
                                             : col.GenericAt(i).AsReal();
      return HashDoubleBits(d);
    }
    case HashClass::kBool: {
      const bool v = col.lane() == Lane::kBool ? col.BoolAt(i)
                                               : col.GenericAt(i).AsBool();
      return Mix64(v ? 3 : 7);
    }
    case HashClass::kString:
      return HashStringBytes(col.GenericAt(i).AsString());
    case HashClass::kObjectRef:
      return Mix64(col.lane() == Lane::kObjectRef
                       ? col.ObjectRefAt(i)
                       : col.GenericAt(i).AsObjectRef());
    default:
      return 0;  // kAny columns have no non-null cells; kNone never hashed
  }
}

namespace {

// Hash of row i over the key views; false when a key is NULL (the row
// never matches).
bool RowHash(const std::vector<ColumnView>& keys,
             const std::vector<HashClass>& classes, size_t i, uint64_t* h) {
  uint64_t acc = kRowHashSeed;
  for (size_t k = 0; k < keys.size(); ++k) {
    const size_t cell = keys[k][i];
    if (keys[k].col->IsNull(cell)) return false;
    acc = Mix64(acc ^ HashCell(*keys[k].col, cell, classes[k]));
  }
  *h = acc;
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

Result<JoinPairs> HashJoin(const std::vector<ColumnView>& left_keys,
                           const std::vector<ColumnView>& right_keys,
                           const std::vector<HashClass>& classes,
                           size_t max_pairs) {
  JoinPairs out;
  const size_t left_rows = left_keys[0].size();
  const size_t right_rows = right_keys[0].size();
  if (left_rows == 0 || right_rows == 0) return out;
  if (right_rows > (size_t{1} << 30) || left_rows > (size_t{1} << 30)) {
    return Status::Unsupported("hash join input too large");
  }
  const bool build_left = left_rows < right_rows;
  const std::vector<ColumnView>& build = build_left ? left_keys : right_keys;
  const std::vector<ColumnView>& probe = build_left ? right_keys : left_keys;
  const size_t build_rows = build_left ? left_rows : right_rows;
  const size_t probe_rows = build_left ? right_rows : left_rows;
  size_t buckets = 16;
  while (buckets < build_rows * 2) buckets <<= 1;
  const uint64_t mask = buckets - 1;
  std::vector<int32_t> heads(buckets, -1);
  std::vector<int32_t> nxt(build_rows, -1);
  std::vector<uint64_t> hashes(build_rows, 0);
  // Insert build rows in reverse so each bucket chain is ascending; a
  // probe row then meets its matches in ascending build order.
  for (size_t j = build_rows; j-- > 0;) {
    if (!RowHash(build, classes, j, &hashes[j])) continue;
    const size_t b = hashes[j] & mask;
    nxt[j] = heads[b];
    heads[b] = static_cast<int32_t>(j);
  }
  for (size_t i = 0; i < probe_rows; ++i) {
    uint64_t h;
    if (!RowHash(probe, classes, i, &h)) continue;
    for (int32_t j = heads[h & mask]; j >= 0; j = nxt[j]) {
      if (hashes[j] != h) continue;
      bool eq = true;
      for (size_t k = 0; k < classes.size(); ++k) {
        if (probe[k].col->CompareCells(probe[k][i], *build[k].col,
                                       build[k][j]) != 0) {
          eq = false;
          break;
        }
      }
      if (!eq) continue;
      if (out.left.size() >= max_pairs) {
        return Status::Unsupported("hash join output exceeds batch cap");
      }
      out.left.push_back(static_cast<uint32_t>(build_left ? j : i));
      out.right.push_back(static_cast<uint32_t>(build_left ? i : j));
    }
  }
  if (build_left) SortByLeft(left_rows, &out);
  return out;
}

Result<JoinPairs> CrossPairs(size_t left_rows, size_t right_rows,
                             size_t max_pairs) {
  JoinPairs out;
  if (left_rows == 0 || right_rows == 0) return out;
  if (left_rows > max_pairs / right_rows) {
    return Status::Unsupported("cross product exceeds batch cap");
  }
  out.left.reserve(left_rows * right_rows);
  out.right.reserve(left_rows * right_rows);
  for (size_t i = 0; i < left_rows; ++i) {
    for (size_t j = 0; j < right_rows; ++j) {
      out.left.push_back(static_cast<uint32_t>(i));
      out.right.push_back(static_cast<uint32_t>(j));
    }
  }
  return out;
}

bool VecDedupRows(std::vector<std::vector<value::Value>>* rows,
                  size_t* batches) {
  const size_t n = rows->size();
  if (n < 64 || n > (size_t{1} << 30)) return false;
  Batch b;
  if (!Batch::FromRows(*rows, &b)) return false;
  if (batches) ++*batches;
  // Row hashes, accumulated column-major, one loop per lane.
  std::vector<uint64_t> h(n, kRowHashSeed);
  for (const ColumnVector& c : b.cols) {
    switch (c.lane()) {
      case Lane::kInt64:
        for (size_t i = 0; i < n; ++i) {
          const uint64_t cell =
              c.IsNull(i) ? kNullCellHash
                          : HashDoubleBits(static_cast<double>(c.IntAt(i)));
          h[i] = Mix64(h[i] ^ cell);
        }
        break;
      case Lane::kFloat64:
        for (size_t i = 0; i < n; ++i) {
          const uint64_t cell =
              c.IsNull(i) ? kNullCellHash : HashDoubleBits(c.RealAt(i));
          h[i] = Mix64(h[i] ^ cell);
        }
        break;
      case Lane::kBool:
        for (size_t i = 0; i < n; ++i) {
          const uint64_t cell =
              c.IsNull(i) ? kNullCellHash : HashBoolCell(c.BoolAt(i));
          h[i] = Mix64(h[i] ^ cell);
        }
        break;
      case Lane::kObjectRef:
        for (size_t i = 0; i < n; ++i) {
          const uint64_t cell =
              c.IsNull(i) ? kNullCellHash : Mix64(c.ObjectRefAt(i));
          h[i] = Mix64(h[i] ^ cell);
        }
        break;
      case Lane::kNullOnly:
        for (size_t i = 0; i < n; ++i) h[i] = Mix64(h[i] ^ kNullCellHash);
        break;
      case Lane::kGeneric:
        for (size_t i = 0; i < n; ++i) {
          h[i] = Mix64(h[i] ^ HashValueCell(c.GenericAt(i)));
        }
        break;
    }
  }
  // Group by hash, keeping the first occurrence of each distinct row.
  size_t buckets = 16;
  while (buckets < n * 2) buckets <<= 1;
  const uint64_t mask = buckets - 1;
  std::vector<int32_t> heads(buckets, -1);
  std::vector<int32_t> nxt(n, -1);
  std::vector<uint32_t> survivors;
  survivors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t bkt = h[i] & mask;
    bool dup = false;
    for (int32_t j = heads[bkt]; j >= 0; j = nxt[j]) {
      if (h[j] != h[i]) continue;
      bool eq = true;
      for (const ColumnVector& c : b.cols) {
        if (c.CompareCells(i, c, j) != 0) {
          eq = false;
          break;
        }
      }
      if (eq) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      survivors.push_back(static_cast<uint32_t>(i));
      nxt[i] = heads[bkt];  // only survivors enter the chains
      heads[bkt] = static_cast<int32_t>(i);
    }
  }
  // Same sorted output as the row engine's DedupRows.
  std::sort(survivors.begin(), survivors.end(),
            [&](uint32_t x, uint32_t y) {
              for (const ColumnVector& c : b.cols) {
                const int cmp = c.CompareCells(x, c, y);
                if (cmp != 0) return cmp < 0;
              }
              return false;
            });
  std::vector<std::vector<Value>> out;
  out.reserve(survivors.size());
  for (uint32_t i : survivors) out.push_back(std::move((*rows)[i]));
  rows->swap(out);
  return true;
}

Result<bool> RowSet::Insert(const std::vector<Value>& row) {
  if (batch_.rows == 0) batch_.cols.resize(row.size());
  if (row.size() != batch_.cols.size()) {
    return Status::InvalidArgument(
        "ragged rows: a row of width " + std::to_string(row.size()) +
        " among rows of width " + std::to_string(batch_.cols.size()));
  }
  uint64_t h = kRowHashSeed;
  for (const Value& v : row) h = Mix64(h ^ HashValueCell(v));
  if (heads_.size() < 2 * (batch_.rows + 1)) {
    // Doubles the buckets and rechains every row held.
    heads_.assign(std::max<size_t>(16, heads_.size() * 2), -1);
    for (size_t j = 0; j < batch_.rows; ++j) {
      const size_t bkt = hashes_[j] & (heads_.size() - 1);
      next_[j] = heads_[bkt];
      heads_[bkt] = static_cast<int32_t>(j);
    }
  }
  const size_t bkt = h & (heads_.size() - 1);
  for (int32_t j = heads_[bkt]; j >= 0; j = next_[j]) {
    if (hashes_[j] != h) continue;
    size_t c = 0;
    while (c < row.size() &&
           value::Compare(batch_.cols[c].ValueAt(j), row[c]) == 0) {
      ++c;
    }
    if (c == row.size()) return false;
  }
  hashes_.push_back(h);
  next_.push_back(heads_[bkt]);
  heads_[bkt] = static_cast<int32_t>(batch_.rows);
  for (size_t c = 0; c < row.size(); ++c) batch_.cols[c].AppendValue(row[c]);
  ++batch_.rows;
  return true;
}

}  // namespace eds::exec::vec
