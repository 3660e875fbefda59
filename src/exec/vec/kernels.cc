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

// Hash of a NULL cell; only compared against other NULLs of the same
// column, so any fixed constant works.
constexpr uint64_t kNullCellHash = 0x7fb5d329728ea185ULL;

constexpr uint64_t kRowHashSeed = 0x84222325cbf29ce4ULL;

template <typename Pred>
ColumnVector CompareImpl(const ColumnVector& a, const ColumnVector& b,
                         Pred pred) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  const bool clean = a.all_valid() && b.all_valid();
  if (clean && a.lane() == Lane::kInt64 && b.lane() == Lane::kInt64) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t x = a.IntAt(i), y = b.IntAt(i);
      out[i] = pred(x < y ? -1 : (x > y ? 1 : 0)) ? 1 : 0;
    }
  } else if (clean && a.is_numeric_lane() && b.is_numeric_lane()) {
    for (size_t i = 0; i < n; ++i) {
      const double x = a.NumericAt(i), y = b.NumericAt(i);
      out[i] = pred(x < y ? -1 : (x > y ? 1 : 0)) ? 1 : 0;
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      if (a.IsNull(i) || b.IsNull(i)) {
        ++nulls;
        continue;
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = pred(a.CompareCells(i, b, i)) ? 1 : 0;
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

// Cell i of `a` against `c` under `pred`, for every row; `cmp(i)` is
// value::Compare(a's cell i, c) for a non-null cell.
template <typename Pred, typename Cmp>
ColumnVector CompareEachToValue(const ColumnVector& a, Pred pred, Cmp cmp) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  if (a.all_valid()) {
    for (size_t i = 0; i < n; ++i) out[i] = pred(cmp(i)) ? 1 : 0;
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      if (a.IsNull(i)) {
        ++nulls;
        continue;
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = pred(cmp(i)) ? 1 : 0;
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

template <typename Pred>
ColumnVector CompareToValueImpl(const ColumnVector& a, const Value& c,
                                Pred pred) {
  if (c.is_null()) {
    const size_t n = a.size();
    return ColumnVector::FromBoolData(std::vector<uint8_t>(n, 0),
                                      std::vector<uint64_t>((n + 63) >> 6, 0),
                                      n);
  }
  auto sign = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  if (a.lane() == Lane::kInt64 && c.kind() == ValueKind::kInt) {
    const int64_t y = c.AsInt();
    return CompareEachToValue(a, pred,
                              [&](size_t i) { return sign(a.IntAt(i), y); });
  }
  if (a.is_numeric_lane() && c.is_numeric()) {
    const double y = c.AsReal();
    return CompareEachToValue(
        a, pred, [&](size_t i) { return sign(a.NumericAt(i), y); });
  }
  if (a.lane() == Lane::kObjectRef && c.kind() == ValueKind::kObjectRef) {
    const uint64_t y = c.AsObjectRef();
    return CompareEachToValue(
        a, pred, [&](size_t i) { return sign(a.ObjectRefAt(i), y); });
  }
  if (a.lane() == Lane::kGeneric) {
    return CompareEachToValue(a, pred, [&](size_t i) {
      return value::Compare(a.GenericAt(i), c);
    });
  }
  return CompareEachToValue(
      a, pred, [&](size_t i) { return value::Compare(a.ValueAt(i), c); });
}

// Calls `impl` with the predicate over value::Compare's sign that `op`
// names.
template <typename Impl>
ColumnVector WithPredicate(CmpOp op, Impl impl) {
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

}  // namespace

ColumnVector CompareColumns(CmpOp op, const ColumnVector& a,
                            const ColumnVector& b) {
  return WithPredicate(op, [&](auto pred) { return CompareImpl(a, b, pred); });
}

ColumnVector CompareColumnToValue(CmpOp op, const ColumnVector& a,
                                  const Value& c) {
  return WithPredicate(
      op, [&](auto pred) { return CompareToValueImpl(a, c, pred); });
}

Result<ColumnVector> AndColumns(const ColumnVector& a, const ColumnVector& b) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  if (a.lane() == Lane::kBool && b.lane() == Lane::kBool && a.all_valid() &&
      b.all_valid()) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = (a.BoolAt(i) && b.BoolAt(i)) ? 1 : 0;
    }
  } else if (a.lane() == Lane::kBool && b.lane() == Lane::kBool) {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const bool an = a.IsNull(i), bn = b.IsNull(i);
      // FALSE dominates NULL, exactly as in the scalar LogicalAnd.
      if ((!an && !a.BoolAt(i)) || (!bn && !b.BoolAt(i))) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
      } else if (an || bn) {
        ++nulls;
      } else {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
        out[i] = 1;
      }
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const Value x = a.ValueAt(i);
      const Value y = b.ValueAt(i);
      const bool has_false =
          (x.kind() == ValueKind::kBool && !x.AsBool()) ||
          (y.kind() == ValueKind::kBool && !y.AsBool());
      if (has_false) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
        continue;
      }
      if (x.is_null() || y.is_null()) {
        ++nulls;
        continue;
      }
      if (x.kind() != ValueKind::kBool || y.kind() != ValueKind::kBool) {
        return Status::TypeError("AND requires boolean operands");
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = 1;  // neither false, neither null, both bool => both true
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

Result<ColumnVector> OrColumns(const ColumnVector& a, const ColumnVector& b) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  if (a.lane() == Lane::kBool && b.lane() == Lane::kBool && a.all_valid() &&
      b.all_valid()) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = (a.BoolAt(i) || b.BoolAt(i)) ? 1 : 0;
    }
  } else if (a.lane() == Lane::kBool && b.lane() == Lane::kBool) {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const bool an = a.IsNull(i), bn = b.IsNull(i);
      // TRUE dominates NULL, exactly as in the scalar LogicalOr.
      if ((!an && a.BoolAt(i)) || (!bn && b.BoolAt(i))) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
        out[i] = 1;
      } else if (an || bn) {
        ++nulls;
      } else {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const Value x = a.ValueAt(i);
      const Value y = b.ValueAt(i);
      const bool has_true = (x.kind() == ValueKind::kBool && x.AsBool()) ||
                            (y.kind() == ValueKind::kBool && y.AsBool());
      if (has_true) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
        out[i] = 1;
        continue;
      }
      if (x.is_null() || y.is_null()) {
        ++nulls;
        continue;
      }
      if (x.kind() != ValueKind::kBool || y.kind() != ValueKind::kBool) {
        return Status::TypeError("OR requires boolean operands");
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

Result<ColumnVector> NotColumn(const ColumnVector& a) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  if (a.lane() == Lane::kBool && a.all_valid()) {
    for (size_t i = 0; i < n; ++i) out[i] = a.BoolAt(i) ? 0 : 1;
  } else if (a.lane() == Lane::kBool || a.lane() == Lane::kNullOnly) {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      if (a.IsNull(i)) {
        ++nulls;
        continue;
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = a.BoolAt(i) ? 0 : 1;
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const Value x = a.ValueAt(i);
      if (x.is_null()) {
        ++nulls;
        continue;
      }
      if (x.kind() != ValueKind::kBool) {
        return Status::TypeError("NOT requires a boolean operand");
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = x.AsBool() ? 0 : 1;
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

Result<SelectionVector> SelectTrue(const ColumnVector& pred) {
  const size_t n = pred.size();
  SelectionVector sel;
  switch (pred.lane()) {
    case Lane::kNullOnly:
      return sel;  // all NULL: nothing selected
    case Lane::kBool: {
      // Counted first, so the selection holds the surviving rows and no
      // more: a selective filter over a large table keeps a few indices.
      auto selected = [&pred](size_t i) {
        return pred.BoolAt(i) && (pred.all_valid() || !pred.IsNull(i));
      };
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) hits += selected(i) ? 1 : 0;
      sel.reserve(hits);
      for (size_t i = 0; i < n; ++i) {
        if (selected(i)) sel.push_back(static_cast<uint32_t>(i));
      }
      return sel;
    }
    case Lane::kGeneric:
      for (size_t i = 0; i < n; ++i) {
        const Value& v = pred.GenericAt(i);
        if (v.is_null()) continue;
        if (v.kind() != ValueKind::kBool) {
          return Status::TypeError("qualification is not a boolean");
        }
        if (v.AsBool()) sel.push_back(static_cast<uint32_t>(i));
      }
      return sel;
    default:
      // A whole column of valid non-booleans: the scalar path would raise
      // the TypeError on the first row.
      if (n == 0 || pred.null_count() == n) return sel;
      return Status::TypeError("qualification is not a boolean");
  }
}

HashClass ClassifyKey(const ColumnVector& col) {
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
  for (size_t i = 0; i < col.size(); ++i) {
    const Value& v = col.GenericAt(i);
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

Result<JoinPairs> HashJoin(const std::vector<const ColumnVector*>& left_keys,
                           const std::vector<const ColumnVector*>& right_keys,
                           const std::vector<HashClass>& classes,
                           size_t left_rows, size_t right_rows,
                           size_t max_pairs) {
  JoinPairs out;
  if (left_rows == 0 || right_rows == 0) return out;
  if (right_rows > (size_t{1} << 30) || left_rows > (size_t{1} << 30)) {
    return Status::Unsupported("hash join input too large");
  }
  const size_t nkeys = left_keys.size();
  size_t buckets = 16;
  while (buckets < right_rows * 2) buckets <<= 1;
  const uint64_t mask = buckets - 1;
  std::vector<int32_t> heads(buckets, -1);
  std::vector<int32_t> nxt(right_rows, -1);
  std::vector<uint64_t> rhash(right_rows, 0);
  std::vector<uint8_t> rnull(right_rows, 0);
  for (size_t j = 0; j < right_rows; ++j) {
    uint64_t h = kRowHashSeed;
    for (size_t k = 0; k < nkeys; ++k) {
      if (right_keys[k]->IsNull(j)) {
        rnull[j] = 1;
        break;
      }
      h = Mix64(h ^ HashCell(*right_keys[k], j, classes[k]));
    }
    rhash[j] = h;
  }
  // Insert build rows in reverse so each bucket chain is ascending; probe
  // traversal then emits matches in the row engine's nested-loop order.
  for (size_t j = right_rows; j-- > 0;) {
    if (rnull[j]) continue;
    const size_t b = rhash[j] & mask;
    nxt[j] = heads[b];
    heads[b] = static_cast<int32_t>(j);
  }
  for (size_t i = 0; i < left_rows; ++i) {
    uint64_t h = kRowHashSeed;
    bool any_null = false;
    for (size_t k = 0; k < nkeys; ++k) {
      if (left_keys[k]->IsNull(i)) {
        any_null = true;
        break;
      }
      h = Mix64(h ^ HashCell(*left_keys[k], i, classes[k]));
    }
    if (any_null) continue;
    for (int32_t j = heads[h & mask]; j >= 0; j = nxt[j]) {
      if (rhash[j] != h) continue;
      bool eq = true;
      for (size_t k = 0; k < nkeys; ++k) {
        if (left_keys[k]->CompareCells(i, *right_keys[k], j) != 0) {
          eq = false;
          break;
        }
      }
      if (!eq) continue;
      if (out.left.size() >= max_pairs) {
        return Status::Unsupported("hash join output exceeds batch cap");
      }
      out.left.push_back(static_cast<uint32_t>(i));
      out.right.push_back(static_cast<uint32_t>(j));
    }
  }
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
  // Row hashes, accumulated column-major. Each column uses one hashing
  // scheme for all its cells, so Compare-equal cells within a column hash
  // equal (generic columns go through HashConstantValue, which already
  // folds Int(2)/Real(2.0)).
  std::vector<uint64_t> h(n, kRowHashSeed);
  for (const ColumnVector& c : b.cols) {
    switch (c.lane()) {
      case Lane::kInt64:
        for (size_t i = 0; i < n; ++i) {
          const uint64_t cell =
              c.IsNull(i) ? kNullCellHash
                          : Mix64(static_cast<uint64_t>(c.IntAt(i)));
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
              c.IsNull(i) ? kNullCellHash : Mix64(c.BoolAt(i) ? 3 : 7);
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
          const Value& v = c.GenericAt(i);
          const uint64_t cell =
              v.is_null() ? kNullCellHash : term::internal::HashConstantValue(v);
          h[i] = Mix64(h[i] ^ cell);
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

}  // namespace eds::exec::vec
