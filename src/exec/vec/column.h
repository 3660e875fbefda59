#ifndef EDS_EXEC_VEC_COLUMN_H_
#define EDS_EXEC_VEC_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "value/value.h"

namespace eds::exec::vec {

// Row indices selected out of a batch, always ascending, so every gather
// preserves the row order the row-at-a-time executor would have produced —
// the vectorized path must be byte-identical, ordering included.
using SelectionVector = std::vector<uint32_t>;

// Physical layout of one column. A column starts undecided (kNullOnly) and
// commits to a typed lane on its first non-null value; a later value of any
// other kind demotes the whole column to kGeneric (boxed Values, still O(1)
// to copy). Int and Real deliberately do NOT share a lane: reconstructed
// Values must match the row engine's exactly, and widening Int(2) to 2.0
// would change the output representation. kObjectRef keeps object
// references as bare oids (8 bytes a cell instead of a 16-byte Value).
enum class Lane : uint8_t {
  kNullOnly,
  kInt64,
  kFloat64,
  kBool,
  kObjectRef,
  kGeneric
};

// One column of a batch: a typed data vector plus a validity bitmap (bit
// set = non-null). kGeneric columns carry nullness in the Values themselves
// and keep no bitmap.
class ColumnVector {
 public:
  ColumnVector() = default;

  Lane lane() const { return lane_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }
  bool all_valid() const { return null_count_ == 0; }
  bool is_numeric_lane() const {
    return lane_ == Lane::kInt64 || lane_ == Lane::kFloat64;
  }

  bool IsNull(size_t i) const {
    switch (lane_) {
      case Lane::kNullOnly: return true;
      case Lane::kGeneric: return generic_[i].is_null();
      default:
        return (valid_[i >> 6] & (uint64_t{1} << (i & 63))) == 0;
    }
  }
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double RealAt(size_t i) const { return reals_[i]; }
  // Either numeric lane widened to double (callers check is_numeric_lane()).
  double NumericAt(size_t i) const {
    return lane_ == Lane::kInt64 ? static_cast<double>(ints_[i]) : reals_[i];
  }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  uint64_t ObjectRefAt(size_t i) const { return oids_[i]; }
  const value::Value& GenericAt(size_t i) const { return generic_[i]; }

  // Reconstructs the cell as a Value identical to what the row engine
  // would carry for it.
  value::Value ValueAt(size_t i) const;

  // Capacity for n cells. On a kNullOnly column it is remembered and
  // applied when the first non-null value commits the lane.
  void Reserve(size_t n);
  void AppendNull();
  void AppendInt(int64_t v);
  void AppendReal(double v);
  void AppendBool(bool v);
  void AppendObjectRef(uint64_t oid);
  void AppendValue(const value::Value& v);

  // New column holding rows sel[0..k) of this one.
  ColumnVector Gather(const SelectionVector& sel) const;

  // Bulk assembly of a kBool column from kernel output: `data` holds 0/1
  // per row, `valid` the packed bitmap (empty means every row valid; must
  // otherwise be (n+63)/64 words with `null_count` clear bits within n).
  static ColumnVector FromBoolData(std::vector<uint8_t> data,
                                   std::vector<uint64_t> valid,
                                   size_t null_count);

  // value::Compare over cell i of this and cell j of `other`.
  int CompareCells(size_t i, const ColumnVector& other, size_t j) const;

 private:
  // Readies a non-null append of `lane`: commits a kNullOnly column to it
  // and demotes a column of another typed lane to kGeneric. True when the
  // cell belongs in the typed lane (its validity bit is then pushed), false
  // when it belongs in generic_.
  bool Admit(Lane lane);
  void DemoteToGeneric();
  void PushValidity(bool valid);

  Lane lane_ = Lane::kNullOnly;
  size_t size_ = 0;
  size_t null_count_ = 0;
  size_t reserved_ = 0;  // the last Reserve, for a lane committed later
  std::vector<int64_t> ints_;
  std::vector<double> reals_;
  std::vector<uint8_t> bools_;
  std::vector<uint64_t> oids_;
  std::vector<value::Value> generic_;
  std::vector<uint64_t> valid_;  // bit set = non-null (typed lanes only)
};

// A column read through a selection: row i of the view is cell (*sel)[i]
// of `*col`, or cell i when `sel` is null. Kernels take views, so a filter
// or a join key reads a stored column at the surviving rows without
// gathering it first.
struct ColumnView {
  ColumnView() = default;
  ColumnView(const ColumnVector& c) : col(&c) {}  // NOLINT: every row
  ColumnView(const ColumnVector* c, const SelectionVector* s)
      : col(c), sel(s) {}

  size_t size() const { return sel != nullptr ? sel->size() : col->size(); }
  // The cell index of view row i.
  size_t operator[](size_t i) const {
    return sel != nullptr ? (*sel)[i] : i;
  }

  const ColumnVector* col = nullptr;
  const SelectionVector* sel = nullptr;
};

// A batch: the columnar image of a Rows block. All columns share `rows`.
struct Batch {
  size_t rows = 0;
  std::vector<ColumnVector> cols;
  // Rows of differing widths, which no column layout fits, kept as they
  // are (`cols` then empty). Stored tables and fixpoint relations never
  // are; a derived SEARCH input can be, and only the row engine reads it.
  std::vector<std::vector<value::Value>> ragged;

  // False when the input is ragged (rows of differing arity); `out` is
  // then partly built.
  static bool FromRows(const std::vector<std::vector<value::Value>>& rows,
                       Batch* out);
  std::vector<std::vector<value::Value>> ToRows() const;
};

}  // namespace eds::exec::vec

#endif  // EDS_EXEC_VEC_COLUMN_H_
