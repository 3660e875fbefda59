#ifndef EDS_EXEC_VEC_KERNELS_H_
#define EDS_EXEC_VEC_KERNELS_H_

#include <vector>

#include "common/result.h"
#include "exec/vec/column.h"

namespace eds::exec::vec {

// Batched primitives mirroring the scalar builtins exactly: same 3VL
// behaviour, same value::Compare ordering, same errors. A kernel that
// meets a row it cannot evaluate stops there and returns the rows before
// it, so its caller knows the first row that fails and raises the scalar
// evaluator's error for it.

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// EQ/NE/LT/LE/GT/GE over two views of equal length: NULL operand -> NULL,
// otherwise Bool(pred(value::Compare)). Never errors (comparisons are
// defined across kinds via the total order). The result has one cell per
// view row.
ColumnVector CompareColumns(CmpOp op, ColumnView a, ColumnView b);
// The same against one value: CompareColumns(op, a, b) for a column b
// holding `c` in every row, without building that column.
ColumnVector CompareColumnToValue(CmpOp op, ColumnView a,
                                  const value::Value& c);
// WHERE over that comparison, with no predicate column: the rows of `a`
// (view positions, ascending) whose comparison is TRUE.
SelectionVector SelectCompareToValue(CmpOp op, ColumnView a,
                                     const value::Value& c);

// Three-valued AND and OR with the scalar evaluator's short circuit: a row
// whose left operand is the connective's dominant value (FALSE for AND,
// TRUE for OR) is decided before the right operand is looked at, and
// before any type check, so (FALSE AND 7) is FALSE.
enum class Connective { kAnd, kOr };
// The rows of `a` (view positions, ascending) that `op` leaves undecided:
// those whose cell is not the dominant boolean.
SelectionVector UndecidedRows(Connective op, ColumnView a);
// `op` over `a` and `b`, where `b` holds one cell per undecided row of `a`,
// in order. The result stops short at the first row that neither operand
// decides with a non-boolean operand and no NULL (the scalar evaluator's
// TypeError): it holds one cell per row before it.
ColumnVector Connect(Connective op, ColumnView a, ColumnView b);
// NOT, stopping short the same way at the first non-boolean cell.
ColumnVector NotColumn(ColumnView a);

// WHERE semantics over a predicate view: position i selected iff the cell
// is a valid TRUE (NULL and FALSE dropped). A valid non-boolean cell, a
// TypeError in EvalPredicate, stops the scan; `*read` is the number of
// rows read before it (pred.size() when there is none).
SelectionVector SelectTrue(ColumnView pred, size_t* read);

// Matched row-index pairs of a join stage, in (left asc, right asc)
// lexicographic order — exactly a nested loop's emission order.
struct JoinPairs {
  SelectionVector left, right;
};

// Hash equi-join over parallel key views (all conjuncts must match; NULL
// keys never match). Key rows hash and compare as RowSet's rows do, so
// keys of any kind, in any lanes, join when value::Compare calls them
// equal. The smaller side is built into the table and the other side
// probes it, hashing each probe row as it goes; when the left side is the
// one built, a stable counting sort by left row restores the (left asc,
// right asc) order. False, with `out` partly built, when the output would
// exceed `max_pairs` or the built side 2^30 rows: the caller joins fewer
// left rows at a time.
bool HashJoin(const std::vector<ColumnView>& left_keys,
              const std::vector<ColumnView>& right_keys, size_t max_pairs,
              JoinPairs* out);

// Full cross product of row indices, same order/cap contract.
bool CrossPairs(size_t left_rows, size_t right_rows, size_t max_pairs,
                JoinPairs* out);

// The rows of `b` sorted ascending by value::Compare, column by column.
Batch Sorted(const Batch& b);

// Distinct rows kept as a batch, in the order first inserted (the first of
// each Compare-equal group), with a hash index over them. A FIX keeps its
// total this way, so the batch grows in place and keeps its address; the
// set operations dedup through one, and NEST groups through one.
class RowSet {
 public:
  // Appends each row of `rows` that no Compare-equal row held matches.
  // InvalidArgument when their width differs from the rows held.
  Status Insert(const Batch& rows);
  // The index in batch() of the row held Compare-equal to row r of
  // `cols`, appending that row first when none is. `cols` has the width of
  // the rows held, if any.
  size_t Add(const std::vector<ColumnView>& cols, size_t r);
  // True when a row Compare-equal to row r of `cols` is held.
  bool Contains(const std::vector<ColumnView>& cols, size_t r) const;
  const Batch& batch() const { return batch_; }

 private:
  // The index of the row held equal to row r of `cols`, whose row hash is
  // `h`, or -1.
  int32_t Find(const std::vector<ColumnView>& cols, size_t r,
               uint64_t h) const;

  Batch batch_;
  std::vector<uint64_t> hashes_;  // row hash of each row held
  std::vector<int32_t> heads_;    // bucket -> last row in it, or -1
  std::vector<int32_t> next_;     // row -> previous row in its bucket
};

}  // namespace eds::exec::vec

#endif  // EDS_EXEC_VEC_KERNELS_H_
