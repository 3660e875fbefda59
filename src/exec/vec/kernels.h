#ifndef EDS_EXEC_VEC_KERNELS_H_
#define EDS_EXEC_VEC_KERNELS_H_

#include <vector>

#include "common/result.h"
#include "exec/vec/column.h"

namespace eds::exec::vec {

// Batched primitives mirroring the scalar builtins exactly: same 3VL
// behaviour, same value::Compare ordering, same errors. Any error returned
// here makes the executor fall back to the row path for the operator, so
// kernels may report errors coarsely — the row path then reproduces the
// precise per-row diagnostic.

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
// in order. Errors when a row that neither operand decides has a
// non-boolean operand and no NULL (the scalar evaluator's TypeError).
Result<ColumnVector> Connect(Connective op, ColumnView a, ColumnView b);
Result<ColumnVector> NotColumn(ColumnView a);

// WHERE semantics over a predicate view: position i selected iff the cell
// is a valid TRUE (NULL and FALSE dropped); a valid non-boolean cell is a
// TypeError, as in EvalPredicate.
Result<SelectionVector> SelectTrue(ColumnView pred);

// Join-key hashability of a column: numeric lanes hash via the widened
// double (consistent with Int(2) == Real(2.0)), bool and object-reference
// lanes directly, generic columns only when every non-null value is of one
// of those classes or every one a string. kNone keys force the conjunct
// into the residual (nested-loop) filter.
// kAny marks a column with no non-null values (kNullOnly): its keys never
// match anything, so it is compatible with every class.
// A view classifies by the rows it reads.
enum class HashClass { kNone, kNumeric, kBool, kString, kObjectRef, kAny };
HashClass ClassifyKey(ColumnView col);
// Compatible when both sides can hash equal values to equal hashes.
bool HashCompatible(HashClass a, HashClass b);
// The class HashJoin should hash a (left, right) key pair under: the
// concrete side's class when one side is kAny.
HashClass CombineClasses(HashClass a, HashClass b);
// Hash of a non-null cell under `cls` (caller guarantees !IsNull(i)).
uint64_t HashCell(const ColumnVector& col, size_t i, HashClass cls);

// Matched row-index pairs of a join stage, in (left asc, right asc)
// lexicographic order — exactly the row engine's nested-loop emission
// order.
struct JoinPairs {
  SelectionVector left, right;
};

// Hash equi-join over parallel key views (all conjuncts must match; NULL
// keys never match). `classes[k]` is CombineClasses over the k-th key pair.
// The smaller side is built into the table and the other side probes it,
// hashing each probe row as it goes; when the left side is the one built,
// a stable counting sort by left row restores the (left asc, right asc)
// order. Errors with Unsupported when the output would exceed `max_pairs`
// (caller falls back to the row path rather than materializing a blow-up).
Result<JoinPairs> HashJoin(const std::vector<ColumnView>& left_keys,
                           const std::vector<ColumnView>& right_keys,
                           const std::vector<HashClass>& classes,
                           size_t max_pairs);

// Full cross product of row indices, same order/cap contract.
Result<JoinPairs> CrossPairs(size_t left_rows, size_t right_rows,
                             size_t max_pairs);

// Set-semantics dedup of `rows` in place (sorted output, identical to
// DedupRows) via columnar hash grouping. Returns false when the input is
// too small or ragged to be worth the conversion — the caller then runs
// the sort-based row dedup. `batches` (may be null) counts kernel batches.
bool VecDedupRows(std::vector<std::vector<value::Value>>* rows,
                  size_t* batches);

// Distinct rows kept as a batch, in the order first inserted, with a hash
// index over them: VecDedupRows's row hash, and value::Compare equality
// per cell. A FIX keeps its total this way, so the batch grows in place
// and keeps its address.
class RowSet {
 public:
  // Appends `row` unless a Compare-equal row is held already; true when
  // appended. InvalidArgument when its width differs from the rows held.
  Result<bool> Insert(const std::vector<value::Value>& row);
  const Batch& batch() const { return batch_; }

 private:
  Batch batch_;
  std::vector<uint64_t> hashes_;  // row hash of each row held
  std::vector<int32_t> heads_;    // bucket -> last row in it, or -1
  std::vector<int32_t> next_;     // row -> previous row in its bucket
};

}  // namespace eds::exec::vec

#endif  // EDS_EXEC_VEC_KERNELS_H_
