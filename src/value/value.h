#ifndef EDS_VALUE_VALUE_H_
#define EDS_VALUE_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace eds::value {

// Runtime value kinds. Mirrors the ESQL data model: scalar values, the
// generic collection ADTs of Fig. 1 (set, bag, list, array), nested tuples,
// and references to objects (values with identity live in an ObjectHeap and
// are reached through kObjectRef).
enum class ValueKind {
  kNull = 0,
  kBool,
  kInt,
  kReal,
  kString,
  kTuple,
  kSet,
  kBag,
  kList,
  kArray,
  kObjectRef,
};

const char* ValueKindName(ValueKind kind);

class Value;

// Attribute names of a named tuple, shared and immutable: every object of
// one type points at its type's list (types::Type::object_field_names)
// rather than carrying its own copy.
using FieldNames = std::shared_ptr<const std::vector<std::string>>;

// Payload of a tuple value. `names` is either null (positional tuple, the
// common case for relation rows) or a non-empty list parallel to `values`
// (nested tuples whose attributes are accessed by name, e.g. object state).
struct TupleData {
  FieldNames names;
  std::vector<Value> values;
};

// Value is a small value-semantic variant. Collections and tuples share
// their payload via shared_ptr, so copying a Value is O(1); all payloads are
// treated as immutable after construction (mutating operations return new
// Values). Sets and bags are kept in canonical sorted order (sets
// deduplicated), which makes deep equality and set operations linear merges.
namespace internal {
// Per-thread count of Value copy-constructions/assignments. Copies are
// O(1) (shared_ptr bumps) but not free; the executor samples this around
// Execute() and surfaces it as the exec.value_copies metric so copy
// regressions in materialization paths are visible. Moves are uncounted.
extern thread_local uint64_t value_copies;
}  // namespace internal

// This thread's running Value copy count (monotonic; compare deltas).
uint64_t ValueCopyCount();

class Value {
 public:
  Value() : kind_(ValueKind::kNull) {}

  Value(const Value& other)
      : kind_(other.kind_), scalar_(other.scalar_), payload_(other.payload_) {
    ++internal::value_copies;
  }
  Value& operator=(const Value& other) {
    kind_ = other.kind_;
    scalar_ = other.scalar_;
    payload_ = other.payload_;
    ++internal::value_copies;
    return *this;
  }
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Real(double d);
  static Value String(std::string s);
  static Value ObjectRef(uint64_t oid);

  // Positional tuple.
  static Value Tuple(std::vector<Value> values);
  // Named tuple; `names` must be parallel to `values`. The second form
  // shares an existing name list instead of allocating one.
  static Value NamedTuple(std::vector<std::string> names,
                          std::vector<Value> values);
  static Value NamedTuple(FieldNames names, std::vector<Value> values);

  // Builds a set from arbitrary elements: sorts and deduplicates.
  static Value Set(std::vector<Value> elements);
  // Builds a bag: sorts, keeps duplicates.
  static Value Bag(std::vector<Value> elements);
  static Value List(std::vector<Value> elements);
  static Value Array(std::vector<Value> elements);

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }
  bool is_collection() const {
    return kind_ == ValueKind::kSet || kind_ == ValueKind::kBag ||
           kind_ == ValueKind::kList || kind_ == ValueKind::kArray;
  }
  bool is_numeric() const {
    return kind_ == ValueKind::kInt || kind_ == ValueKind::kReal;
  }

  // Accessors; the caller must check kind() first (checked in debug builds).
  bool AsBool() const;
  int64_t AsInt() const;
  double AsReal() const;           // also accepts kInt (widening)
  const std::string& AsString() const;
  uint64_t AsObjectRef() const;

  // Tuple access.
  const TupleData& tuple() const;
  size_t TupleSize() const { return tuple().values.size(); }
  const Value& Field(size_t i) const { return tuple().values[i]; }
  // Named field lookup (case-insensitive); returns nullptr if absent or if
  // this tuple is positional.
  const Value* FindField(const std::string& name) const;

  // Collection element access (set/bag/list/array).
  const std::vector<Value>& elements() const;
  size_t size() const { return elements().size(); }

  // Renders like ESQL literals: 17, 'abc', {1, 2}, [a, b], <oid:42>,
  // (Name: 'Quinn', Salary: 12000).
  std::string ToString() const;

 private:
  // Which payload is live depends on kind_: the scalar kinds use one
  // member of scalar_, and kString/kTuple/collections point payload_ at a
  // std::string, a TupleData or a std::vector<Value>. One shared_ptr
  // rather than three keeps stored rows, kGeneric lanes and term nodes
  // small.
  union Scalar {
    bool b;
    int64_t i;
    double d;
    uint64_t oid;
  };

  template <typename T>
  const T& payload() const {
    return *static_cast<const T*>(payload_.get());
  }

  ValueKind kind_;
  Scalar scalar_{.i = 0};
  std::shared_ptr<const void> payload_;
};

// Total order over all values: kinds rank first (null < bool < numeric <
// string < tuple < set < bag < list < array < objectref), then payloads
// compare lexicographically / numerically. kInt and kReal compare as
// numbers, so Int(2) == Real(2.0). Returns <0, 0, >0.
int Compare(const Value& a, const Value& b);

bool operator==(const Value& a, const Value& b);
inline bool operator!=(const Value& a, const Value& b) { return !(a == b); }
inline bool operator<(const Value& a, const Value& b) {
  return Compare(a, b) < 0;
}

std::ostream& operator<<(std::ostream& os, const Value& v);

static_assert(sizeof(Value) == 32,
              "Value is a kind, one scalar word and one shared payload");

}  // namespace eds::value

#endif  // EDS_VALUE_VALUE_H_
