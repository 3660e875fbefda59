#ifndef EDS_VALUE_VALUE_H_
#define EDS_VALUE_VALUE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
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

// Value is a small value-semantic variant. Strings of up to
// kInlineStringMax bytes live inside the Value; longer strings, tuples and
// collections live in a shared payload, so copying a Value is O(1); all
// payloads are treated as immutable after construction (mutating
// operations return new Values). Sets and bags are kept in canonical
// sorted order (sets deduplicated), which makes deep equality and set
// operations linear merges.
namespace internal {
// Per-thread count of Value copy-constructions/assignments. Copies are
// O(1) (a reference-count bump at most) but not free; the executor samples
// this around Execute() and surfaces it as the exec.value_copies metric so
// copy regressions in materialization paths are visible. Moves are
// uncounted. Defined inline with a constant initializer, so every copy
// site addresses the counter directly, with no TLS wrapper call.
inline thread_local uint64_t value_copies = 0;

// Header of every shared payload: its reference count. The Value that
// points at a payload knows the payload's type from its kind, so payloads
// carry no vtable and no type tag.
struct Payload {
  mutable std::atomic<uint32_t> refs{1};
};
}  // namespace internal

// This thread's running Value copy count (monotonic; compare deltas).
uint64_t ValueCopyCount();

class Value {
 public:
  // The longest string kept inline. A string that fits is always inline,
  // so every string has one representation.
  static constexpr size_t kInlineStringMax = 15;

  Value() noexcept = default;

  Value(const Value& other) noexcept {
    CopyBits(other);
    if (has_payload()) {
      word_.payload->refs.fetch_add(1, std::memory_order_relaxed);
    }
    ++internal::value_copies;
  }
  Value& operator=(const Value& other) noexcept {
    Value(other).swap(*this);
    return *this;
  }
  Value(Value&& other) noexcept {
    CopyBits(other);
    other.tag_ = 0;
  }
  Value& operator=(Value&& other) noexcept {
    Value(std::move(other)).swap(*this);
    return *this;
  }
  ~Value() {
    if (has_payload()) ReleasePayload();
  }

  void swap(Value& other) noexcept {
    Value tmp(std::move(other));
    other.CopyBits(*this);
    CopyBits(tmp);
    tmp.tag_ = 0;
  }

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Real(double d);
  static Value String(std::string_view s);
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

  ValueKind kind() const {
    const uint8_t rep = tag_ & 0xF;
    return static_cast<ValueKind>(
        rep == kHeapString ? static_cast<uint8_t>(ValueKind::kString) : rep);
  }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_collection() const {
    const ValueKind k = kind();
    return k == ValueKind::kSet || k == ValueKind::kBag ||
           k == ValueKind::kList || k == ValueKind::kArray;
  }
  bool is_numeric() const {
    const ValueKind k = kind();
    return k == ValueKind::kInt || k == ValueKind::kReal;
  }

  // Accessors; the caller must check kind() first (checked in debug builds).
  bool AsBool() const;
  int64_t AsInt() const;
  double AsReal() const;           // also accepts kInt (widening)
  // Views this Value's bytes: valid while this Value lives unmoved (an
  // inline string's bytes are the Value itself).
  std::string_view AsString() const;
  uint64_t AsObjectRef() const;

  // Tuple access.
  const TupleData& tuple() const;
  size_t TupleSize() const { return tuple().values.size(); }
  const Value& Field(size_t i) const { return tuple().values[i]; }
  // Named field lookup (case-insensitive); returns nullptr if absent or if
  // this tuple is positional.
  const Value* FindField(std::string_view name) const;

  // Collection element access (set/bag/list/array).
  const std::vector<Value>& elements() const;
  size_t size() const { return elements().size(); }

  // Renders like ESQL literals: 17, 'abc', {1, 2}, [a, b], <oid:42>,
  // (Name: 'Quinn', Salary: 12000).
  std::string ToString() const;

 private:
  // Low nibble of tag_ for a kString whose bytes live in a payload; every
  // other value's low nibble is its ValueKind.
  static constexpr uint8_t kHeapString = 0xF;
  // The low nibbles whose word_ points at a payload: kTuple, the four
  // collections and kHeapString.
  static constexpr uint16_t kPayloadReps =
      (1u << static_cast<int>(ValueKind::kTuple)) |
      (1u << static_cast<int>(ValueKind::kSet)) |
      (1u << static_cast<int>(ValueKind::kBag)) |
      (1u << static_cast<int>(ValueKind::kList)) |
      (1u << static_cast<int>(ValueKind::kArray)) | (1u << kHeapString);

  union Word {
    bool b;
    int64_t i;
    double d;
    uint64_t oid;
    const internal::Payload* payload;
  };

  bool has_payload() const { return (kPayloadReps >> (tag_ & 0xF)) & 1u; }
  // An inline string's bytes run from byte 1 through byte 15, across
  // head_ and word_.
  const char* inline_chars() const {
    return reinterpret_cast<const char*>(this) + 1;
  }
  // Copies the bits alone; the caller settles the reference count.
  void CopyBits(const Value& other) {
    std::memcpy(static_cast<void*>(this), &other, sizeof(Value));
  }
  static Value WithPayload(ValueKind kind, const internal::Payload* payload);
  template <typename T>
  const T& payload() const {
    return *static_cast<const T*>(word_.payload);
  }
  // Drops this Value's reference; the last one frees the payload.
  void ReleasePayload() noexcept;

  // Byte 0: the representation in the low nibble (a ValueKind, or
  // kHeapString) and an inline string's length in the high nibble.
  uint8_t tag_ = 0;
  // Bytes 1-7: the first seven bytes of an inline string.
  char head_[7] = {};
  // Bytes 8-15: the scalar, the payload pointer, or an inline string's
  // bytes 7-14. Only the member the tag names is live.
  Word word_{.i = 0};
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

static_assert(sizeof(Value) == 16,
              "Value is a tag byte, seven inline bytes and one word");

}  // namespace eds::value

#endif  // EDS_VALUE_VALUE_H_
