#include "value/value.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace eds::value {

uint64_t ValueCopyCount() { return internal::value_copies; }

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull: return "NULL";
    case ValueKind::kBool: return "BOOLEAN";
    case ValueKind::kInt: return "INT";
    case ValueKind::kReal: return "REAL";
    case ValueKind::kString: return "CHAR";
    case ValueKind::kTuple: return "TUPLE";
    case ValueKind::kSet: return "SET";
    case ValueKind::kBag: return "BAG";
    case ValueKind::kList: return "LIST";
    case ValueKind::kArray: return "ARRAY";
    case ValueKind::kObjectRef: return "OBJECT";
  }
  return "?";
}

namespace {

// A long string's payload: the header, its length, then its bytes in the
// same block.
struct StringPayload : internal::Payload {
  size_t size = 0;
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
};

struct TuplePayload : internal::Payload {
  TupleData data;
};

struct ElementsPayload : internal::Payload {
  explicit ElementsPayload(std::vector<Value> e) : elements(std::move(e)) {}
  std::vector<Value> elements;
};

}  // namespace

Value Value::WithPayload(ValueKind kind, const internal::Payload* payload) {
  Value v;
  v.tag_ = static_cast<uint8_t>(kind);
  v.word_.payload = payload;
  return v;
}

void Value::ReleasePayload() noexcept {
  const internal::Payload* p = word_.payload;
  if (p->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  switch (tag_ & 0xF) {
    case kHeapString: {
      const auto* s = static_cast<const StringPayload*>(p);
      const size_t bytes = sizeof(StringPayload) + s->size;
      s->~StringPayload();
      ::operator delete(const_cast<StringPayload*>(s), bytes);
      return;
    }
    case static_cast<uint8_t>(ValueKind::kTuple):
      delete static_cast<const TuplePayload*>(p);
      return;
    default:
      delete static_cast<const ElementsPayload*>(p);
      return;
  }
}

Value Value::Bool(bool b) {
  Value v;
  v.tag_ = static_cast<uint8_t>(ValueKind::kBool);
  v.word_.b = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.tag_ = static_cast<uint8_t>(ValueKind::kInt);
  v.word_.i = i;
  return v;
}

Value Value::Real(double d) {
  Value v;
  v.tag_ = static_cast<uint8_t>(ValueKind::kReal);
  v.word_.d = d;
  return v;
}

Value Value::String(std::string_view s) {
  Value v;
  if (s.size() <= kInlineStringMax) {
    v.tag_ = static_cast<uint8_t>(static_cast<uint8_t>(ValueKind::kString) |
                                  (s.size() << 4));
    if (!s.empty()) {
      std::memcpy(reinterpret_cast<char*>(&v) + 1, s.data(), s.size());
    }
    return v;
  }
  void* block = ::operator new(sizeof(StringPayload) + s.size());
  auto* p = new (block) StringPayload;
  p->size = s.size();
  std::memcpy(static_cast<char*>(block) + sizeof(StringPayload), s.data(),
              s.size());
  v.tag_ = kHeapString;
  v.word_.payload = p;
  return v;
}

Value Value::ObjectRef(uint64_t oid) {
  Value v;
  v.tag_ = static_cast<uint8_t>(ValueKind::kObjectRef);
  v.word_.oid = oid;
  return v;
}

Value Value::Tuple(std::vector<Value> values) {
  return NamedTuple(FieldNames(), std::move(values));
}

Value Value::NamedTuple(std::vector<std::string> names,
                        std::vector<Value> values) {
  return NamedTuple(
      names.empty() ? FieldNames()
                    : std::make_shared<const std::vector<std::string>>(
                          std::move(names)),
      std::move(values));
}

Value Value::NamedTuple(FieldNames names, std::vector<Value> values) {
  assert(names == nullptr || names->size() == values.size());
  auto* p = new TuplePayload;
  // An empty list is a positional tuple, so only a non-empty one is kept.
  if (names != nullptr && !names->empty()) p->data.names = std::move(names);
  p->data.values = std::move(values);
  return WithPayload(ValueKind::kTuple, p);
}

Value Value::Set(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  return WithPayload(ValueKind::kSet,
                     new ElementsPayload(std::move(elements)));
}

Value Value::Bag(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  return WithPayload(ValueKind::kBag,
                     new ElementsPayload(std::move(elements)));
}

Value Value::List(std::vector<Value> elements) {
  return WithPayload(ValueKind::kList,
                     new ElementsPayload(std::move(elements)));
}

Value Value::Array(std::vector<Value> elements) {
  return WithPayload(ValueKind::kArray,
                     new ElementsPayload(std::move(elements)));
}

bool Value::AsBool() const {
  assert(kind() == ValueKind::kBool);
  return word_.b;
}

int64_t Value::AsInt() const {
  assert(kind() == ValueKind::kInt);
  return word_.i;
}

double Value::AsReal() const {
  if (kind() == ValueKind::kInt) return static_cast<double>(word_.i);
  assert(kind() == ValueKind::kReal);
  return word_.d;
}

std::string_view Value::AsString() const {
  assert(kind() == ValueKind::kString);
  if (tag_ == kHeapString) {
    const StringPayload& s = payload<StringPayload>();
    return {s.data(), s.size};
  }
  return {inline_chars(), static_cast<size_t>(tag_ >> 4)};
}

uint64_t Value::AsObjectRef() const {
  assert(kind() == ValueKind::kObjectRef);
  return word_.oid;
}

const TupleData& Value::tuple() const {
  assert(kind() == ValueKind::kTuple);
  return payload<TuplePayload>().data;
}

const Value* Value::FindField(std::string_view name) const {
  if (kind() != ValueKind::kTuple) return nullptr;
  const TupleData& t = tuple();
  if (t.names == nullptr) return nullptr;
  const std::vector<std::string>& names = *t.names;
  for (size_t i = 0; i < names.size(); ++i) {
    if (EqualsIgnoreCase(names[i], name)) return &t.values[i];
  }
  return nullptr;
}

const std::vector<Value>& Value::elements() const {
  assert(is_collection());
  return payload<ElementsPayload>().elements;
}

namespace {

int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kNull: return 0;
    case ValueKind::kBool: return 1;
    case ValueKind::kInt: return 2;
    case ValueKind::kReal: return 2;  // numerics compare together
    case ValueKind::kString: return 3;
    case ValueKind::kTuple: return 4;
    case ValueKind::kSet: return 5;
    case ValueKind::kBag: return 6;
    case ValueKind::kList: return 7;
    case ValueKind::kArray: return 8;
    case ValueKind::kObjectRef: return 9;
  }
  return 10;
}

int CompareVectors(const std::vector<Value>& a, const std::vector<Value>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = Compare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

int Compare(const Value& a, const Value& b) {
  int ra = KindRank(a.kind()), rb = KindRank(b.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool:
      return Cmp(a.AsBool(), b.AsBool());
    case ValueKind::kInt:
    case ValueKind::kReal:
      if (a.kind() == ValueKind::kInt && b.kind() == ValueKind::kInt) {
        return Cmp(a.AsInt(), b.AsInt());
      }
      return Cmp(a.AsReal(), b.AsReal());
    case ValueKind::kString: {
      const int c = a.AsString().compare(b.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueKind::kTuple:
      return CompareVectors(a.tuple().values, b.tuple().values);
    case ValueKind::kSet:
    case ValueKind::kBag:
    case ValueKind::kList:
    case ValueKind::kArray:
      return CompareVectors(a.elements(), b.elements());
    case ValueKind::kObjectRef:
      return Cmp(a.AsObjectRef(), b.AsObjectRef());
  }
  return 0;
}

bool operator==(const Value& a, const Value& b) { return Compare(a, b) == 0; }

std::string Value::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return os << "NULL";
    case ValueKind::kBool:
      return os << (v.AsBool() ? "TRUE" : "FALSE");
    case ValueKind::kInt:
      return os << v.AsInt();
    case ValueKind::kReal:
      return os << v.AsReal();
    case ValueKind::kString:
      return os << '\'' << v.AsString() << '\'';
    case ValueKind::kObjectRef:
      return os << "<oid:" << v.AsObjectRef() << '>';
    case ValueKind::kTuple: {
      const TupleData& t = v.tuple();
      os << '(';
      for (size_t i = 0; i < t.values.size(); ++i) {
        if (i > 0) os << ", ";
        if (t.names != nullptr) os << (*t.names)[i] << ": ";
        os << t.values[i];
      }
      return os << ')';
    }
    case ValueKind::kSet:
    case ValueKind::kBag: {
      os << (v.kind() == ValueKind::kSet ? "{" : "{|");
      const auto& es = v.elements();
      for (size_t i = 0; i < es.size(); ++i) {
        if (i > 0) os << ", ";
        os << es[i];
      }
      return os << (v.kind() == ValueKind::kSet ? "}" : "|}");
    }
    case ValueKind::kList:
    case ValueKind::kArray: {
      os << '[';
      const auto& es = v.elements();
      for (size_t i = 0; i < es.size(); ++i) {
        if (i > 0) os << ", ";
        os << es[i];
      }
      return os << ']';
    }
  }
  return os;
}

}  // namespace eds::value
