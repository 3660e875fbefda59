#include "value/value.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace eds::value {

namespace internal {
thread_local uint64_t value_copies = 0;
}  // namespace internal

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

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = ValueKind::kBool;
  v.scalar_.b = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = ValueKind::kInt;
  v.scalar_.i = i;
  return v;
}

Value Value::Real(double d) {
  Value v;
  v.kind_ = ValueKind::kReal;
  v.scalar_.d = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.kind_ = ValueKind::kString;
  v.payload_ = std::make_shared<const std::string>(std::move(s));
  return v;
}

Value Value::ObjectRef(uint64_t oid) {
  Value v;
  v.kind_ = ValueKind::kObjectRef;
  v.scalar_.oid = oid;
  return v;
}

Value Value::Tuple(std::vector<Value> values) {
  Value v;
  v.kind_ = ValueKind::kTuple;
  auto data = std::make_shared<TupleData>();
  data->values = std::move(values);
  v.payload_ = std::move(data);
  return v;
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
  Value v;
  v.kind_ = ValueKind::kTuple;
  auto data = std::make_shared<TupleData>();
  // An empty list is a positional tuple, so only a non-empty one is kept.
  if (names != nullptr && !names->empty()) data->names = std::move(names);
  data->values = std::move(values);
  v.payload_ = std::move(data);
  return v;
}

Value Value::Set(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  Value v;
  v.kind_ = ValueKind::kSet;
  v.payload_ = std::make_shared<const std::vector<Value>>(std::move(elements));
  return v;
}

Value Value::Bag(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  Value v;
  v.kind_ = ValueKind::kBag;
  v.payload_ = std::make_shared<const std::vector<Value>>(std::move(elements));
  return v;
}

Value Value::List(std::vector<Value> elements) {
  Value v;
  v.kind_ = ValueKind::kList;
  v.payload_ = std::make_shared<const std::vector<Value>>(std::move(elements));
  return v;
}

Value Value::Array(std::vector<Value> elements) {
  Value v;
  v.kind_ = ValueKind::kArray;
  v.payload_ = std::make_shared<const std::vector<Value>>(std::move(elements));
  return v;
}

bool Value::AsBool() const {
  assert(kind_ == ValueKind::kBool);
  return scalar_.b;
}

int64_t Value::AsInt() const {
  assert(kind_ == ValueKind::kInt);
  return scalar_.i;
}

double Value::AsReal() const {
  if (kind_ == ValueKind::kInt) return static_cast<double>(scalar_.i);
  assert(kind_ == ValueKind::kReal);
  return scalar_.d;
}

const std::string& Value::AsString() const {
  assert(kind_ == ValueKind::kString);
  return payload<std::string>();
}

uint64_t Value::AsObjectRef() const {
  assert(kind_ == ValueKind::kObjectRef);
  return scalar_.oid;
}

const TupleData& Value::tuple() const {
  assert(kind_ == ValueKind::kTuple);
  return payload<TupleData>();
}

const Value* Value::FindField(const std::string& name) const {
  if (kind_ != ValueKind::kTuple) return nullptr;
  const TupleData& t = payload<TupleData>();
  if (t.names == nullptr) return nullptr;
  const std::vector<std::string>& names = *t.names;
  for (size_t i = 0; i < names.size(); ++i) {
    if (EqualsIgnoreCase(names[i], name)) return &t.values[i];
  }
  return nullptr;
}

const std::vector<Value>& Value::elements() const {
  assert(is_collection());
  return payload<std::vector<Value>>();
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
    case ValueKind::kString:
      return a.AsString().compare(b.AsString()) < 0
                 ? -1
                 : (a.AsString() == b.AsString() ? 0 : 1);
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
