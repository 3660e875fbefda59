#include "exec/typecheck.h"

#include <algorithm>

#include "common/strings.h"

namespace eds::exec {

using types::Type;
using types::TypeKind;
using types::TypeRef;
using value::Value;
using value::ValueKind;

namespace {

Status Mismatch(const Value& v, const TypeRef& type,
                const std::string& detail) {
  return Status::TypeError("value " + v.ToString() +
                           " does not conform to type " + type->ToString() +
                           (detail.empty() ? "" : " (" + detail + ")"));
}

bool KindMatchesCollection(ValueKind vk, TypeKind tk) {
  switch (tk) {
    case TypeKind::kSet: return vk == ValueKind::kSet;
    case TypeKind::kBag: return vk == ValueKind::kBag;
    case TypeKind::kList: return vk == ValueKind::kList;
    case TypeKind::kArray: return vk == ValueKind::kArray;
    case TypeKind::kCollection:
      return vk == ValueKind::kSet || vk == ValueKind::kBag ||
             vk == ValueKind::kList || vk == ValueKind::kArray;
    default: return false;
  }
}

}  // namespace

Status CheckValueAgainstType(const value::Value& v,
                             const types::TypeRef& type,
                             const ObjectHeap* heap) {
  if (type == nullptr) return Status::Internal("null type in check");
  if (v.is_null()) return Status::OK();
  switch (type->kind()) {
    case TypeKind::kAny:
      return Status::OK();
    case TypeKind::kBool:
      if (v.kind() != ValueKind::kBool) return Mismatch(v, type, "");
      return Status::OK();
    case TypeKind::kInt:
      if (v.kind() != ValueKind::kInt) return Mismatch(v, type, "");
      return Status::OK();
    case TypeKind::kReal:
    case TypeKind::kNumeric:
      if (!v.is_numeric()) return Mismatch(v, type, "");
      return Status::OK();
    case TypeKind::kChar:
      if (v.kind() != ValueKind::kString) return Mismatch(v, type, "");
      return Status::OK();
    case TypeKind::kEnumeration: {
      if (v.kind() != ValueKind::kString) return Mismatch(v, type, "");
      const auto& domain = type->enum_values();
      if (std::find(domain.begin(), domain.end(), v.AsString()) ==
          domain.end()) {
        return Mismatch(v, type, "'" + std::string(v.AsString()) +
                                     "' is not in the enumeration domain");
      }
      return Status::OK();
    }
    case TypeKind::kTuple: {
      if (v.kind() != ValueKind::kTuple) return Mismatch(v, type, "");
      const auto& fields = type->fields();
      const value::TupleData& data = v.tuple();
      if (data.values.size() != fields.size()) {
        return Mismatch(v, type, "arity " +
                                     std::to_string(data.values.size()) +
                                     " vs " + std::to_string(fields.size()));
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        const Value* field_value = nullptr;
        if (data.names != nullptr) {
          field_value = v.FindField(fields[i].name);
          if (field_value == nullptr) {
            return Mismatch(v, type,
                            "missing attribute '" + fields[i].name + "'");
          }
        } else {
          field_value = &data.values[i];
        }
        EDS_RETURN_IF_ERROR(CheckValueAgainstType(*field_value,
                                                  fields[i].type, heap));
      }
      return Status::OK();
    }
    case TypeKind::kCollection:
    case TypeKind::kSet:
    case TypeKind::kBag:
    case TypeKind::kList:
    case TypeKind::kArray: {
      if (!KindMatchesCollection(v.kind(), type->kind())) {
        return Mismatch(v, type, "");
      }
      if (type->element() != nullptr) {
        for (const Value& elem : v.elements()) {
          EDS_RETURN_IF_ERROR(CheckValueAgainstType(elem, type->element(),
                                                    heap));
        }
      }
      return Status::OK();
    }
    case TypeKind::kObject: {
      if (v.kind() != ValueKind::kObjectRef) return Mismatch(v, type, "");
      if (heap == nullptr) return Status::OK();
      EDS_ASSIGN_OR_RETURN(const StoredObject* obj,
                           heap->Get(v.AsObjectRef()));
      if (!types::Isa(obj->type, type)) {
        return Mismatch(v, type, "object of type " + obj->type->name() +
                                     " where " + type->name() +
                                     " expected");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable type kind");
}

Status CheckRowAgainstSchema(const Row& row,
                             const std::vector<types::Field>& schema,
                             const ObjectHeap* heap) {
  if (row.size() != schema.size()) {
    return Status::TypeError("row has " + std::to_string(row.size()) +
                             " values, schema has " +
                             std::to_string(schema.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    Status s =
        CheckValueAgainstType(row[i], schema[i].type, heap);
    if (!s.ok()) {
      return Status::TypeError("column '" + schema[i].name +
                               "': " + s.message());
    }
  }
  return Status::OK();
}

}  // namespace eds::exec
