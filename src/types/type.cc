#include "types/type.h"

#include "common/strings.h"

namespace eds::types {

namespace {

// Grants access to Type's private constructor for the factories.
struct TypeBuilder : Type {};

std::shared_ptr<Type> NewType() { return std::make_shared<TypeBuilder>(); }

}  // namespace

const char* TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kAny: return "ANY";
    case TypeKind::kBool: return "BOOLEAN";
    case TypeKind::kInt: return "INT";
    case TypeKind::kReal: return "REAL";
    case TypeKind::kNumeric: return "NUMERIC";
    case TypeKind::kChar: return "CHAR";
    case TypeKind::kEnumeration: return "ENUMERATION";
    case TypeKind::kTuple: return "TUPLE";
    case TypeKind::kCollection: return "COLLECTION";
    case TypeKind::kSet: return "SET";
    case TypeKind::kBag: return "BAG";
    case TypeKind::kList: return "LIST";
    case TypeKind::kArray: return "ARRAY";
    case TypeKind::kObject: return "OBJECT";
  }
  return "?";
}

bool Type::is_collection() const {
  switch (kind_) {
    case TypeKind::kCollection:
    case TypeKind::kSet:
    case TypeKind::kBag:
    case TypeKind::kList:
    case TypeKind::kArray:
      return true;
    default:
      return false;
  }
}

bool Type::is_numeric() const {
  return kind_ == TypeKind::kInt || kind_ == TypeKind::kReal ||
         kind_ == TypeKind::kNumeric;
}

const Field* Type::FindField(const std::string& name) const {
  for (const Field& f : fields_) {
    if (EqualsIgnoreCase(f.name, name)) return &f;
  }
  if (supertype_ != nullptr) return supertype_->FindField(name);
  return nullptr;
}

std::string Type::ToString() const {
  // Named types print as their name so they compose in DDL positions
  // (SET OF Category, Origin : Point, ...).
  if (!name_.empty()) return name_;
  switch (kind_) {
    case TypeKind::kTuple: {
      std::string out = "TUPLE (";
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) out += ", ";
        out += fields_[i].name + " : " + fields_[i].type->ToString();
      }
      return out + ")";
    }
    case TypeKind::kEnumeration: {
      std::string out =
          name_.empty() ? "ENUMERATION OF (" : name_ + " ENUMERATION OF (";
      for (size_t i = 0; i < enum_values_.size(); ++i) {
        if (i > 0) out += ", ";
        out += "'" + enum_values_[i] + "'";
      }
      return out + ")";
    }
    case TypeKind::kSet:
    case TypeKind::kBag:
    case TypeKind::kList:
    case TypeKind::kArray:
    case TypeKind::kCollection: {
      std::string out = TypeKindName(kind_);
      if (element_ != nullptr) {
        out += " OF ";
        out += element_->ToString();
      }
      return out;
    }
    default:
      return TypeKindName(kind_);
  }
}

TypeRef Type::MakeScalar(TypeKind kind) {
  auto t = NewType();
  t->kind_ = kind;
  t->name_ = TypeKindName(kind);
  return t;
}

TypeRef Type::MakeCollection(TypeKind kind, TypeRef element) {
  auto t = NewType();
  t->kind_ = kind;
  t->element_ = std::move(element);
  return t;
}

TypeRef Type::MakeTuple(std::vector<Field> fields) {
  auto t = NewType();
  t->kind_ = TypeKind::kTuple;
  t->fields_ = std::move(fields);
  return t;
}

TypeRef Type::MakeEnumeration(std::string name,
                              std::vector<std::string> values) {
  auto t = NewType();
  t->kind_ = TypeKind::kEnumeration;
  t->name_ = std::move(name);
  t->enum_values_ = std::move(values);
  return t;
}

TypeRef Type::MakeObject(std::string name, std::vector<Field> fields,
                         TypeRef supertype) {
  auto t = NewType();
  t->kind_ = TypeKind::kObject;
  t->name_ = std::move(name);
  t->fields_ = std::move(fields);
  t->supertype_ = std::move(supertype);
  std::vector<std::string> names;
  if (t->supertype_ != nullptr && t->supertype_->object_field_names_) {
    names = *t->supertype_->object_field_names_;
  }
  for (const Field& f : t->fields_) names.push_back(f.name);
  t->object_field_names_ =
      std::make_shared<const std::vector<std::string>>(std::move(names));
  return t;
}

TypeRef Type::MakeNamed(std::string name, const TypeRef& aliased) {
  auto t = NewType();
  t->kind_ = aliased->kind_;
  t->name_ = std::move(name);
  t->element_ = aliased->element_;
  t->fields_ = aliased->fields_;
  t->enum_values_ = aliased->enum_values_;
  t->supertype_ = aliased->supertype_;
  t->object_field_names_ = aliased->object_field_names_;
  return t;
}

namespace {

bool SameFields(const std::vector<Field>& a, const std::vector<Field>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!EqualsIgnoreCase(a[i].name, b[i].name)) return false;
    if (!SameType(a[i].type, b[i].type)) return false;
  }
  return true;
}

}  // namespace

bool SameType(const TypeRef& a, const TypeRef& b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a.get() == b.get()) return true;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case TypeKind::kObject:
    case TypeKind::kEnumeration:
      // Nominal identity: objects and enums are equal only by name.
      return EqualsIgnoreCase(a->name(), b->name());
    case TypeKind::kTuple:
      return SameFields(a->fields(), b->fields());
    case TypeKind::kSet:
    case TypeKind::kBag:
    case TypeKind::kList:
    case TypeKind::kArray:
    case TypeKind::kCollection:
      if (a->element() == nullptr || b->element() == nullptr) {
        return a->element() == b->element();
      }
      return SameType(a->element(), b->element());
    default:
      return true;  // scalars of equal kind
  }
}

bool Isa(const TypeRef& sub, const TypeRef& super) {
  if (sub == nullptr || super == nullptr) return false;
  if (super->kind() == TypeKind::kAny) return true;
  if (SameType(sub, super)) return true;

  switch (sub->kind()) {
    case TypeKind::kInt:
      return super->kind() == TypeKind::kReal ||
             super->kind() == TypeKind::kNumeric;
    case TypeKind::kReal:
      return super->kind() == TypeKind::kNumeric;
    case TypeKind::kEnumeration:
      // Enumeration literals are character strings.
      return super->kind() == TypeKind::kChar;
    case TypeKind::kSet:
    case TypeKind::kBag:
    case TypeKind::kList:
    case TypeKind::kArray:
    case TypeKind::kCollection: {
      const bool kind_ok =
          super->kind() == sub->kind() ||
          super->kind() == TypeKind::kCollection;
      if (!kind_ok) return false;
      // COLLECTION with no element constraint accepts any element type.
      if (super->element() == nullptr) return true;
      if (sub->element() == nullptr) return false;
      return Isa(sub->element(), super->element());
    }
    case TypeKind::kObject: {
      // Walk the declared supertype chain.
      for (TypeRef t = sub->supertype(); t != nullptr; t = t->supertype()) {
        if (SameType(t, super)) return true;
      }
      return false;
    }
    case TypeKind::kTuple: {
      if (super->kind() != TypeKind::kTuple) return false;
      // Width subtyping: a tuple with extra trailing fields is a subtype.
      const auto& sf = sub->fields();
      const auto& pf = super->fields();
      if (sf.size() < pf.size()) return false;
      for (size_t i = 0; i < pf.size(); ++i) {
        if (!EqualsIgnoreCase(sf[i].name, pf[i].name)) return false;
        if (!Isa(sf[i].type, pf[i].type)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace eds::types
