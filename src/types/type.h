#ifndef EDS_TYPES_TYPE_H_
#define EDS_TYPES_TYPE_H_

#include <memory>
#include <string>
#include <vector>

namespace eds::types {

class Type;
using TypeRef = std::shared_ptr<const Type>;

// Kinds of ESQL types. The generic collection ADTs (set, bag, list, array)
// form an inheritance hierarchy rooted at kCollection, exactly as in Fig. 1
// of the paper. Object types carry identity; everything else is a value type.
enum class TypeKind {
  kAny,          // top of the value lattice; used for untyped rule variables
  kBool,
  kInt,
  kReal,
  kNumeric,      // supertype of kInt and kReal (ESQL NUMERIC)
  kChar,         // character string (ESQL CHAR)
  kEnumeration,  // ENUMERATION OF ('a', 'b', ...)
  kTuple,        // TUPLE (name : type, ...)
  kCollection,   // abstract root of the collection hierarchy
  kSet,
  kBag,
  kList,
  kArray,
  kObject,       // OBJECT TUPLE (...) possibly SUBTYPE OF another object type
};

const char* TypeKindName(TypeKind kind);

// One attribute of a tuple or object type.
struct Field {
  std::string name;
  TypeRef type;
};

// Immutable description of an ESQL type. Types are built through
// TypeRegistry (named user types) or the Make* factories (anonymous
// structural types) and shared by TypeRef.
class Type {
 public:
  TypeKind kind() const { return kind_; }

  // Non-empty for named user types (e.g. "Actor", "Text") and builtin
  // scalars ("INT"); empty for anonymous structural types.
  const std::string& name() const { return name_; }

  // Collections: the element type. Null otherwise.
  const TypeRef& element() const { return element_; }

  // Tuples and object types: the attributes.
  const std::vector<Field>& fields() const { return fields_; }

  // Enumerations: the allowed literals, in declaration order.
  const std::vector<std::string>& enum_values() const { return enum_values_; }

  // Object types: the declared supertype (null for roots).
  const TypeRef& supertype() const { return supertype_; }

  // Object types: the names of every attribute an object of this type
  // carries, the supertype chain's first, as declared. Built once with the
  // type; Session::NewObject shares it with each object whose fields are
  // given in this order and spelling (value::FieldNames). Null otherwise.
  const std::shared_ptr<const std::vector<std::string>>& object_field_names()
      const {
    return object_field_names_;
  }

  bool is_collection() const;
  bool is_numeric() const;
  bool is_object() const { return kind_ == TypeKind::kObject; }

  // Finds a field by name (case-insensitive, as ESQL identifiers are),
  // searching the supertype chain for object types. Returns nullptr if
  // absent.
  const Field* FindField(const std::string& name) const;

  // Human-readable form: "SET OF TUPLE (Pros : INT, Cons : INT)".
  std::string ToString() const;

  // ---- factories for anonymous structural types ----
  static TypeRef MakeScalar(TypeKind kind);
  static TypeRef MakeCollection(TypeKind kind, TypeRef element);
  static TypeRef MakeTuple(std::vector<Field> fields);
  static TypeRef MakeEnumeration(std::string name,
                                 std::vector<std::string> values);
  static TypeRef MakeObject(std::string name, std::vector<Field> fields,
                            TypeRef supertype);
  // Named alias for a structural type (TYPE Text LIST OF CHAR): same
  // structure as `aliased` but carries `name`.
  static TypeRef MakeNamed(std::string name, const TypeRef& aliased);

 protected:
  // Construction goes through the Make* factories (which build a derived
  // TypeBuilder internally); protected so the builder can default-construct.
  Type() = default;

 private:
  TypeKind kind_ = TypeKind::kAny;
  std::string name_;
  TypeRef element_;
  std::vector<Field> fields_;
  std::vector<std::string> enum_values_;
  TypeRef supertype_;
  std::shared_ptr<const std::vector<std::string>> object_field_names_;
};

// The ISA relation of the paper: true when `sub` is the same type as `super`
// or a subtype of it. Covers the object subtype chains, the collection
// hierarchy (SET ISA COLLECTION, ...), numeric widening (INT ISA NUMERIC,
// REAL ISA NUMERIC), enumerations as CHAR subtypes, structural equality for
// anonymous types, and kAny as universal supertype. Collections are
// covariant in their element type (SET OF INT ISA COLLECTION OF NUMERIC).
bool Isa(const TypeRef& sub, const TypeRef& super);

// Structural type equality (names ignored except for object/enum identity).
bool SameType(const TypeRef& a, const TypeRef& b);

}  // namespace eds::types

#endif  // EDS_TYPES_TYPE_H_
