#ifndef EDS_EXEC_TYPECHECK_H_
#define EDS_EXEC_TYPECHECK_H_

#include "common/result.h"
#include "exec/storage.h"
#include "types/type.h"
#include "value/value.h"

namespace eds::exec {

// Checks that a runtime value conforms to a declared ESQL type — the
// insert-time half of §6.1's "an integrity constraint is an axiom that must
// be satisfied by all data inserted in the database":
//
//   * scalar kinds must agree (INT/REAL fit NUMERIC; any numeric fits REAL);
//   * enumeration values must be strings drawn from the declared domain;
//   * collections check kind and every element (COLLECTION accepts any
//     collection kind);
//   * tuples check arity and each field (by name when the value carries
//     names, positionally otherwise);
//   * object references dereference through `heap`; the object's dynamic
//     type is the one it was created with (StoredObject::type), and must
//     be the declared object type or a subtype of it (Isa);
//   * NULL is accepted for any type (1991-style unconstrained nulls).
//
// `heap` may be null, in which case object references pass unchecked
// (only the value kind is verified).
Status CheckValueAgainstType(const value::Value& v,
                             const types::TypeRef& type,
                             const ObjectHeap* heap);

// Checks a whole row against a relation schema (arity + per-column types).
Status CheckRowAgainstSchema(const Row& row,
                             const std::vector<types::Field>& schema,
                             const ObjectHeap* heap);

}  // namespace eds::exec

#endif  // EDS_EXEC_TYPECHECK_H_
