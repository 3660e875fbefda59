#ifndef EDS_EXEC_STORAGE_H_
#define EDS_EXEC_STORAGE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/vec/column.h"
#include "types/type.h"
#include "value/value.h"

namespace eds::exec {

// A relation row: one value per column, positionally matching the catalog
// schema of the relation.
using Row = std::vector<value::Value>;
using Rows = std::vector<Row>;

// In-memory stored table. Its one image is columnar: Insert appends each
// cell to its column, under the same lane commit/demote rules as
// vec::Batch::Append, so batch() is exactly the batch Append would build
// from the rows in insertion order. The executor reads the batch directly.
// Readers never race writers: data writes are serialized against serving
// by QueryService's serve gate.
class Table {
 public:
  explicit Table(size_t column_count);

  size_t column_count() const { return batch_.cols.size(); }
  size_t size() const { return batch_.rows; }
  const vec::Batch& batch() const { return batch_; }

  // Row `i` (i < size()), rebuilt from the columns.
  Row RowAt(size_t i) const;

  Status Insert(const Row& row);

 private:
  vec::Batch batch_;
};

// An object with identity: its dynamic type (the one it was created with,
// which names it) and its tuple value (field names included, so FIELD
// access works without consulting the catalog).
struct StoredObject {
  value::Value state;  // a named tuple
  types::TypeRef type;
};

// The object heap: OIDs are dense and never reused; objects may be shared
// by reference from any number of rows (the paper's "only objects may be
// referentially shared using object identity").
class ObjectHeap {
 public:
  // Creates an object of `type` and returns its reference value.
  value::Value New(types::TypeRef type, value::Value state);

  Result<const StoredObject*> Get(uint64_t oid) const;

  // Replaces the state of an existing object (methods like
  // IncreaseSalary mutate through here).
  Status Update(uint64_t oid, value::Value state);

  size_t size() const { return objects_.size(); }

 private:
  std::vector<StoredObject> objects_;  // oid = index + 1
};

// A database instance: named tables plus the object heap. Schemas live in
// the catalog; storage only checks arity.
//
// Thread-safety: the tables_ *map* is guarded by an internal mutex so
// CREATE TABLE can run while serving threads resolve table names (std::map
// nodes are pointer-stable, so a Table* stays valid across later inserts;
// tables are never dropped). Table *contents* are not locked here — data
// writes are serialized against serving by QueryService's serve gate.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Status CreateTable(const std::string& name, size_t column_count);
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  ObjectHeap& heap() { return heap_; }
  const ObjectHeap& heap() const { return heap_; }

 private:
  mutable std::mutex map_mu_;            // guards tables_ map structure only
  std::map<std::string, Table> tables_;  // upper-cased keys
  ObjectHeap heap_;
};

}  // namespace eds::exec

#endif  // EDS_EXEC_STORAGE_H_
