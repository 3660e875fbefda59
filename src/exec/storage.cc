#include "exec/storage.h"

#include "common/strings.h"

namespace eds::exec {

Table::Table(size_t column_count) { batch_.cols.resize(column_count); }

Row Table::RowAt(size_t i) const {
  Row row;
  row.reserve(batch_.cols.size());
  for (const vec::ColumnVector& col : batch_.cols) {
    row.push_back(col.ValueAt(i));
  }
  return row;
}

Status Table::Insert(const Row& row) {
  if (row.size() != batch_.cols.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, table expects " +
        std::to_string(batch_.cols.size()));
  }
  for (size_t c = 0; c < row.size(); ++c) batch_.cols[c].AppendValue(row[c]);
  ++batch_.rows;
  return Status::OK();
}

value::Value ObjectHeap::New(types::TypeRef type, value::Value state) {
  objects_.push_back(StoredObject{std::move(state), std::move(type)});
  return value::Value::ObjectRef(static_cast<uint64_t>(objects_.size()));
}

Result<const StoredObject*> ObjectHeap::Get(uint64_t oid) const {
  if (oid == 0 || oid > objects_.size()) {
    return Status::RuntimeError("dangling object reference <oid:" +
                                std::to_string(oid) + ">");
  }
  return &objects_[oid - 1];
}

Status ObjectHeap::Update(uint64_t oid, value::Value state) {
  if (oid == 0 || oid > objects_.size()) {
    return Status::RuntimeError("dangling object reference <oid:" +
                                std::to_string(oid) + ">");
  }
  objects_[oid - 1].state = std::move(state);
  return Status::OK();
}

Status Database::CreateTable(const std::string& name, size_t column_count) {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto [it, inserted] =
      tables_.emplace(ToUpperAscii(name), Table(column_count));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("table '" + name + "' already stored");
  }
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = tables_.find(ToUpperAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("no stored table '" + name + "'");
  }
  return &it->second;
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = tables_.find(ToUpperAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("no stored table '" + name + "'");
  }
  return &it->second;
}

bool Database::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return tables_.count(ToUpperAscii(name)) > 0;
}

}  // namespace eds::exec
