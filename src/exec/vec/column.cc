#include "exec/vec/column.h"

#include <algorithm>

namespace eds::exec::vec {

using value::Value;
using value::ValueKind;

void ColumnVector::PushValidity(bool valid) {
  size_t word = size_ >> 6;
  if (word >= valid_.size()) valid_.push_back(0);
  if (valid) {
    valid_[word] |= uint64_t{1} << (size_ & 63);
  } else {
    ++null_count_;
  }
}

void ColumnVector::Reserve(size_t n) {
  reserved_ = n;
  switch (lane_) {
    case Lane::kInt64: ints_.reserve(n); break;
    case Lane::kFloat64: reals_.reserve(n); break;
    case Lane::kBool: bools_.reserve(n); break;
    case Lane::kObjectRef: oids_.reserve(n); break;
    case Lane::kGeneric: generic_.reserve(n); return;
    case Lane::kNullOnly: return;
  }
  valid_.reserve((n + 63) >> 6);
}

bool ColumnVector::Admit(Lane lane) {
  if (lane_ == Lane::kNullOnly) {
    // Every NULL so far gets a placeholder cell in the new lane.
    lane_ = lane;
    switch (lane) {
      case Lane::kInt64: ints_.assign(size_, 0); break;
      case Lane::kFloat64: reals_.assign(size_, 0); break;
      case Lane::kBool: bools_.assign(size_, 0); break;
      case Lane::kObjectRef: oids_.assign(size_, 0); break;
      default: break;
    }
    Reserve(reserved_);
  }
  if (lane_ == lane) {
    PushValidity(true);
    return true;
  }
  if (lane_ != Lane::kGeneric) DemoteToGeneric();
  return false;
}

void ColumnVector::DemoteToGeneric() {
  std::vector<Value> boxed;
  boxed.reserve(std::max(size_, reserved_));
  for (size_t i = 0; i < size_; ++i) boxed.push_back(ValueAt(i));
  generic_ = std::move(boxed);
  // Release the typed vectors' storage: a demoted column never uses it.
  std::vector<int64_t>().swap(ints_);
  std::vector<double>().swap(reals_);
  std::vector<uint8_t>().swap(bools_);
  std::vector<uint64_t>().swap(oids_);
  std::vector<uint64_t>().swap(valid_);
  lane_ = Lane::kGeneric;
}

void ColumnVector::AppendNull() {
  if (lane_ == Lane::kGeneric) {
    generic_.push_back(Value::Null());
    ++null_count_;
  } else {
    PushValidity(false);
    switch (lane_) {
      case Lane::kInt64: ints_.push_back(0); break;
      case Lane::kFloat64: reals_.push_back(0); break;
      case Lane::kBool: bools_.push_back(0); break;
      case Lane::kObjectRef: oids_.push_back(0); break;
      default: break;
    }
  }
  ++size_;
}

void ColumnVector::AppendInt(int64_t v) {
  if (Admit(Lane::kInt64)) {
    ints_.push_back(v);
  } else {
    generic_.push_back(Value::Int(v));
  }
  ++size_;
}

void ColumnVector::AppendReal(double v) {
  if (Admit(Lane::kFloat64)) {
    reals_.push_back(v);
  } else {
    generic_.push_back(Value::Real(v));
  }
  ++size_;
}

void ColumnVector::AppendBool(bool v) {
  if (Admit(Lane::kBool)) {
    bools_.push_back(v ? 1 : 0);
  } else {
    generic_.push_back(Value::Bool(v));
  }
  ++size_;
}

void ColumnVector::AppendObjectRef(uint64_t oid) {
  if (Admit(Lane::kObjectRef)) {
    oids_.push_back(oid);
  } else {
    generic_.push_back(Value::ObjectRef(oid));
  }
  ++size_;
}

void ColumnVector::AppendValue(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull: AppendNull(); return;
    case ValueKind::kInt: AppendInt(v.AsInt()); return;
    case ValueKind::kReal: AppendReal(v.AsReal()); return;
    case ValueKind::kBool: AppendBool(v.AsBool()); return;
    case ValueKind::kObjectRef: AppendObjectRef(v.AsObjectRef()); return;
    default: break;
  }
  if (lane_ != Lane::kGeneric) DemoteToGeneric();
  generic_.push_back(v);
  ++size_;
}

Value ColumnVector::ValueAt(size_t i) const {
  switch (lane_) {
    case Lane::kNullOnly: return Value::Null();
    case Lane::kGeneric: return generic_[i];
    case Lane::kInt64:
      return IsNull(i) ? Value::Null() : Value::Int(ints_[i]);
    case Lane::kFloat64:
      return IsNull(i) ? Value::Null() : Value::Real(reals_[i]);
    case Lane::kBool:
      return IsNull(i) ? Value::Null() : Value::Bool(bools_[i] != 0);
    case Lane::kObjectRef:
      return IsNull(i) ? Value::Null() : Value::ObjectRef(oids_[i]);
  }
  return Value::Null();
}

ColumnVector ColumnVector::Gather(const SelectionVector& sel) const {
  ColumnVector out;
  out.lane_ = lane_;
  out.Reserve(sel.size());
  switch (lane_) {
    case Lane::kNullOnly:
      out.size_ = sel.size();
      out.null_count_ = sel.size();
      return out;
    case Lane::kGeneric:
      for (uint32_t i : sel) {
        out.generic_.push_back(generic_[i]);
        if (generic_[i].is_null()) ++out.null_count_;
      }
      out.size_ = sel.size();
      return out;
    default:
      break;
  }
  out.valid_.resize((sel.size() + 63) >> 6, 0);
  if (all_valid()) {
    for (size_t w = 0; w < out.valid_.size(); ++w) out.valid_[w] = ~uint64_t{0};
  }
  for (size_t k = 0; k < sel.size(); ++k) {
    uint32_t i = sel[k];
    switch (lane_) {
      case Lane::kInt64: out.ints_.push_back(ints_[i]); break;
      case Lane::kFloat64: out.reals_.push_back(reals_[i]); break;
      case Lane::kBool: out.bools_.push_back(bools_[i]); break;
      case Lane::kObjectRef: out.oids_.push_back(oids_[i]); break;
      default: break;
    }
    if (!all_valid()) {
      if (IsNull(i)) {
        ++out.null_count_;
      } else {
        out.valid_[k >> 6] |= uint64_t{1} << (k & 63);
      }
    }
  }
  out.size_ = sel.size();
  return out;
}

ColumnVector ColumnVector::FromBoolData(std::vector<uint8_t> data,
                                        std::vector<uint64_t> valid,
                                        size_t null_count) {
  ColumnVector out;
  out.lane_ = Lane::kBool;
  out.size_ = data.size();
  out.null_count_ = null_count;
  if (valid.empty()) {
    // Spare high bits of the last word are allowed to be set (IsNull only
    // ever reads bits below size_).
    valid.assign((data.size() + 63) >> 6, ~uint64_t{0});
  }
  out.bools_ = std::move(data);
  out.valid_ = std::move(valid);
  return out;
}

int ColumnVector::CompareCells(size_t i, const ColumnVector& other,
                               size_t j) const {
  // Fast paths for clean typed lanes; everything else reconstructs Values
  // so the result is value::Compare by construction.
  if (lane_ == Lane::kInt64 && other.lane_ == Lane::kInt64 && !IsNull(i) &&
      !other.IsNull(j)) {
    int64_t a = ints_[i], b = other.ints_[j];
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_numeric_lane() && other.is_numeric_lane() && !IsNull(i) &&
      !other.IsNull(j)) {
    double a = NumericAt(i), b = other.NumericAt(j);
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (lane_ == Lane::kObjectRef && other.lane_ == Lane::kObjectRef &&
      !IsNull(i) && !other.IsNull(j)) {
    uint64_t a = oids_[i], b = other.oids_[j];
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  return value::Compare(ValueAt(i), other.ValueAt(j));
}

bool Batch::FromRows(const std::vector<std::vector<Value>>& rows,
                     Batch* out) {
  out->rows = rows.size();
  out->cols.clear();
  if (rows.empty()) return true;
  const size_t width = rows[0].size();
  out->cols.resize(width);
  for (ColumnVector& c : out->cols) c.Reserve(rows.size());
  for (const std::vector<Value>& row : rows) {
    if (row.size() != width) return false;
    for (size_t c = 0; c < width; ++c) out->cols[c].AppendValue(row[c]);
  }
  return true;
}

std::vector<std::vector<Value>> Batch::ToRows() const {
  if (!ragged.empty()) return ragged;
  std::vector<std::vector<Value>> out;
  out.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.reserve(cols.size());
    for (const ColumnVector& c : cols) row.push_back(c.ValueAt(r));
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace eds::exec::vec
