#include "types/column.h"

#include <algorithm>
#include <cstddef>

namespace fusiondb {

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null(type_);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(ints_[row] != 0);
    case DataType::kInt64:
      return Value::Int64(ints_[row]);
    case DataType::kDate:
      return Value::Date(ints_[row]);
    case DataType::kFloat64:
      return Value::Float64(doubles_[row]);
    case DataType::kString:
      return Value::String(strings_[row]);
  }
  return Value::Null(type_);
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (PhysicalTypeOf(type_)) {
    case PhysicalType::kInt:
      AppendInt(v.int_value());
      break;
    case PhysicalType::kDouble:
      AppendDouble(PhysicalTypeOf(v.type()) == PhysicalType::kDouble
                       ? v.double_value()
                       : static_cast<double>(v.int_value()));
      break;
    case PhysicalType::kString:
      AppendString(v.string_value());
      break;
  }
}

void Column::AppendFrom(const Column& other, size_t row) {
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (PhysicalTypeOf(type_)) {
    case PhysicalType::kInt:
      AppendInt(other.ints_[row]);
      break;
    case PhysicalType::kDouble:
      AppendDouble(other.NumericAt(row));
      break;
    case PhysicalType::kString:
      AppendString(other.strings_[row]);
      break;
  }
}

void Column::Resize(size_t n) {
  valid_.resize(n, 0);
  switch (PhysicalTypeOf(type_)) {
    case PhysicalType::kInt:
      ints_.resize(n, 0);
      break;
    case PhysicalType::kDouble:
      doubles_.resize(n, 0.0);
      break;
    case PhysicalType::kString:
      strings_.resize(n);
      break;
  }
}

void Column::GrowthReserve(size_t extra) {
  size_t need = size() + extra;
  if (need <= valid_.capacity()) return;
  size_t target = std::max(need, size() * 2);
  valid_.reserve(target);
  switch (PhysicalTypeOf(type_)) {
    case PhysicalType::kInt:
      ints_.reserve(target);
      break;
    case PhysicalType::kDouble:
      doubles_.reserve(target);
      break;
    case PhysicalType::kString:
      strings_.reserve(target);
      break;
  }
}

void Column::AppendColumn(const Column& other) {
  FUSIONDB_CHECK(PhysicalTypeOf(type_) == PhysicalTypeOf(other.type_),
                 "column type mismatch in bulk append");
  GrowthReserve(other.size());
  valid_.insert(valid_.end(), other.valid_.begin(), other.valid_.end());
  switch (PhysicalTypeOf(type_)) {
    case PhysicalType::kInt:
      ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
      break;
    case PhysicalType::kDouble:
      doubles_.insert(doubles_.end(), other.doubles_.begin(),
                      other.doubles_.end());
      break;
    case PhysicalType::kString:
      strings_.insert(strings_.end(), other.strings_.begin(),
                      other.strings_.end());
      break;
  }
}

void Column::AppendRange(const Column& src, size_t begin, size_t count) {
  FUSIONDB_CHECK(PhysicalTypeOf(type_) == PhysicalTypeOf(src.type_),
                 "column type mismatch in range append");
  GrowthReserve(count);
  auto vb = src.valid_.begin() + static_cast<ptrdiff_t>(begin);
  valid_.insert(valid_.end(), vb, vb + static_cast<ptrdiff_t>(count));
  switch (PhysicalTypeOf(type_)) {
    case PhysicalType::kInt: {
      auto b = src.ints_.begin() + static_cast<ptrdiff_t>(begin);
      ints_.insert(ints_.end(), b, b + static_cast<ptrdiff_t>(count));
      break;
    }
    case PhysicalType::kDouble: {
      auto b = src.doubles_.begin() + static_cast<ptrdiff_t>(begin);
      doubles_.insert(doubles_.end(), b, b + static_cast<ptrdiff_t>(count));
      break;
    }
    case PhysicalType::kString: {
      auto b = src.strings_.begin() + static_cast<ptrdiff_t>(begin);
      strings_.insert(strings_.end(), b, b + static_cast<ptrdiff_t>(count));
      break;
    }
  }
}

Column Column::Gather(const uint32_t* sel, size_t n) const {
  Column out(type_);
  out.Reserve(n);
  out.valid_.resize(n);
  const uint8_t* valid = valid_.data();
  for (size_t i = 0; i < n; ++i) out.valid_[i] = valid[sel[i]];
  switch (PhysicalTypeOf(type_)) {
    case PhysicalType::kInt: {
      out.ints_.resize(n);
      const int64_t* src = ints_.data();
      for (size_t i = 0; i < n; ++i) out.ints_[i] = src[sel[i]];
      break;
    }
    case PhysicalType::kDouble: {
      out.doubles_.resize(n);
      const double* src = doubles_.data();
      for (size_t i = 0; i < n; ++i) out.doubles_[i] = src[sel[i]];
      break;
    }
    case PhysicalType::kString: {
      out.strings_.resize(n);
      for (size_t i = 0; i < n; ++i) out.strings_[i] = strings_[sel[i]];
      break;
    }
  }
  return out;
}

int64_t Column::ByteSize() const {
  if (type_ == DataType::kString) {
    int64_t total = 0;
    for (const std::string& s : strings_) {
      total += static_cast<int64_t>(s.size());
    }
    return total;
  }
  return FixedWidthOf(type_) * static_cast<int64_t>(size());
}

}  // namespace fusiondb
