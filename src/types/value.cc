#include "types/value.h"

#include <cmath>
#include <sstream>

namespace fusiondb {

bool Value::operator==(const Value& other) const {
  if (is_null_ || other.is_null_) return is_null_ && other.is_null_;
  PhysicalType pa = PhysicalTypeOf(type_);
  PhysicalType pb = PhysicalTypeOf(other.type_);
  if (pa != pb) return false;
  switch (pa) {
    case PhysicalType::kInt:
      return int_ == other.int_;
    case PhysicalType::kDouble:
      return double_ == other.double_;
    case PhysicalType::kString:
      return string_ == other.string_;
  }
  return false;
}

int Value::Compare(const Value& other) const {
  if (is_null_ && other.is_null_) return 0;
  if (is_null_) return -1;
  if (other.is_null_) return 1;
  PhysicalType pa = PhysicalTypeOf(type_);
  PhysicalType pb = PhysicalTypeOf(other.type_);
  if (pa == PhysicalType::kString || pb == PhysicalType::kString) {
    if (pa != pb) return pa < pb ? -1 : 1;
    return string_.compare(other.string_) < 0
               ? -1
               : (string_ == other.string_ ? 0 : 1);
  }
  // Numeric (possibly mixed int/double): compare as double.
  double a = AsDouble();
  double b = other.AsDouble();
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  std::ostringstream os;
  switch (type_) {
    case DataType::kBool:
      os << (int_ != 0 ? "true" : "false");
      break;
    case DataType::kInt64:
    case DataType::kDate:
      os << int_;
      break;
    case DataType::kFloat64:
      os << double_;
      break;
    case DataType::kString:
      os << '\'' << string_ << '\'';
      break;
  }
  return os.str();
}

}  // namespace fusiondb
