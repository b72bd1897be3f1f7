// Value: a single, possibly-NULL scalar. Used for literals, group-by keys
// and row-at-a-time expression evaluation.
#ifndef FUSIONDB_TYPES_VALUE_H_
#define FUSIONDB_TYPES_VALUE_H_

#include <cstdint>
#include <string>

#include "types/data_type.h"

namespace fusiondb {

/// A tagged scalar. NULL values keep their declared type so expression
/// typing stays sound. Comparison follows SQL semantics only where the
/// caller implements them; Value's operator== is *structural* (NULL == NULL).
/// The executor never hashes Values: its keys go through exec/key_table.h.
class Value {
 public:
  Value() : type_(DataType::kInt64), is_null_(true) {}

  static Value Null(DataType type) {
    Value v;
    v.type_ = type;
    v.is_null_ = true;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = DataType::kBool;
    v.is_null_ = false;
    v.int_ = b ? 1 : 0;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = DataType::kInt64;
    v.is_null_ = false;
    v.int_ = i;
    return v;
  }
  static Value Date(int64_t day) {
    Value v;
    v.type_ = DataType::kDate;
    v.is_null_ = false;
    v.int_ = day;
    return v;
  }
  static Value Float64(double d) {
    Value v;
    v.type_ = DataType::kFloat64;
    v.is_null_ = false;
    v.double_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = DataType::kString;
    v.is_null_ = false;
    v.string_ = std::move(s);
    return v;
  }

  DataType type() const { return type_; }
  bool is_null() const { return is_null_; }

  /// Typed accessors; only meaningful when !is_null() and the physical type
  /// matches.
  bool bool_value() const { return int_ != 0; }
  int64_t int_value() const { return int_; }
  double double_value() const { return double_; }
  const std::string& string_value() const { return string_; }

  /// Numeric value promoted to double (int64/date/float64).
  double AsDouble() const {
    return PhysicalTypeOf(type_) == PhysicalType::kDouble
               ? double_
               : static_cast<double>(int_);
  }

  /// Structural equality: NULLs of any type compare equal to each other and
  /// unequal to non-NULLs; numeric values compare within their physical
  /// class (int64 vs date are interchangeable, int vs double are not).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order for sorting (NULLs first, then by value). Returns <0, 0, >0.
  int Compare(const Value& other) const;

  std::string ToString() const;

 private:
  DataType type_;
  bool is_null_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_TYPES_VALUE_H_
