// Column: a typed vector of values with a validity (non-NULL) mask.
// FusionDB's execution is chunk-at-a-time over these.
#ifndef FUSIONDB_TYPES_COLUMN_H_
#define FUSIONDB_TYPES_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "types/data_type.h"
#include "types/sel_vector.h"
#include "types/value.h"

namespace fusiondb {

/// A contiguous run of values of one type. Bool/int64/date share the int64
/// buffer; float64 uses the double buffer; string its own. Only the buffer
/// matching the column's physical type is populated.
class Column {
 public:
  Column() : type_(DataType::kInt64) {}
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return valid_.size(); }

  void Reserve(size_t n) {
    valid_.reserve(n);
    switch (PhysicalTypeOf(type_)) {
      case PhysicalType::kInt:
        ints_.reserve(n);
        break;
      case PhysicalType::kDouble:
        doubles_.reserve(n);
        break;
      case PhysicalType::kString:
        strings_.reserve(n);
        break;
    }
  }

  bool IsNull(size_t row) const { return valid_[row] == 0; }
  bool IsValid(size_t row) const { return valid_[row] != 0; }

  int64_t IntAt(size_t row) const { return ints_[row]; }
  bool BoolAt(size_t row) const { return ints_[row] != 0; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  const std::string& StringAt(size_t row) const { return strings_[row]; }

  /// Numeric value at `row` promoted to double. Precondition: valid row of a
  /// numeric column.
  double NumericAt(size_t row) const {
    return PhysicalTypeOf(type_) == PhysicalType::kDouble
               ? doubles_[row]
               : static_cast<double>(ints_[row]);
  }

  Value GetValue(size_t row) const;

  /// Raw buffer access for the vectorized kernels. Only the buffer matching
  /// the column's physical type is populated; the others are empty.
  const uint8_t* valid_data() const { return valid_.data(); }
  const int64_t* ints_data() const { return ints_.data(); }
  const double* doubles_data() const { return doubles_.data(); }
  const std::string* strings_data() const { return strings_.data(); }

  /// Bulk-writer access (the page decoder): Resize sets the row count,
  /// and rows it adds are NULL with a zero slot (0, 0.0 or empty); the
  /// writer then fills the buffers in place.
  void Resize(size_t n);
  uint8_t* mutable_valid_data() { return valid_.data(); }
  int64_t* mutable_ints_data() { return ints_.data(); }
  double* mutable_doubles_data() { return doubles_.data(); }
  std::string* mutable_strings_data() { return strings_.data(); }

  void AppendNull() {
    valid_.push_back(0);
    AppendDefaultSlot();
  }
  void AppendInt(int64_t v) {
    valid_.push_back(1);
    ints_.push_back(v);
  }
  void AppendBool(bool v) {
    valid_.push_back(1);
    ints_.push_back(v ? 1 : 0);
  }
  void AppendDouble(double v) {
    valid_.push_back(1);
    doubles_.push_back(v);
  }
  void AppendString(std::string v) {
    valid_.push_back(1);
    strings_.push_back(std::move(v));
  }
  /// Appends any Value whose physical type matches this column's.
  void AppendValue(const Value& v);

  /// Appends row `row` of `other` (same physical type) to this column.
  void AppendFrom(const Column& other, size_t row);

  /// Bulk-appends all rows of `other` (same physical type). Reserves the
  /// destination up front (geometric policy, so repeated appends stay
  /// amortized O(1)) instead of growing inside the element loop.
  void AppendColumn(const Column& other);

  /// Bulk-appends the contiguous rows [begin, begin + count) of `src`.
  /// The reserved, memcpy-friendly replacement for per-row AppendFrom
  /// slicing loops (scan chunking, sort/window output).
  void AppendRange(const Column& src, size_t begin, size_t count);

  /// A new column holding rows `sel[0..n)` of this column, in selection
  /// order, with capacity reserved up front. The bulk row-assembly
  /// primitive behind Filter, Limit, Sort and hash-join output.
  Column Gather(const uint32_t* sel, size_t n) const;
  Column Gather(const SelVector& sel) const {
    return Gather(sel.data(), sel.size());
  }

  /// Bytes this column would occupy on "disk": fixed width per row, or the
  /// sum of string lengths. Used for the scanned-bytes metric.
  int64_t ByteSize() const;

 private:
  /// Ensures room for `extra` more rows without defeating geometric growth:
  /// when the current capacity is short, grows to at least double the
  /// current size so repeated bulk appends stay amortized O(1).
  void GrowthReserve(size_t extra);

  void AppendDefaultSlot() {
    switch (PhysicalTypeOf(type_)) {
      case PhysicalType::kInt:
        ints_.push_back(0);
        break;
      case PhysicalType::kDouble:
        doubles_.push_back(0.0);
        break;
      case PhysicalType::kString:
        strings_.emplace_back();
        break;
    }
  }

  DataType type_;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_TYPES_COLUMN_H_
