// Schema: an ordered list of output columns, each with a plan-wide unique
// ColumnId. FusionDB follows Athena's convention: every operator instance
// (including each scan of the same table) gets fresh column identities.
#ifndef FUSIONDB_TYPES_SCHEMA_H_
#define FUSIONDB_TYPES_SCHEMA_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "types/data_type.h"

namespace fusiondb {

/// Identity of a column within one query plan. Allocated by PlanContext;
/// never reused within a plan.
using ColumnId = int32_t;

constexpr ColumnId kInvalidColumnId = -1;

/// One output column of an operator.
struct ColumnInfo {
  ColumnId id = kInvalidColumnId;
  std::string name;
  DataType type = DataType::kInt64;
};

/// Ordered column list with O(log n) id lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnInfo> columns) : columns_(std::move(columns)) {
    RebuildIndex();
  }

  size_t num_columns() const { return columns_.size(); }
  const ColumnInfo& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnInfo>& columns() const { return columns_; }

  /// Position of `id` in this schema (the last one if it repeats), or -1
  /// if absent.
  int IndexOf(ColumnId id) const {
    auto it = std::upper_bound(
        index_.begin(), index_.end(), id,
        [](ColumnId v, const std::pair<ColumnId, int>& e) {
          return v < e.first;
        });
    if (it == index_.begin() || (it - 1)->first != id) return -1;
    return (it - 1)->second;
  }
  bool Contains(ColumnId id) const { return IndexOf(id) >= 0; }

  /// Looks up a column by name; fails if absent or ambiguous.
  Result<ColumnInfo> FindByName(const std::string& name) const;

  /// Type of column `id`; fails if absent.
  Result<DataType> TypeOf(ColumnId id) const;

  std::string ToString() const;

 private:
  // One sorted array instead of a hash map: plans build and copy schemas
  // on every rewrite, and this keeps each one a single allocation.
  void RebuildIndex() {
    index_.clear();
    index_.reserve(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      index_.emplace_back(columns_[i].id, static_cast<int>(i));
    }
    std::sort(index_.begin(), index_.end());
  }

  std::vector<ColumnInfo> columns_;
  std::vector<std::pair<ColumnId, int>> index_;  // (id, position), sorted
};

}  // namespace fusiondb

#endif  // FUSIONDB_TYPES_SCHEMA_H_
