// Shared aggregate accumulation machinery used by the hash-aggregation and
// window operators. Implements the Athena-style (function, mask) pairs of
// Section III.E; a DISTINCT aggregate's duplicates never reach its state
// (exec/agg_build.h drops them first).
#ifndef FUSIONDB_EXEC_AGG_STATE_H_
#define FUSIONDB_EXEC_AGG_STATE_H_

#include <cstdint>

#include "expr/evaluator.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace fusiondb {

/// Accumulator for one aggregate function within one group.
struct AggState {
  int64_t mask_rows = 0;      // rows passing the mask (COUNT(*))
  int64_t non_null_args = 0;  // non-NULL argument rows passing the mask
  int64_t sum_i = 0;
  double sum_d = 0.0;
  bool has_minmax = false;
  Value minmax;

  /// Accumulates straight from a column, avoiding Value boxing for the
  /// numeric cases (the hot path after mask deduplication).
  void AccumulateColumnRow(const AggregateItem& item, const Column& col,
                           size_t row) {
    ++mask_rows;
    if (item.func == AggFunc::kCountStar) return;
    if (col.IsNull(row)) return;
    ++non_null_args;
    if (item.func == AggFunc::kMin || item.func == AggFunc::kMax) {
      Value v = col.GetValue(row);
      if (!has_minmax || (item.func == AggFunc::kMin ? v.Compare(minmax) < 0
                                                     : v.Compare(minmax) > 0)) {
        minmax = std::move(v);
        has_minmax = true;
      }
      return;
    }
    switch (item.func) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (PhysicalTypeOf(col.type()) == PhysicalType::kInt) {
          sum_i += col.IntAt(row);
          sum_d += static_cast<double>(col.IntAt(row));
        } else if (PhysicalTypeOf(col.type()) == PhysicalType::kDouble) {
          sum_d += col.DoubleAt(row);
        }
        break;
      case AggFunc::kCountStar:
      case AggFunc::kCount:
      case AggFunc::kMin:
      case AggFunc::kMax:
        break;  // count needs no value; min/max handled above
    }
  }

  /// Folds another partial state for the same (group, aggregate) into this
  /// one — the combine step of parallel partial aggregation. Valid only
  /// before Finalize. Counters and sums add; MIN/MAX keeps the winner under
  /// `item.func`. A DISTINCT aggregate's partial states are not merged:
  /// the sink re-feeds the pairs its merged table sees first.
  void Merge(const AggregateItem& item, AggState&& other) {
    mask_rows += other.mask_rows;
    non_null_args += other.non_null_args;
    sum_i += other.sum_i;
    sum_d += other.sum_d;
    if (other.has_minmax) {
      if (!has_minmax) {
        minmax = std::move(other.minmax);
        has_minmax = true;
      } else if (item.func == AggFunc::kMin
                     ? other.minmax.Compare(minmax) < 0
                     : other.minmax.Compare(minmax) > 0) {
        minmax = std::move(other.minmax);
      }
    }
  }

  /// Final value under SQL semantics: COUNT never NULL; SUM/AVG/MIN/MAX are
  /// NULL when no rows contributed.
  Value Finalize(const AggregateItem& item) const {
    DataType out_type = item.result_type();
    switch (item.func) {
      case AggFunc::kCountStar:
        return Value::Int64(mask_rows);
      case AggFunc::kCount:
        return Value::Int64(non_null_args);
      case AggFunc::kSum:
        if (non_null_args == 0) return Value::Null(out_type);
        return out_type == DataType::kFloat64 ? Value::Float64(sum_d)
                                              : Value::Int64(sum_i);
      case AggFunc::kAvg:
        if (non_null_args == 0) return Value::Null(out_type);
        return Value::Float64(sum_d / static_cast<double>(non_null_args));
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (!has_minmax) return Value::Null(out_type);
        return minmax;
    }
    return Value::Null(out_type);
  }
};

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_AGG_STATE_H_
