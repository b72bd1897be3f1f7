// CardinalityEstimator: per-subtree output row estimates seeded from
// catalog metadata (partition row counts, primary-key info carried on the
// ScanOp's Table) and derived plan properties (DESIGN.md §11).
//
// Estimation is deliberately crude — selectivity defaults in the System-R
// tradition. The server's share-vs-solo decision (CostModel::DecideShare)
// compares two estimates over the same scans, so it needs their ratio more
// than their absolute accuracy.
#ifndef FUSIONDB_COST_CARDINALITY_H_
#define FUSIONDB_COST_CARDINALITY_H_

#include "analysis/plan_props.h"
#include "plan/logical_plan.h"

namespace fusiondb {

class CardinalityEstimator {
 public:
  /// Estimated output rows of `plan`, derived from the children's
  /// estimates and catalog metadata.
  double Estimate(const PlanPtr& plan) const;

  /// Average encoded bytes per output row of `plan` (fixed type widths;
  /// scans use the table's true stored byte counts). The scan-cost basis
  /// for CostModel.
  static double RowBytes(const PlanPtr& plan);

 private:
  // Derived plan properties (src/analysis): grouped-aggregate estimates use
  // candidate keys — grouping columns covering a key of the input mean the
  // distinct count IS the input cardinality, replacing the sqrt heuristic.
  // Mutable because derivation memoizes inside const Estimate calls.
  mutable PropertyDerivation props_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_COST_CARDINALITY_H_
