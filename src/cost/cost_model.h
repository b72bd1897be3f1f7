// CostModel: prices the server's cross-query share-vs-solo decision
// (DESIGN.md §11, §12): execute a fused plan once for every member of a
// candidate group, or each member on its own. Subtree cost charges decoded
// bytes at the scans plus per-row operator work, with constants calibrated
// against bench/exec_micro (see CostConstants).
#ifndef FUSIONDB_COST_COST_MODEL_H_
#define FUSIONDB_COST_COST_MODEL_H_

#include <cstdint>

#include "cost/cardinality.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// Calibration constants, in nanoseconds. Defaults were fitted to the
/// bench/exec_micro single-thread numbers on the dev container (scan+filter
/// throughput ≈ 2 GB/s decoded → 0.5 ns/byte; hash aggregation ≈ 20 M
/// rows/s → 50 ns/row); absolute accuracy matters less than the ratio
/// between scan and per-row operator work.
struct CostConstants {
  double decode_ns_per_byte = 0.5;       // scan decode
  double row_ns = 5.0;                   // per row, per non-hashing operator
  double hash_row_ns = 50.0;             // per row, per hashing operator
};

/// One cross-query share-vs-solo pricing (the server's per-candidate-group
/// decision, DESIGN.md §12):
///
///   solo_cost   = Σ_i SubtreeCost(member_i)          — N isolated runs
///   shared_cost = SubtreeCost(fused)                  — one shared run
///               + consumers × est_rows × row_ns       — per-consumer
///                 compensating filter/projection over the fused output
///
/// Shared wins whenever the fused plan is cheaper than the members added
/// up, minus the (streaming, scan-free) restoration work — for identical
/// members the fused plan *is* one member, so sharing wins as soon as one
/// member's cost exceeds the restoration overhead.
struct ShareDecision {
  bool share = false;        // true: execute fused once; false: solo runs
  double solo_cost = 0.0;    // ns, members executed in isolation
  double shared_cost = 0.0;  // ns, fused once + consumer restoration
  double est_rows = 0.0;     // estimated fused output rows
  int64_t est_bytes = 0;     // estimated fused output bytes
};

class CostModel {
 public:
  /// `estimator` is not owned and must outlive the model.
  explicit CostModel(const CardinalityEstimator* estimator,
                     CostConstants constants = CostConstants())
      : estimator_(estimator), constants_(constants) {}

  /// Estimated ns to execute `plan` once (recursive over the subtree).
  double SubtreeCost(const PlanPtr& plan) const;

  /// Prices executing `fused` once for all of `members` against executing
  /// each member in isolation (cross-query sharing, src/server).
  ShareDecision DecideShare(const PlanPtr& fused,
                            const std::vector<PlanPtr>& members) const;

  const CardinalityEstimator& estimator() const { return *estimator_; }
  const CostConstants& constants() const { return constants_; }

 private:
  const CardinalityEstimator* estimator_;  // not owned
  CostConstants constants_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_COST_COST_MODEL_H_
