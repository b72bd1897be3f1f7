#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

namespace fusiondb {

namespace {

bool IsHashingOp(OpKind kind) {
  switch (kind) {
    case OpKind::kJoin:
    case OpKind::kAggregate:
    case OpKind::kWindow:
    case OpKind::kSort:  // not hashing, but comparably heavy per row
      return true;
    case OpKind::kScan:
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kUnionAll:
    case OpKind::kValues:
    case OpKind::kLimit:
    case OpKind::kEnforceSingleRow:
    case OpKind::kApply:
    case OpKind::kSpool:
      return false;
  }
  return false;
}

}  // namespace

double CostModel::SubtreeCost(const PlanPtr& plan) const {
  if (plan == nullptr) return 0.0;
  double cost = 0.0;
  for (const PlanPtr& c : plan->children()) cost += SubtreeCost(c);

  CardEstimate out = estimator_->Estimate(plan);
  if (plan->kind() == OpKind::kScan) {
    // Decode cost: estimated rows actually produced (feedback-overlaid, so
    // a measured small scan prices small) times the stored row width.
    double bytes = out.rows * CardinalityEstimator::RowBytes(plan);
    cost += bytes * constants_.decode_ns_per_byte;
  }
  // Per-row operator work on the rows this node processes. Charge the
  // larger of input and output rows so filters pay for what they inspect.
  double rows = out.rows;
  for (const PlanPtr& c : plan->children()) {
    rows = std::max(rows, estimator_->Estimate(c).rows);
  }
  cost += rows * (IsHashingOp(plan->kind()) ? constants_.hash_row_ns
                                            : constants_.row_ns);
  return cost;
}

SpoolDecision CostModel::DecideSpool(const PlanPtr& subtree,
                                     int consumers) const {
  SpoolDecision d;
  CardEstimate out = estimator_->Estimate(subtree);
  d.est_rows = out.rows;
  d.measured = out.measured;
  double bytes =
      std::max(0.0, out.rows) * CardinalityEstimator::RowBytes(subtree);
  d.est_bytes = static_cast<int64_t>(std::llround(bytes));

  double once = SubtreeCost(subtree);
  double n = static_cast<double>(std::max(consumers, 1));
  d.reexec_cost = n * once;
  d.spool_cost = once + constants_.spool_setup_ns +
                 bytes * constants_.spool_write_ns_per_byte +
                 n * bytes * constants_.spool_read_ns_per_byte;
  d.spool = d.spool_cost < d.reexec_cost;
  return d;
}

ShareDecision CostModel::DecideShare(const PlanPtr& fused,
                                     const std::vector<PlanPtr>& members) const {
  ShareDecision d;
  CardEstimate out = estimator_->Estimate(fused);
  d.est_rows = out.rows;
  d.measured = out.measured;
  double bytes =
      std::max(0.0, out.rows) * CardinalityEstimator::RowBytes(fused);
  d.est_bytes = static_cast<int64_t>(std::llround(bytes));

  for (const PlanPtr& m : members) d.solo_cost += SubtreeCost(m);
  double n = static_cast<double>(std::max<size_t>(members.size(), 1));
  d.shared_cost = SubtreeCost(fused) +
                  n * std::max(0.0, out.rows) * constants_.row_ns;
  d.share = d.shared_cost < d.solo_cost;
  return d;
}

}  // namespace fusiondb
