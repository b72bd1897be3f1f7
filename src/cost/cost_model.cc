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

  double out = estimator_->Estimate(plan);
  if (plan->kind() == OpKind::kScan) {
    // Decode cost: estimated rows produced times the stored row width.
    double bytes = out * CardinalityEstimator::RowBytes(plan);
    cost += bytes * constants_.decode_ns_per_byte;
  }
  // Per-row operator work on the rows this node processes. Charge the
  // larger of input and output rows so filters pay for what they inspect.
  double rows = out;
  for (const PlanPtr& c : plan->children()) {
    rows = std::max(rows, estimator_->Estimate(c));
  }
  cost += rows * (IsHashingOp(plan->kind()) ? constants_.hash_row_ns
                                            : constants_.row_ns);
  return cost;
}

ShareDecision CostModel::DecideShare(const PlanPtr& fused,
                                     const std::vector<PlanPtr>& members) const {
  ShareDecision d;
  d.est_rows = estimator_->Estimate(fused);
  double bytes =
      std::max(0.0, d.est_rows) * CardinalityEstimator::RowBytes(fused);
  d.est_bytes = static_cast<int64_t>(std::llround(bytes));

  for (const PlanPtr& m : members) d.solo_cost += SubtreeCost(m);
  double n = static_cast<double>(std::max<size_t>(members.size(), 1));
  d.shared_cost = SubtreeCost(fused) +
                  n * std::max(0.0, d.est_rows) * constants_.row_ns;
  d.share = d.shared_cost < d.solo_cost;
  return d;
}

}  // namespace fusiondb
