// Cross-plan fusion: folding Fuse(P1, P2) over N whole query plans so that
// N queries sharing work pay for it once — the cross-query analogue of the
// within-plan rules in rules.h, and the mechanism behind src/server's
// shared execution ("Pay One, Get Hundreds for Free" in PAPERS.md).
//
// The fold is sound because of the Fuse contract (fuse.h): the fused plan's
// schema contains all of P1's output columns *with their ids intact*. After
// plan_k+1 = Fuse(plan_k, next).plan, every column an earlier consumer's
// compensating filter or mapping names is still present in plan_k+1, so
// earlier consumers stay restorable — each one just accumulates the new
// step's left filter conjunctively:
//
//   member_i == Project_{M_i(outCols(member_i))}( Filter_{F_i}(plan_N) )
//   F_i = R_i ∧ L_{i+1} ∧ ... ∧ L_N     (R_i from member i's own step)
//
// All plans must live in one PlanContext id space; plans submitted from
// separate sessions are renumbered first (plan/multi_plan.h).
#ifndef FUSIONDB_FUSION_FUSE_ACROSS_H_
#define FUSIONDB_FUSION_FUSE_ACROSS_H_

#include <optional>
#include <vector>

#include "fusion/fuse.h"
#include "plan/plan_fingerprint.h"

namespace fusiondb {

/// How to restore one member plan from the shared fused plan: keep the rows
/// where `filter` holds (nullptr means all rows), then read the member's
/// output column `c` from fused column `ApplyMap(mapping, c)`.
struct CrossConsumer {
  ExprPtr filter;     // over the fused plan's output; nullptr == TRUE
  ColumnMap mapping;  // member output ids -> fused plan output ids
};

/// Incrementally folds member plans into one shared plan. The server uses
/// one instance per candidate group: TryAdd either absorbs the plan
/// (returning its consumer index) or leaves the group untouched.
class CrossPlanFuser {
 public:
  /// `ctx` must be the context all added plans were built/renumbered in.
  /// When the context carries a semantic ledger (ctx->semantics()), each
  /// fold records implication obligations — every consumer's accumulated
  /// filter must imply the filter it replaced — for the semantic verifier
  /// to re-prove (DESIGN.md §8).
  explicit CrossPlanFuser(PlanContext* ctx) : fuser_(ctx), ctx_(ctx) {}

  /// Attempts to fold `plan` into the shared plan. The first add always
  /// succeeds (the shared plan is just `plan`). A plan whose canonical form
  /// (plan/plan_fingerprint.h) is PlanEquivalent to an existing member's
  /// overlays that member's consumer directly — exact sharing for *any*
  /// operator shape, including roots Fuse has no rule for (Window,
  /// UnionAll) — the same identity notion the spool rule uses to group
  /// duplicate subtrees (§11.1). Otherwise the add succeeds iff
  /// Fuse(shared, plan) does. On failure the fuser is unchanged.
  std::optional<size_t> TryAdd(const PlanPtr& plan);

  /// The shared plan computing every member added so far.
  const PlanPtr& plan() const { return plan_; }

  const CrossConsumer& consumer(size_t i) const { return consumers_[i]; }

  /// The member plans as added (consumer i restores members()[i]).
  const std::vector<PlanPtr>& members() const { return members_; }

 private:
  Fuser fuser_;
  PlanContext* ctx_;  // not owned; carries the optional semantic ledger
  PlanPtr plan_;
  std::vector<CrossConsumer> consumers_;
  std::vector<PlanPtr> members_;
  std::vector<CanonicalPlan> member_canonicals_;  // aligned with members_
};

}  // namespace fusiondb

#endif  // FUSIONDB_FUSION_FUSE_ACROSS_H_
