// Multi-root plans: the container the cross-query server batches over.
//
// Plans submitted by different sessions were built in different
// PlanContexts, so their ColumnIds collide (every context starts minting at
// 1). Before two submitted plans can be compared or fused, each must be
// *renumbered* into one shared id space: RenumberPlan rebuilds a plan
// bottom-up, minting a fresh id for every defined column from the target
// context and rewriting all references, and returns the old->new ColumnMap
// so callers can still name the original output columns. Renumbering is
// semantics-preserving, and it is how plan identity is defined:
// PlanFingerprint hashes the plan renumbered into a fresh context
// (plan/plan_fingerprint.h).
//
// PlanBundle holds N renumbered roots over one PlanContext: a multi-root
// plan. It is the unit the server's admission window produces and the
// cross-plan fuser consumes.
#ifndef FUSIONDB_PLAN_MULTI_PLAN_H_
#define FUSIONDB_PLAN_MULTI_PLAN_H_

#include <vector>

#include "expr/column_map.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// A plan rebuilt into another PlanContext's id space, plus the mapping
/// from the original plan's ColumnIds to the fresh ones (covers every
/// column defined anywhere in the tree, not just the root schema, plus
/// RenumberPlan's seed).
struct RenumberedPlan {
  PlanPtr plan;
  ColumnMap mapping;  // original id -> renumbered id
};

/// Rebuilds `plan` with every ColumnId freshly minted from `ctx`, in
/// children-first, left-to-right, schema order. Shared subtrees (plan DAGs,
/// e.g. duplicated spool inputs) are renumbered once and stay shared in the
/// output. A reference to a column `plan` does not define (an Apply's inner
/// side on its own) is rewritten through `seed`, or left as it is when
/// `seed` does not map it.
RenumberedPlan RenumberPlan(const PlanPtr& plan, PlanContext* ctx,
                            ColumnMap seed = {});

/// An ordered set of plan roots sharing one PlanContext id space. AddRoot
/// renumbers the incoming plan (which may come from any context) into the
/// bundle's context.
class PlanBundle {
 public:
  explicit PlanBundle(PlanContext* ctx) : ctx_(ctx) {}

  struct Root {
    PlanPtr plan;       // renumbered into the bundle's context
    ColumnMap mapping;  // submitted plan's ids -> bundle ids
  };

  /// Renumbers `plan` into the bundle's context and appends it as a root.
  /// Returns the root's index.
  size_t AddRoot(const PlanPtr& plan) {
    RenumberedPlan r = RenumberPlan(plan, ctx_);
    roots_.push_back({std::move(r.plan), std::move(r.mapping)});
    return roots_.size() - 1;
  }

  const Root& root(size_t i) const { return roots_[i]; }
  PlanContext* ctx() const { return ctx_; }

 private:
  PlanContext* ctx_;  // not owned; must outlive the bundle
  std::vector<Root> roots_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_PLAN_MULTI_PLAN_H_
