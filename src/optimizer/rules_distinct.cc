// Distinct-related substrate rules: the semi-join -> distinct-join rewrite
// and the distinct-below-join pushdown the paper's Q95 walk-through relies
// on.
#include "expr/simplifier.h"
#include "optimizer/rewrite_utils.h"
#include "optimizer/rules.h"

namespace fusiondb {

Result<PlanPtr> SemiJoinToDistinctJoinRule::Apply(const PlanPtr& plan,
                                                  PlanContext* ctx) const {
  (void)ctx;
  if (plan->kind() != OpKind::kJoin) return plan;
  const auto& join = Cast<JoinOp>(*plan);
  if (join.join_type() != JoinType::kSemi) return plan;
  // Condition must be pure column equalities so the distinct on the right
  // join columns makes each left row match at most once.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(join.condition(), &conjuncts);
  if (conjuncts.empty()) return plan;
  std::vector<ColumnId> right_cols;
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != ExprKind::kCompare ||
        c->compare_op() != CompareOp::kEq ||
        c->child(0)->kind() != ExprKind::kColumnRef ||
        c->child(1)->kind() != ExprKind::kColumnRef) {
      return plan;
    }
    ColumnId a = c->child(0)->column_id();
    ColumnId b = c->child(1)->column_id();
    if (join.right()->schema().Contains(a)) {
      right_cols.push_back(a);
    } else if (join.right()->schema().Contains(b)) {
      right_cols.push_back(b);
    } else {
      return plan;
    }
  }
  PlanPtr distinct = std::make_shared<AggregateOp>(
      join.right(), right_cols, std::vector<AggregateItem>());
  PlanPtr inner = std::make_shared<JoinOp>(JoinType::kInner, join.left(),
                                           distinct, join.condition());
  // Restore the semi join's output schema (left columns only).
  return RestoreSchema(inner, join.schema(), ColumnMap());
}

Result<PlanPtr> PushDistinctBelowJoinRule::Apply(const PlanPtr& plan,
                                                 PlanContext* ctx) const {
  (void)ctx;
  if (plan->kind() != OpKind::kAggregate) return plan;
  const auto& agg = Cast<AggregateOp>(*plan);
  if (!agg.aggregates().empty() || agg.group_by().empty()) return plan;
  // Look through a pure-renaming projection between the distinct and the
  // join (Q95's ws_wh CTE renames ws_order_number before joining
  // web_returns): translate the group columns to the underlying ones.
  PlanPtr below = agg.child(0);
  ColumnMap rename;  // distinct's group cols -> underlying join cols
  if (below->kind() == OpKind::kProject) {
    const auto& proj = Cast<ProjectOp>(*below);
    for (const NamedExpr& e : proj.exprs()) {
      if (e.expr->kind() != ExprKind::kColumnRef) return plan;
      rename[e.id] = e.expr->column_id();
    }
    below = proj.child(0);
  }
  std::vector<ColumnId> group_cols;
  group_cols.reserve(agg.group_by().size());
  for (ColumnId g : agg.group_by()) group_cols.push_back(ApplyMap(rename, g));
  if (below->kind() != OpKind::kJoin) return plan;
  const auto& join = Cast<JoinOp>(*below);
  if (join.join_type() != JoinType::kInner) return plan;
  // The join condition must be column equalities, and the distinct columns
  // must all be join columns — then distinct-over-join equals the join of
  // per-side distincts on the join columns.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(join.condition(), &conjuncts);
  if (conjuncts.empty()) return plan;
  std::vector<ColumnId> left_keys;
  std::vector<ColumnId> right_keys;
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != ExprKind::kCompare ||
        c->compare_op() != CompareOp::kEq ||
        c->child(0)->kind() != ExprKind::kColumnRef ||
        c->child(1)->kind() != ExprKind::kColumnRef) {
      return plan;
    }
    ColumnId a = c->child(0)->column_id();
    ColumnId b = c->child(1)->column_id();
    if (join.left()->schema().Contains(a) &&
        join.right()->schema().Contains(b)) {
      left_keys.push_back(a);
      right_keys.push_back(b);
    } else if (join.left()->schema().Contains(b) &&
               join.right()->schema().Contains(a)) {
      left_keys.push_back(b);
      right_keys.push_back(a);
    } else {
      return plan;
    }
  }
  // Every distinct column must be one of the join's equality columns.
  EqualityClasses classes(conjuncts);
  for (ColumnId g : group_cols) {
    bool found = false;
    for (size_t i = 0; i < left_keys.size() && !found; ++i) {
      found = classes.Same(g, left_keys[i]) || classes.Same(g, right_keys[i]);
    }
    if (!found) return plan;
  }
  PlanPtr left = std::make_shared<AggregateOp>(join.left(), left_keys,
                                               std::vector<AggregateItem>());
  PlanPtr right = std::make_shared<AggregateOp>(join.right(), right_keys,
                                                std::vector<AggregateItem>());
  PlanPtr pushed = std::make_shared<JoinOp>(JoinType::kInner, left, right,
                                            join.condition());
  // Restore the original distinct's output (its group columns, possibly
  // through the renaming projection we looked through).
  return RestoreSchema(pushed, agg.schema(), rename);
}

}  // namespace fusiondb
