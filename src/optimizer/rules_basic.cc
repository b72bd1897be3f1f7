// Substrate rules: expression simplification, filter/project normalization,
// partition-pruning handoff and filter pushdown.
#include <unordered_map>

#include "expr/simplifier.h"
#include "optimizer/rules.h"

namespace fusiondb {

Result<PlanPtr> SimplifyExpressionsRule::Apply(const PlanPtr& plan,
                                               PlanContext* ctx) const {
  (void)ctx;
  switch (plan->kind()) {
    case OpKind::kFilter: {
      const auto& filter = Cast<FilterOp>(*plan);
      ExprPtr simplified = Simplify(filter.predicate());
      if (simplified == filter.predicate()) return plan;
      if (IsTrueLiteral(simplified)) return filter.child(0);
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<FilterOp>(filter.child(0), simplified));
    }
    case OpKind::kProject: {
      const auto& proj = Cast<ProjectOp>(*plan);
      // Copy the assignments (names included) only once one changes.
      std::vector<ExprPtr> simplified;
      simplified.reserve(proj.exprs().size());
      bool changed = false;
      for (const NamedExpr& e : proj.exprs()) {
        simplified.push_back(Simplify(e.expr));
        changed |= (simplified.back() != e.expr);
      }
      if (!changed) return plan;
      std::vector<NamedExpr> exprs = proj.exprs();
      for (size_t i = 0; i < exprs.size(); ++i) {
        exprs[i].expr = std::move(simplified[i]);
      }
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<ProjectOp>(proj.child(0), std::move(exprs)));
    }
    case OpKind::kJoin: {
      const auto& join = Cast<JoinOp>(*plan);
      ExprPtr simplified = Simplify(join.condition());
      if (simplified == join.condition()) return plan;
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<JoinOp>(join.join_type(), join.left(), join.right(),
                                   simplified));
    }
    case OpKind::kAggregate: {
      const auto& agg = Cast<AggregateOp>(*plan);
      // Copy the items (names included) only once a mask changes.
      std::vector<ExprPtr> masks;
      masks.reserve(agg.aggregates().size());
      bool changed = false;
      for (const AggregateItem& a : agg.aggregates()) {
        ExprPtr s = Simplify(a.mask);
        if (IsTrueLiteral(s)) s = nullptr;
        changed |= (s != a.mask);
        masks.push_back(std::move(s));
      }
      if (!changed) return plan;
      std::vector<AggregateItem> items = agg.aggregates();
      for (size_t i = 0; i < items.size(); ++i) {
        items[i].mask = std::move(masks[i]);
      }
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<AggregateOp>(agg.child(0), agg.group_by(),
                                        std::move(items)));
    }
    case OpKind::kScan:
    case OpKind::kWindow:
    case OpKind::kUnionAll:
    case OpKind::kValues:
    case OpKind::kSort:
    case OpKind::kLimit:
    case OpKind::kEnforceSingleRow:
    case OpKind::kApply:
    case OpKind::kSpool:
      return plan;  // no embedded expressions to simplify
  }
  return plan;
}

Result<PlanPtr> MergeFiltersRule::Apply(const PlanPtr& plan,
                                        PlanContext* ctx) const {
  (void)ctx;
  if (plan->kind() != OpKind::kFilter) return plan;
  const auto& outer = Cast<FilterOp>(*plan);
  if (IsTrueLiteral(outer.predicate())) return outer.child(0);
  if (outer.child(0)->kind() != OpKind::kFilter) return plan;
  const auto& inner = Cast<FilterOp>(*outer.child(0));
  ExprPtr merged = MakeConjunction(inner.predicate(), outer.predicate());
  return std::static_pointer_cast<const LogicalOp>(
      std::make_shared<FilterOp>(inner.child(0), merged));
}

Result<PlanPtr> MergeProjectsRule::Apply(const PlanPtr& plan,
                                         PlanContext* ctx) const {
  (void)ctx;
  if (plan->kind() != OpKind::kProject) return plan;
  const auto& outer = Cast<ProjectOp>(*plan);
  if (outer.child(0)->kind() != OpKind::kProject) return plan;
  const auto& inner = Cast<ProjectOp>(*outer.child(0));
  // Inline inner assignments into outer expressions via substitution.
  std::unordered_map<ColumnId, ExprPtr> defs;
  for (const NamedExpr& e : inner.exprs()) defs[e.id] = e.expr;
  // Substitution: rebuild outer exprs replacing refs with inner defs.
  struct Subst {
    const std::unordered_map<ColumnId, ExprPtr>& defs;
    ExprPtr operator()(const ExprPtr& e) const {
      if (e->kind() == ExprKind::kColumnRef) {
        auto it = defs.find(e->column_id());
        return it == defs.end() ? e : it->second;
      }
      if (e->children().empty()) return e;
      std::vector<ExprPtr> children;
      children.reserve(e->children().size());
      bool changed = false;
      for (const ExprPtr& c : e->children()) {
        ExprPtr nc = (*this)(c);
        changed |= (nc != c);
        children.push_back(std::move(nc));
      }
      if (!changed) return e;
      switch (e->kind()) {
        case ExprKind::kCompare:
          return Expr::MakeCompare(e->compare_op(), children[0], children[1]);
        case ExprKind::kArith:
          return Expr::MakeArith(e->arith_op(), children[0], children[1],
                                 e->type());
        case ExprKind::kAnd:
          return Expr::MakeAnd(std::move(children));
        case ExprKind::kOr:
          return Expr::MakeOr(std::move(children));
        case ExprKind::kNot:
          return Expr::MakeNot(children[0]);
        case ExprKind::kIsNull:
          return Expr::MakeIsNull(children[0]);
        case ExprKind::kCase:
          return Expr::MakeCase(std::move(children), e->type());
        case ExprKind::kInList:
          return Expr::MakeInList(std::move(children));
        case ExprKind::kColumnRef:
        case ExprKind::kLiteral:
          return e;  // leaves; handled before recursion
      }
      return e;
    }
  };
  Subst subst{defs};
  std::vector<NamedExpr> merged;
  merged.reserve(outer.exprs().size());
  for (const NamedExpr& e : outer.exprs()) {
    merged.push_back({e.id, e.name, subst(e.expr)});
  }
  return std::static_pointer_cast<const LogicalOp>(
      std::make_shared<ProjectOp>(inner.child(0), std::move(merged)));
}

Result<PlanPtr> PushFilterIntoScanRule::Apply(const PlanPtr& plan,
                                              PlanContext* ctx) const {
  (void)ctx;
  if (plan->kind() != OpKind::kFilter) return plan;
  const auto& filter = Cast<FilterOp>(*plan);
  if (filter.child(0)->kind() != OpKind::kScan) return plan;
  const auto& scan = Cast<ScanOp>(*filter.child(0));
  if (scan.pruning_filter() != nullptr &&
      ExprEquivalent(scan.pruning_filter(), filter.predicate())) {
    return plan;  // already handed over
  }
  PlanPtr new_scan = std::make_shared<ScanOp>(
      scan.table(), scan.table_columns(), scan.schema(), filter.predicate());
  return std::static_pointer_cast<const LogicalOp>(
      std::make_shared<FilterOp>(new_scan, filter.predicate()));
}

Result<PlanPtr> FilterPushdownRule::Apply(const PlanPtr& plan,
                                          PlanContext* ctx) const {
  if (plan->kind() != OpKind::kFilter) return plan;
  const auto& filter = Cast<FilterOp>(*plan);
  const PlanPtr& child = filter.child(0);
  if (child->kind() != OpKind::kJoin) return plan;
  const auto& join = Cast<JoinOp>(*child);
  // Only inner/cross joins admit unconditional pushdown of conjuncts.
  if (join.join_type() != JoinType::kInner &&
      join.join_type() != JoinType::kCross) {
    return plan;
  }
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(filter.predicate(), &conjuncts);
  std::vector<ExprPtr> to_left;
  std::vector<ExprPtr> to_right;
  std::vector<ExprPtr> keep;
  auto covered = [](const ExprPtr& e, const Schema& s) {
    std::vector<ColumnId> cols;
    CollectColumns(e, &cols);
    for (ColumnId c : cols) {
      if (!s.Contains(c)) return false;
    }
    return true;
  };
  for (const ExprPtr& c : conjuncts) {
    if (covered(c, join.left()->schema())) {
      to_left.push_back(c);
    } else if (covered(c, join.right()->schema())) {
      to_right.push_back(c);
    } else {
      keep.push_back(c);
    }
  }
  if (to_left.empty() && to_right.empty()) return plan;
  // Each pushed filter continues down its side's join tree in this same
  // application; one step per firing would cost a whole-plan sweep per
  // level of a SQL join chain.
  PlanPtr left = join.left();
  PlanPtr right = join.right();
  if (!to_left.empty()) {
    FUSIONDB_ASSIGN_OR_RETURN(
        left, Apply(std::make_shared<FilterOp>(left, CombineConjuncts(to_left)),
                    ctx));
  }
  if (!to_right.empty()) {
    FUSIONDB_ASSIGN_OR_RETURN(
        right,
        Apply(std::make_shared<FilterOp>(right, CombineConjuncts(to_right)),
              ctx));
  }
  PlanPtr new_join =
      std::make_shared<JoinOp>(join.join_type(), left, right, join.condition());
  if (keep.empty()) return new_join;
  return std::static_pointer_cast<const LogicalOp>(
      std::make_shared<FilterOp>(new_join, CombineConjuncts(keep)));
}

}  // namespace fusiondb
