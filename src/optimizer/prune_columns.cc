#include "optimizer/prune_columns.h"

#include <unordered_set>

#include "expr/expr.h"

namespace fusiondb {

namespace {

using ColumnSet = std::unordered_set<ColumnId>;

void AddExprColumns(const ExprPtr& e, ColumnSet* set) {
  if (e == nullptr) return;
  std::vector<ColumnId> cols;
  CollectColumns(e, &cols);
  set->insert(cols.begin(), cols.end());
}

Result<PlanPtr> Prune(const PlanPtr& plan, const ColumnSet& required);

Result<PlanPtr> PruneChildPassthrough(const PlanPtr& plan,
                                      const ColumnSet& required) {
  FUSIONDB_ASSIGN_OR_RETURN(PlanPtr child, Prune(plan->child(0), required));
  if (child == plan->child(0)) return plan;
  return plan->CloneWithChildren({std::move(child)});
}

Result<PlanPtr> Prune(const PlanPtr& plan, const ColumnSet& required) {
  switch (plan->kind()) {
    case OpKind::kScan: {
      const auto& scan = Cast<ScanOp>(*plan);
      ColumnSet needed = required;
      AddExprColumns(scan.pruning_filter(), &needed);
      std::vector<int> table_columns;
      std::vector<ColumnInfo> cols;
      for (size_t i = 0; i < scan.schema().num_columns(); ++i) {
        if (needed.count(scan.schema().column(i).id) == 0) continue;
        table_columns.push_back(scan.table_columns()[i]);
        cols.push_back(scan.schema().column(i));
      }
      // A scan must read something to preserve row counts (COUNT(*) over a
      // table with no referenced columns): keep the narrowest column.
      if (cols.empty() && scan.schema().num_columns() > 0) {
        size_t best = 0;
        int64_t best_width = FixedWidthOf(scan.schema().column(0).type);
        for (size_t i = 1; i < scan.schema().num_columns(); ++i) {
          int64_t w = FixedWidthOf(scan.schema().column(i).type);
          if (w != 0 && (best_width == 0 || w < best_width)) {
            best = i;
            best_width = w;
          }
        }
        table_columns.push_back(scan.table_columns()[best]);
        cols.push_back(scan.schema().column(best));
      }
      if (cols.size() == scan.schema().num_columns()) return plan;
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<ScanOp>(scan.table(), std::move(table_columns),
                                   Schema(std::move(cols)),
                                   scan.pruning_filter()));
    }
    case OpKind::kFilter: {
      const auto& filter = Cast<FilterOp>(*plan);
      ColumnSet needed = required;
      AddExprColumns(filter.predicate(), &needed);
      FUSIONDB_ASSIGN_OR_RETURN(PlanPtr child, Prune(filter.child(0), needed));
      if (child == filter.child(0)) return plan;
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<FilterOp>(std::move(child), filter.predicate()));
    }
    case OpKind::kProject: {
      const auto& proj = Cast<ProjectOp>(*plan);
      std::vector<NamedExpr> kept;
      ColumnSet needed;
      for (const NamedExpr& e : proj.exprs()) {
        if (required.count(e.id) == 0) continue;
        kept.push_back(e);
        AddExprColumns(e.expr, &needed);
      }
      if (kept.empty() && !proj.exprs().empty()) {
        kept.push_back(proj.exprs()[0]);
        AddExprColumns(proj.exprs()[0].expr, &needed);
      }
      FUSIONDB_ASSIGN_OR_RETURN(PlanPtr child, Prune(proj.child(0), needed));
      if (child == proj.child(0) && kept.size() == proj.exprs().size()) {
        return plan;
      }
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<ProjectOp>(std::move(child), std::move(kept)));
    }
    case OpKind::kJoin: {
      const auto& join = Cast<JoinOp>(*plan);
      ColumnSet needed = required;
      AddExprColumns(join.condition(), &needed);
      FUSIONDB_ASSIGN_OR_RETURN(PlanPtr left, Prune(join.left(), needed));
      FUSIONDB_ASSIGN_OR_RETURN(PlanPtr right, Prune(join.right(), needed));
      if (left == join.left() && right == join.right()) return plan;
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<JoinOp>(join.join_type(), std::move(left),
                                   std::move(right), join.condition()));
    }
    case OpKind::kAggregate: {
      const auto& agg = Cast<AggregateOp>(*plan);
      ColumnSet needed;
      needed.insert(agg.group_by().begin(), agg.group_by().end());
      std::vector<AggregateItem> kept;
      for (const AggregateItem& a : agg.aggregates()) {
        if (required.count(a.id) == 0) continue;
        kept.push_back(a);
        AddExprColumns(a.arg, &needed);
        AddExprColumns(a.mask, &needed);
      }
      FUSIONDB_ASSIGN_OR_RETURN(PlanPtr child, Prune(agg.child(0), needed));
      if (child == agg.child(0) && kept.size() == agg.aggregates().size()) {
        return plan;
      }
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<AggregateOp>(std::move(child), agg.group_by(),
                                        std::move(kept)));
    }
    case OpKind::kWindow: {
      const auto& win = Cast<WindowOp>(*plan);
      ColumnSet needed = required;
      needed.insert(win.partition_by().begin(), win.partition_by().end());
      std::vector<WindowItem> kept;
      for (const WindowItem& w : win.items()) {
        if (required.count(w.id) == 0) continue;
        kept.push_back(w);
        AddExprColumns(w.arg, &needed);
        AddExprColumns(w.mask, &needed);
      }
      for (const WindowItem& w : kept) needed.erase(w.id);
      FUSIONDB_ASSIGN_OR_RETURN(PlanPtr child, Prune(win.child(0), needed));
      if (child == win.child(0) && kept.size() == win.items().size()) {
        return plan;
      }
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<WindowOp>(std::move(child), win.partition_by(),
                                     std::move(kept)));
    }
    case OpKind::kUnionAll: {
      const auto& u = Cast<UnionAllOp>(*plan);
      // Keep required output positions; narrow each child accordingly.
      std::vector<size_t> positions;
      for (size_t o = 0; o < u.schema().num_columns(); ++o) {
        if (required.count(u.schema().column(o).id) > 0) positions.push_back(o);
      }
      if (positions.empty() && u.schema().num_columns() > 0) {
        positions.push_back(0);
      }
      std::vector<PlanPtr> children;
      std::vector<std::vector<ColumnId>> input_columns;
      std::vector<ColumnInfo> out_cols;
      for (size_t o : positions) out_cols.push_back(u.schema().column(o));
      for (size_t c = 0; c < u.num_children(); ++c) {
        ColumnSet needed;
        std::vector<ColumnId> ids;
        for (size_t o : positions) {
          ids.push_back(u.input_columns()[c][o]);
          needed.insert(u.input_columns()[c][o]);
        }
        FUSIONDB_ASSIGN_OR_RETURN(PlanPtr child, Prune(u.child(c), needed));
        children.push_back(std::move(child));
        input_columns.push_back(std::move(ids));
      }
      if (positions.size() == u.schema().num_columns()) {
        bool unchanged = true;
        for (size_t c = 0; c < children.size(); ++c) {
          unchanged &= (children[c] == u.child(c));
        }
        if (unchanged) return plan;
      }
      return std::static_pointer_cast<const LogicalOp>(
          std::make_shared<UnionAllOp>(std::move(children),
                                       Schema(std::move(out_cols)),
                                       std::move(input_columns)));
    }
    case OpKind::kSort: {
      const auto& sort = Cast<SortOp>(*plan);
      ColumnSet needed = required;
      for (const SortKey& k : sort.keys()) needed.insert(k.column);
      FUSIONDB_ASSIGN_OR_RETURN(PlanPtr child, Prune(sort.child(0), needed));
      if (child == sort.child(0)) return plan;
      return plan->CloneWithChildren({std::move(child)});
    }
    case OpKind::kLimit:
    case OpKind::kEnforceSingleRow:
      return PruneChildPassthrough(plan, required);
    case OpKind::kValues:
      return plan;
    case OpKind::kApply: {
      // Conservative: require everything below an Apply.
      return plan;
    }
    case OpKind::kSpool:
      // Spool children are shared by multiple consumers with different
      // needs; never narrow through them.
      return plan;
  }
  return plan;
}

}  // namespace

Result<PlanPtr> PruneColumns(const PlanPtr& plan, const Schema& outputs) {
  ColumnSet required;
  for (const ColumnInfo& c : outputs.columns()) required.insert(c.id);
  FUSIONDB_ASSIGN_OR_RETURN(PlanPtr pruned, Prune(plan, required));
  // The output columns must survive: pruning keeps required columns by
  // construction, but sorts/limits pass schemas through, so simply verify.
  for (const ColumnInfo& c : outputs.columns()) {
    if (!pruned->schema().Contains(c.id)) {
      return Status::Internal("column pruning dropped root column " + c.name);
    }
  }
  return pruned;
}

}  // namespace fusiondb
