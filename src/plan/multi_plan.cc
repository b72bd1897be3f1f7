#include "plan/multi_plan.h"

#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "plan/spool.h"

namespace fusiondb {

namespace {

/// One renumbering walk: the accumulated old->new map (ids are unique
/// within the source plan's context, so a single map covers the whole
/// tree) and a per-node memo that keeps shared subtrees shared.
struct RenumberState {
  PlanContext* ctx;
  ColumnMap map;
  std::unordered_map<const LogicalOp*, PlanPtr> memo;

  ColumnId Fresh(ColumnId old_id) {
    ColumnId id = ctx->NextId();
    map[old_id] = id;
    return id;
  }
};

/// ApplyMap for nullable operator parameters (aggregate args and masks use
/// nullptr for "absent"/"TRUE").
ExprPtr MapExpr(const ColumnMap& m, const ExprPtr& expr) {
  return expr == nullptr ? nullptr : ApplyMap(m, expr);
}

/// New ColumnInfos for `schema` with fresh ids registered in the map.
std::vector<ColumnInfo> FreshColumns(const Schema& schema, RenumberState* st) {
  std::vector<ColumnInfo> cols;
  cols.reserve(schema.num_columns());
  for (const ColumnInfo& c : schema.columns()) {
    cols.push_back({st->Fresh(c.id), c.name, c.type});
  }
  return cols;
}

PlanPtr RenumberNode(const PlanPtr& plan, RenumberState* st) {
  auto it = st->memo.find(plan.get());
  if (it != st->memo.end()) return it->second;

  // Children first: every reference a node's parameters hold points at a
  // column defined at or below its children (or, for leaves, at the node's
  // own freshly minted schema), so by the time parameters are remapped the
  // map already covers them.
  std::vector<PlanPtr> children;
  children.reserve(plan->num_children());
  for (const PlanPtr& c : plan->children()) {
    children.push_back(RenumberNode(c, st));
  }

  PlanPtr out;
  switch (plan->kind()) {
    case OpKind::kScan: {
      const auto& scan = Cast<ScanOp>(*plan);
      out = std::make_shared<ScanOp>(scan.table(), scan.table_columns(),
                                     Schema(FreshColumns(scan.schema(), st)));
      break;
    }
    case OpKind::kValues: {
      const auto& values = Cast<ValuesOp>(*plan);
      out = std::make_shared<ValuesOp>(Schema(FreshColumns(values.schema(), st)),
                                       values.rows());
      break;
    }
    case OpKind::kFilter: {
      const auto& filter = Cast<FilterOp>(*plan);
      out = std::make_shared<FilterOp>(children[0],
                                       ApplyMap(st->map, filter.predicate()));
      break;
    }
    case OpKind::kProject: {
      const auto& project = Cast<ProjectOp>(*plan);
      std::vector<NamedExpr> exprs;
      exprs.reserve(project.exprs().size());
      for (const NamedExpr& e : project.exprs()) {
        ExprPtr expr = ApplyMap(st->map, e.expr);  // refs child ids: map first
        exprs.push_back({st->Fresh(e.id), e.name, std::move(expr)});
      }
      out = std::make_shared<ProjectOp>(children[0], std::move(exprs));
      break;
    }
    case OpKind::kJoin: {
      const auto& join = Cast<JoinOp>(*plan);
      out = std::make_shared<JoinOp>(join.join_type(), children[0], children[1],
                                     ApplyMap(st->map, join.condition()));
      break;
    }
    case OpKind::kAggregate: {
      const auto& agg = Cast<AggregateOp>(*plan);
      std::vector<ColumnId> group_by;
      group_by.reserve(agg.group_by().size());
      for (ColumnId g : agg.group_by()) {
        group_by.push_back(ApplyMap(st->map, g));
      }
      std::vector<AggregateItem> items;
      items.reserve(agg.aggregates().size());
      for (const AggregateItem& a : agg.aggregates()) {
        AggregateItem item = a;
        item.arg = MapExpr(st->map, a.arg);
        item.mask = MapExpr(st->map, a.mask);
        item.id = st->Fresh(a.id);
        items.push_back(std::move(item));
      }
      out = std::make_shared<AggregateOp>(children[0], std::move(group_by),
                                          std::move(items));
      break;
    }
    case OpKind::kWindow: {
      const auto& window = Cast<WindowOp>(*plan);
      std::vector<ColumnId> partition_by;
      partition_by.reserve(window.partition_by().size());
      for (ColumnId p : window.partition_by()) {
        partition_by.push_back(ApplyMap(st->map, p));
      }
      std::vector<WindowItem> items;
      items.reserve(window.items().size());
      for (const WindowItem& w : window.items()) {
        WindowItem item = w;
        item.arg = MapExpr(st->map, w.arg);
        item.mask = MapExpr(st->map, w.mask);
        item.id = st->Fresh(w.id);
        items.push_back(std::move(item));
      }
      out = std::make_shared<WindowOp>(children[0], std::move(partition_by),
                                       std::move(items));
      break;
    }
    case OpKind::kUnionAll: {
      const auto& u = Cast<UnionAllOp>(*plan);
      std::vector<std::vector<ColumnId>> input_columns;
      input_columns.reserve(u.input_columns().size());
      for (const std::vector<ColumnId>& per_child : u.input_columns()) {
        std::vector<ColumnId> mapped;
        mapped.reserve(per_child.size());
        for (ColumnId c : per_child) mapped.push_back(ApplyMap(st->map, c));
        input_columns.push_back(std::move(mapped));
      }
      out = std::make_shared<UnionAllOp>(std::move(children),
                                         Schema(FreshColumns(u.schema(), st)),
                                         std::move(input_columns));
      break;
    }
    case OpKind::kSort: {
      const auto& sort = Cast<SortOp>(*plan);
      std::vector<SortKey> keys;
      keys.reserve(sort.keys().size());
      for (const SortKey& k : sort.keys()) {
        keys.push_back({ApplyMap(st->map, k.column), k.ascending});
      }
      out = std::make_shared<SortOp>(children[0], std::move(keys));
      break;
    }
    case OpKind::kApply: {
      const auto& apply = Cast<ApplyOp>(*plan);
      std::vector<std::pair<ColumnId, ColumnId>> correlation;
      correlation.reserve(apply.correlation().size());
      for (const auto& [outer, inner] : apply.correlation()) {
        correlation.push_back(
            {ApplyMap(st->map, outer), ApplyMap(st->map, inner)});
      }
      out = std::make_shared<ApplyOp>(children[0], children[1],
                                      std::move(correlation));
      break;
    }
    // Pass-through operators: the schema is the child's and every parameter
    // is id-free, so CloneWithChildren over renumbered children suffices.
    case OpKind::kLimit:
    case OpKind::kEnforceSingleRow:
    case OpKind::kSpool:
      out = plan->CloneWithChildren(std::move(children));
      break;
  }
  FUSIONDB_CHECK(out != nullptr, "renumber: unhandled operator kind");
  st->memo.emplace(plan.get(), out);
  return out;
}

}  // namespace

RenumberedPlan RenumberPlan(const PlanPtr& plan, PlanContext* ctx,
                            ColumnMap seed) {
  RenumberState st{ctx, std::move(seed), {}};
  PlanPtr out = RenumberNode(plan, &st);
  return {std::move(out), std::move(st.map)};
}

}  // namespace fusiondb
