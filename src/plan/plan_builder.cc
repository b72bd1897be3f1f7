#include "plan/plan_builder.h"

#include "expr/simplifier.h"

namespace fusiondb {

PlanBuilder PlanBuilder::Scan(PlanContext* ctx, const TablePtr& table,
                              std::vector<std::string> columns) {
  return PlanBuilder(ctx, ScanOp::Make(ctx, table, columns));
}

PlanBuilder PlanBuilder::Values(PlanContext* ctx,
                                std::vector<std::string> names,
                                std::vector<DataType> types,
                                std::vector<std::vector<Value>> rows) {
  FUSIONDB_CHECK(names.size() == types.size(), "values arity");
  std::vector<ColumnInfo> cols;
  cols.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    cols.push_back({ctx->NextId(), names[i], types[i]});
  }
  return PlanBuilder(
      ctx, std::make_shared<ValuesOp>(Schema(std::move(cols)), std::move(rows)));
}

PlanBuilder PlanBuilder::From(PlanContext* ctx, PlanPtr plan) {
  return PlanBuilder(ctx, std::move(plan));
}

PlanBuilder PlanBuilder::UnionAll(PlanContext* ctx,
                                  std::vector<PlanBuilder> inputs) {
  FUSIONDB_CHECK(!inputs.empty(), "union needs inputs");
  size_t width = inputs[0].schema().num_columns();
  std::vector<ColumnInfo> out_cols;
  out_cols.reserve(width);
  for (const ColumnInfo& c : inputs[0].schema().columns()) {
    out_cols.push_back({ctx->NextId(), c.name, c.type});
  }
  std::vector<PlanPtr> children;
  std::vector<std::vector<ColumnId>> input_columns;
  for (const PlanBuilder& b : inputs) {
    FUSIONDB_CHECK(b.schema().num_columns() == width, "union width mismatch");
    std::vector<ColumnId> ids;
    ids.reserve(width);
    for (const ColumnInfo& c : b.schema().columns()) ids.push_back(c.id);
    children.push_back(b.Build());
    input_columns.push_back(std::move(ids));
  }
  return PlanBuilder(ctx, std::make_shared<UnionAllOp>(
                              std::move(children), Schema(std::move(out_cols)),
                              std::move(input_columns)));
}

ColumnInfo PlanBuilder::Col(const std::string& name) const {
  Result<ColumnInfo> r = plan_->schema().FindByName(name);
  FUSIONDB_CHECK(r.ok(), ("PlanBuilder: " + r.status().ToString()).c_str());
  return *r;
}

ExprPtr PlanBuilder::Ref(const std::string& name) const {
  ColumnInfo c = Col(name);
  return Expr::MakeColumnRef(c.id, c.type);
}

PlanBuilder& PlanBuilder::Filter(ExprPtr predicate) {
  plan_ = std::make_shared<FilterOp>(plan_, std::move(predicate));
  return *this;
}

PlanBuilder& PlanBuilder::Project(
    std::vector<std::pair<std::string, ExprPtr>> exprs) {
  std::vector<NamedExpr> named;
  named.reserve(exprs.size());
  for (auto& [name, expr] : exprs) {
    named.push_back({ctx_->NextId(), name, std::move(expr)});
  }
  plan_ = std::make_shared<ProjectOp>(plan_, std::move(named));
  return *this;
}

PlanBuilder& PlanBuilder::Select(std::vector<std::string> columns) {
  std::vector<NamedExpr> named;
  named.reserve(columns.size());
  for (const std::string& name : columns) {
    ColumnInfo c = Col(name);
    named.push_back({c.id, c.name, Expr::MakeColumnRef(c.id, c.type)});
  }
  plan_ = std::make_shared<ProjectOp>(plan_, std::move(named));
  return *this;
}

PlanBuilder& PlanBuilder::ProjectPlus(
    std::vector<std::pair<std::string, ExprPtr>> extra) {
  std::vector<NamedExpr> named;
  named.reserve(schema().num_columns() + extra.size());
  for (const ColumnInfo& c : schema().columns()) {
    named.push_back({c.id, c.name, Expr::MakeColumnRef(c.id, c.type)});
  }
  for (auto& [name, expr] : extra) {
    named.push_back({ctx_->NextId(), name, std::move(expr)});
  }
  plan_ = std::make_shared<ProjectOp>(plan_, std::move(named));
  return *this;
}

PlanBuilder& PlanBuilder::Join(JoinType type, const PlanBuilder& right,
                               ExprPtr condition) {
  if (condition == nullptr) {
    condition = Expr::MakeLiteral(Value::Bool(true));
  }
  plan_ = std::make_shared<JoinOp>(type, plan_, right.Build(),
                                   std::move(condition));
  return *this;
}

PlanBuilder& PlanBuilder::JoinOn(
    JoinType type, const PlanBuilder& right,
    const std::vector<std::pair<std::string, std::string>>& eq,
    ExprPtr residual) {
  std::vector<ExprPtr> conjuncts;
  for (const auto& [l, r] : eq) {
    ColumnInfo lc = Col(l);
    ColumnInfo rc = right.Col(r);
    conjuncts.push_back(
        Expr::MakeCompare(CompareOp::kEq, Expr::MakeColumnRef(lc.id, lc.type),
                          Expr::MakeColumnRef(rc.id, rc.type)));
  }
  if (residual != nullptr) conjuncts.push_back(std::move(residual));
  return Join(type, right, CombineConjuncts(conjuncts));
}

PlanBuilder& PlanBuilder::CrossJoin(const PlanBuilder& right) {
  return Join(JoinType::kCross, right, Expr::MakeLiteral(Value::Bool(true)));
}

PlanBuilder& PlanBuilder::Aggregate(const std::vector<std::string>& group_by,
                                    std::vector<AggSpec> aggs) {
  std::vector<ColumnId> group_ids;
  group_ids.reserve(group_by.size());
  for (const std::string& g : group_by) group_ids.push_back(Col(g).id);
  std::vector<AggregateItem> items;
  items.reserve(aggs.size());
  for (AggSpec& a : aggs) {
    items.push_back({ctx_->NextId(), std::move(a.name), a.func, std::move(a.arg),
                     std::move(a.mask), a.distinct});
  }
  plan_ = std::make_shared<AggregateOp>(plan_, std::move(group_ids),
                                        std::move(items));
  return *this;
}

PlanBuilder& PlanBuilder::Window(const std::vector<std::string>& partition_by,
                                 std::vector<AggSpec> items) {
  std::vector<ColumnId> part_ids;
  part_ids.reserve(partition_by.size());
  for (const std::string& p : partition_by) part_ids.push_back(Col(p).id);
  std::vector<WindowItem> wins;
  wins.reserve(items.size());
  for (AggSpec& a : items) {
    FUSIONDB_CHECK(!a.distinct, "distinct window aggregates unsupported");
    wins.push_back(
        {ctx_->NextId(), std::move(a.name), a.func, std::move(a.arg),
         std::move(a.mask)});
  }
  plan_ = std::make_shared<WindowOp>(plan_, std::move(part_ids),
                                     std::move(wins));
  return *this;
}

PlanBuilder& PlanBuilder::Sort(
    const std::vector<std::pair<std::string, bool>>& keys) {
  std::vector<SortKey> sort_keys;
  sort_keys.reserve(keys.size());
  for (const auto& [name, asc] : keys) {
    sort_keys.push_back({Col(name).id, asc});
  }
  plan_ = std::make_shared<SortOp>(plan_, std::move(sort_keys));
  return *this;
}

PlanBuilder& PlanBuilder::Limit(int64_t n) {
  plan_ = std::make_shared<LimitOp>(plan_, n);
  return *this;
}

PlanBuilder& PlanBuilder::EnforceSingleRow() {
  plan_ = std::make_shared<EnforceSingleRowOp>(plan_);
  return *this;
}

PlanBuilder& PlanBuilder::Apply(
    const PlanBuilder& scalar_subquery,
    const std::vector<std::pair<std::string, ColumnId>>& correlation) {
  std::vector<std::pair<ColumnId, ColumnId>> corr;
  corr.reserve(correlation.size());
  for (const auto& [outer_name, inner_id] : correlation) {
    corr.push_back({Col(outer_name).id, inner_id});
  }
  plan_ = std::make_shared<ApplyOp>(plan_, scalar_subquery.Build(),
                                    std::move(corr));
  return *this;
}

}  // namespace fusiondb
