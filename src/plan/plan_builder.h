// PlanBuilder: a fluent, name-based API for constructing logical plans.
// This is the public query-construction surface (FusionDB has no SQL parser;
// the paper's techniques are entirely post-parse, so queries are expressed
// directly in the algebra).
#ifndef FUSIONDB_PLAN_PLAN_BUILDER_H_
#define FUSIONDB_PLAN_PLAN_BUILDER_H_

#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// Specification of one aggregate (or window) function for the builder.
struct AggSpec {
  std::string name;
  AggFunc func = AggFunc::kCountStar;
  ExprPtr arg;   // null for COUNT(*)
  ExprPtr mask;  // null for TRUE
  bool distinct = false;
};

/// Builder over an under-construction plan. Columns are addressed by name
/// against the current output schema; names must be unambiguous (TPC-DS
/// column names are globally unique, which keeps query code readable).
class PlanBuilder {
 public:
  /// Starts from a table scan reading the named columns.
  static PlanBuilder Scan(PlanContext* ctx, const TablePtr& table,
                          std::vector<std::string> columns);

  /// Starts from an inline constant table.
  static PlanBuilder Values(PlanContext* ctx, std::vector<std::string> names,
                            std::vector<DataType> types,
                            std::vector<std::vector<Value>> rows);

  /// Wraps an existing plan.
  static PlanBuilder From(PlanContext* ctx, PlanPtr plan);

  /// Bag-union of several builders (positional, column count must match);
  /// output names/types follow the first input.
  static PlanBuilder UnionAll(PlanContext* ctx, std::vector<PlanBuilder> inputs);

  /// Column metadata by name (aborts if absent — query-building bugs).
  ColumnInfo Col(const std::string& name) const;

  /// Column-reference expression by name.
  ExprPtr Ref(const std::string& name) const;

  PlanBuilder& Filter(ExprPtr predicate);

  /// Replaces the output with the given named expressions (fresh ids).
  PlanBuilder& Project(std::vector<std::pair<std::string, ExprPtr>> exprs);

  /// Keeps only the named pass-through columns (ids preserved).
  PlanBuilder& Select(std::vector<std::string> columns);

  /// Appends computed columns after all existing ones.
  PlanBuilder& ProjectPlus(std::vector<std::pair<std::string, ExprPtr>> extra);

  PlanBuilder& Join(JoinType type, const PlanBuilder& right, ExprPtr condition);

  /// Equi-join on name pairs (left name, right name) plus optional residual.
  PlanBuilder& JoinOn(JoinType type, const PlanBuilder& right,
                      const std::vector<std::pair<std::string, std::string>>& eq,
                      ExprPtr residual = nullptr);

  PlanBuilder& CrossJoin(const PlanBuilder& right);

  PlanBuilder& Aggregate(const std::vector<std::string>& group_by,
                         std::vector<AggSpec> aggs);

  PlanBuilder& Window(const std::vector<std::string>& partition_by,
                      std::vector<AggSpec> items);

  PlanBuilder& Sort(const std::vector<std::pair<std::string, bool>>& keys);
  PlanBuilder& Limit(int64_t n);
  PlanBuilder& EnforceSingleRow();

  /// Correlated scalar subquery: appends the subquery's single aggregate
  /// column. `correlation` pairs an outer column (by name, resolved here)
  /// with an inner column id of the subquery aggregate's input.
  PlanBuilder& Apply(const PlanBuilder& scalar_subquery,
                     const std::vector<std::pair<std::string, ColumnId>>&
                         correlation);

  const Schema& schema() const { return plan_->schema(); }
  const PlanPtr& Build() const { return plan_; }
  PlanContext* context() const { return ctx_; }

 private:
  PlanBuilder(PlanContext* ctx, PlanPtr plan)
      : ctx_(ctx), plan_(std::move(plan)) {}

  PlanContext* ctx_;
  PlanPtr plan_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_PLAN_PLAN_BUILDER_H_
