#include "plan/logical_plan.h"

namespace fusiondb {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kScan:
      return "Scan";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kProject:
      return "Project";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kAggregate:
      return "Aggregate";
    case OpKind::kWindow:
      return "Window";
    case OpKind::kUnionAll:
      return "UnionAll";
    case OpKind::kValues:
      return "Values";
    case OpKind::kSort:
      return "Sort";
    case OpKind::kLimit:
      return "Limit";
    case OpKind::kEnforceSingleRow:
      return "EnforceSingleRow";
    case OpKind::kApply:
      return "Apply";
    case OpKind::kSpool:
      return "Spool";
  }
  return "Unknown";
}

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "Inner";
    case JoinType::kLeft:
      return "Left";
    case JoinType::kSemi:
      return "Semi";
    case JoinType::kCross:
      return "Cross";
  }
  return "Unknown";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
      return "count(*)";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "unknown";
}

DataType AggResultType(AggFunc f, DataType arg) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kSum:
      return arg == DataType::kFloat64 ? DataType::kFloat64 : DataType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg;
    case AggFunc::kAvg:
      return DataType::kFloat64;
  }
  return arg;
}

PlanPtr ScanOp::Make(PlanContext* ctx, TablePtr table,
                     const std::vector<std::string>& columns) {
  std::vector<int> table_columns;
  std::vector<ColumnInfo> cols;
  table_columns.reserve(columns.size());
  cols.reserve(columns.size());
  for (const std::string& name : columns) {
    int idx = table->ColumnIndex(name);
    FUSIONDB_CHECK(idx >= 0, ("scan of unknown column " + name).c_str());
    table_columns.push_back(idx);
    cols.push_back({ctx->NextId(), name, table->columns()[idx].type});
  }
  return std::make_shared<ScanOp>(std::move(table), std::move(table_columns),
                                  Schema(std::move(cols)));
}

PlanPtr ProjectOp::MakeIdentity(PlanPtr input) {
  std::vector<NamedExpr> exprs;
  exprs.reserve(input->schema().num_columns());
  for (const ColumnInfo& c : input->schema().columns()) {
    exprs.push_back({c.id, c.name, Expr::MakeColumnRef(c.id, c.type)});
  }
  return std::make_shared<ProjectOp>(std::move(input), std::move(exprs));
}

}  // namespace fusiondb
