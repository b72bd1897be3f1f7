// Logical relational algebra. Operators are immutable and shared; the
// optimizer rewrites by building new trees over existing subtrees.
//
// The operator set mirrors the paper's: Scan, Filter, Project, Join
// (inner/left/semi/cross), Aggregate with *per-aggregate masks* (Section
// III.E: each aggregate is a pair (a, m) of function and boolean mask),
// Window, UnionAll, Values (the "constant table" of rule IV.D), Sort,
// Limit, EnforceSingleRow (III.G) and Apply (correlated scalar subquery
// placeholder removed by decorrelation). The paper's distinct-marking
// operator (III.F) has no counterpart: DISTINCT aggregates are native
// aggregate items (DESIGN.md §5).
#ifndef FUSIONDB_PLAN_LOGICAL_PLAN_H_
#define FUSIONDB_PLAN_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/check.h"
#include "expr/expr.h"
#include "plan/plan_context.h"

namespace fusiondb {

enum class OpKind : uint8_t {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kWindow,
  kUnionAll,
  kValues,
  kSort,
  kLimit,
  kEnforceSingleRow,
  kApply,
  kSpool,
};

const char* OpKindName(OpKind kind);

enum class JoinType : uint8_t { kInner, kLeft, kSemi, kCross };

const char* JoinTypeName(JoinType t);

enum class AggFunc : uint8_t { kCountStar, kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc f);

/// Result type of an aggregate over an argument of type `arg`.
DataType AggResultType(AggFunc f, DataType arg);

class LogicalOp;
using PlanPtr = std::shared_ptr<const LogicalOp>;

/// Base of all logical operators.
class LogicalOp {
 public:
  LogicalOp(OpKind kind, std::vector<PlanPtr> children, Schema schema)
      : kind_(kind), children_(std::move(children)), schema_(std::move(schema)) {}
  virtual ~LogicalOp() = default;

  LogicalOp(const LogicalOp&) = delete;
  LogicalOp& operator=(const LogicalOp&) = delete;

  OpKind kind() const { return kind_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  size_t num_children() const { return children_.size(); }
  const PlanPtr& child(size_t i) const { return children_[i]; }
  const Schema& schema() const { return schema_; }

  /// Rebuilds this operator over new children, recomputing pass-through
  /// schemas. Operator parameters (predicates, aggregates, ...) are shared.
  virtual PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const = 0;

 private:
  OpKind kind_;
  std::vector<PlanPtr> children_;
  Schema schema_;
};

/// Downcast with a kind check (bugs abort; never user-triggerable).
template <typename T>
const T& Cast(const LogicalOp& op) {
  FUSIONDB_CHECK(op.kind() == T::kKind, "bad plan cast");
  return static_cast<const T&>(op);
}
template <typename T>
const T* CastPtr(const PlanPtr& op) {
  FUSIONDB_CHECK(op->kind() == T::kKind, "bad plan cast");
  return static_cast<const T*>(op.get());
}

// ---------------------------------------------------------------------------

/// Scan of a catalog table. Reads `table_columns[i]` of the table as output
/// column i of `schema` (fresh ids). The executor prunes the scan's
/// partitions by the predicate of the Filter directly above it, if any
/// (exec/morsel_source.h StaticPruneSpec).
class ScanOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kScan;

  ScanOp(TablePtr table, std::vector<int> table_columns, Schema schema)
      : LogicalOp(kKind, {}, std::move(schema)),
        table_(std::move(table)),
        table_columns_(std::move(table_columns)) {
    FUSIONDB_CHECK(table_columns_.size() == this->schema().num_columns(),
                   "scan schema/column mismatch");
  }

  /// Creates a scan over the named table columns, minting fresh ids.
  static PlanPtr Make(PlanContext* ctx, TablePtr table,
                      const std::vector<std::string>& columns);

  const TablePtr& table() const { return table_; }
  const std::vector<int>& table_columns() const { return table_columns_; }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    FUSIONDB_CHECK(children.empty(), "scan has no children");
    return std::make_shared<ScanOp>(table_, table_columns_, schema());
  }

 private:
  TablePtr table_;
  std::vector<int> table_columns_;
};

/// Row filter; output schema equals the child's.
class FilterOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kFilter;

  FilterOp(PlanPtr input, ExprPtr predicate)
      : LogicalOp(kKind, {input}, input->schema()),
        predicate_(std::move(predicate)) {}

  const ExprPtr& predicate() const { return predicate_; }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<FilterOp>(children[0], predicate_);
  }

 private:
  ExprPtr predicate_;
};

/// One output column of a projection: out id/name plus defining expression
/// over the child's columns.
struct NamedExpr {
  ColumnId id = kInvalidColumnId;
  std::string name;
  ExprPtr expr;
};

class ProjectOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kProject;

  ProjectOp(PlanPtr input, std::vector<NamedExpr> exprs)
      : LogicalOp(kKind, {input}, SchemaOf(exprs)), exprs_(std::move(exprs)) {}

  const std::vector<NamedExpr>& exprs() const { return exprs_; }

  /// Identity projection passing through every child column (same ids).
  static PlanPtr MakeIdentity(PlanPtr input);

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<ProjectOp>(children[0], exprs_);
  }

 private:
  static Schema SchemaOf(const std::vector<NamedExpr>& exprs) {
    std::vector<ColumnInfo> cols;
    cols.reserve(exprs.size());
    for (const NamedExpr& e : exprs) {
      cols.push_back({e.id, e.name, e.expr->type()});
    }
    return Schema(std::move(cols));
  }

  std::vector<NamedExpr> exprs_;
};

/// Binary join. For kInner/kLeft/kCross the output schema is
/// left-then-right; for kSemi it is the left schema only. kCross requires a
/// TRUE condition.
class JoinOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kJoin;

  JoinOp(JoinType join_type, PlanPtr left, PlanPtr right, ExprPtr condition)
      : LogicalOp(kKind, {left, right}, SchemaOf(join_type, *left, *right)),
        join_type_(join_type),
        condition_(std::move(condition)) {}

  JoinType join_type() const { return join_type_; }
  const ExprPtr& condition() const { return condition_; }
  const PlanPtr& left() const { return child(0); }
  const PlanPtr& right() const { return child(1); }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<JoinOp>(join_type_, children[0], children[1],
                                    condition_);
  }

 private:
  static Schema SchemaOf(JoinType t, const LogicalOp& l, const LogicalOp& r) {
    std::vector<ColumnInfo> cols = l.schema().columns();
    if (t != JoinType::kSemi) {
      for (const ColumnInfo& c : r.schema().columns()) cols.push_back(c);
    }
    return Schema(std::move(cols));
  }

  JoinType join_type_;
  ExprPtr condition_;
};

/// One aggregate of a GroupBy: Athena-style (function, mask) pair (III.E).
/// `mask` may be null (TRUE). `arg` is null for COUNT(*). When `distinct`
/// is set the aggregate considers only distinct argument values; the
/// executor evaluates it natively (DESIGN.md §5).
struct AggregateItem {
  ColumnId id = kInvalidColumnId;
  std::string name;
  AggFunc func = AggFunc::kCountStar;
  ExprPtr arg;   // null for COUNT(*)
  ExprPtr mask;  // null means TRUE
  bool distinct = false;

  DataType result_type() const {
    return AggResultType(func, arg == nullptr ? DataType::kInt64 : arg->type());
  }
};

/// Hash aggregation. `group_by` lists child output columns (their ids are
/// preserved in the output schema, followed by the aggregate columns).
/// An empty `group_by` is a scalar aggregate producing exactly one row.
class AggregateOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kAggregate;

  AggregateOp(PlanPtr input, std::vector<ColumnId> group_by,
              std::vector<AggregateItem> aggregates)
      : LogicalOp(kKind, {input}, SchemaOf(*input, group_by, aggregates)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)) {}

  const std::vector<ColumnId>& group_by() const { return group_by_; }
  const std::vector<AggregateItem>& aggregates() const { return aggregates_; }
  bool IsScalar() const { return group_by_.empty(); }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<AggregateOp>(children[0], group_by_, aggregates_);
  }

 private:
  static Schema SchemaOf(const LogicalOp& input,
                         const std::vector<ColumnId>& group_by,
                         const std::vector<AggregateItem>& aggs) {
    std::vector<ColumnInfo> cols;
    for (ColumnId g : group_by) {
      int idx = input.schema().IndexOf(g);
      if (idx < 0) {
        // Unresolved group column: keep a placeholder so plan construction
        // stays total; the executor reports kPlanError when binding.
        cols.push_back({g, "$unresolved", DataType::kInt64});
        continue;
      }
      cols.push_back(input.schema().column(idx));
    }
    for (const AggregateItem& a : aggs) {
      cols.push_back({a.id, a.name, a.result_type()});
    }
    return Schema(std::move(cols));
  }

  std::vector<ColumnId> group_by_;
  std::vector<AggregateItem> aggregates_;
};

/// One windowed aggregate: function over the whole partition (no frames /
/// ordering — the paper's rewrites only need unbounded partition windows).
/// Masks appear when fusion tightened an aggregate before the rewrite.
struct WindowItem {
  ColumnId id = kInvalidColumnId;
  std::string name;
  AggFunc func = AggFunc::kCountStar;
  ExprPtr arg;   // null for COUNT(*)
  ExprPtr mask;  // null means TRUE

  DataType result_type() const {
    return AggResultType(func, arg == nullptr ? DataType::kInt64 : arg->type());
  }
};

/// Windowed aggregation partitioned by `partition_by` (child columns).
/// Output schema = child schema + one column per item.
class WindowOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kWindow;

  WindowOp(PlanPtr input, std::vector<ColumnId> partition_by,
           std::vector<WindowItem> items)
      : LogicalOp(kKind, {input}, SchemaOf(*input, items)),
        partition_by_(std::move(partition_by)),
        items_(std::move(items)) {}

  const std::vector<ColumnId>& partition_by() const { return partition_by_; }
  const std::vector<WindowItem>& items() const { return items_; }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<WindowOp>(children[0], partition_by_, items_);
  }

 private:
  static Schema SchemaOf(const LogicalOp& input,
                         const std::vector<WindowItem>& items) {
    std::vector<ColumnInfo> cols = input.schema().columns();
    for (const WindowItem& w : items) {
      cols.push_back({w.id, w.name, w.result_type()});
    }
    return Schema(std::move(cols));
  }

  std::vector<ColumnId> partition_by_;
  std::vector<WindowItem> items_;
};

/// N-ary bag union. `input_columns[c][o]` names the column of child `c` that
/// feeds output position `o` (the paper's positional mapping "UM").
class UnionAllOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kUnionAll;

  UnionAllOp(std::vector<PlanPtr> inputs, Schema output_schema,
             std::vector<std::vector<ColumnId>> input_columns)
      : LogicalOp(kKind, std::move(inputs), std::move(output_schema)),
        input_columns_(std::move(input_columns)) {
    FUSIONDB_CHECK(input_columns_.size() == num_children(),
                   "union input mapping arity");
  }

  const std::vector<std::vector<ColumnId>>& input_columns() const {
    return input_columns_;
  }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<UnionAllOp>(std::move(children), schema(),
                                        input_columns_);
  }

 private:
  std::vector<std::vector<ColumnId>> input_columns_;
};

/// Inline constant table (VALUES). Used by rule IV.D as the tag table.
class ValuesOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kValues;

  ValuesOp(Schema schema, std::vector<std::vector<Value>> rows)
      : LogicalOp(kKind, {}, std::move(schema)), rows_(std::move(rows)) {}

  const std::vector<std::vector<Value>>& rows() const { return rows_; }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    FUSIONDB_CHECK(children.empty(), "values has no children");
    return std::make_shared<ValuesOp>(schema(), rows_);
  }

 private:
  std::vector<std::vector<Value>> rows_;
};

struct SortKey {
  ColumnId column = kInvalidColumnId;
  bool ascending = true;
};

class SortOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kSort;

  SortOp(PlanPtr input, std::vector<SortKey> keys)
      : LogicalOp(kKind, {input}, input->schema()), keys_(std::move(keys)) {}

  const std::vector<SortKey>& keys() const { return keys_; }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<SortOp>(children[0], keys_);
  }

 private:
  std::vector<SortKey> keys_;
};

class LimitOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kLimit;

  LimitOp(PlanPtr input, int64_t limit)
      : LogicalOp(kKind, {input}, input->schema()), limit_(limit) {}

  int64_t limit() const { return limit_; }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<LimitOp>(children[0], limit_);
  }

 private:
  int64_t limit_;
};

/// Asserts its input has exactly one row (errors otherwise). Mentioned in
/// Section III.G as an operator with a default Fuse implementation.
class EnforceSingleRowOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kEnforceSingleRow;

  explicit EnforceSingleRowOp(PlanPtr input)
      : LogicalOp(kKind, {input}, input->schema()) {}

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<EnforceSingleRowOp>(children[0]);
  }
};

/// Correlated scalar-aggregate subquery, pre-decorrelation:
///   children = {outer input, inner subplan}
/// where the inner subplan is a *scalar* AggregateOp whose correlation
/// predicates were lifted into `correlation` — pairs (outer column, inner
/// column of the aggregate's input) equated by the original subquery.
/// Output schema: outer schema + the aggregate's single output column.
///
/// The executor does not run Apply; the decorrelation rule (always on, it
/// predates the paper's rules per [20]) turns it into Join + GroupBy.
class ApplyOp final : public LogicalOp {
 public:
  static constexpr OpKind kKind = OpKind::kApply;

  ApplyOp(PlanPtr outer, PlanPtr scalar_agg,
          std::vector<std::pair<ColumnId, ColumnId>> correlation)
      : LogicalOp(kKind, {outer, scalar_agg}, SchemaOf(*outer, *scalar_agg)),
        correlation_(std::move(correlation)) {}

  const std::vector<std::pair<ColumnId, ColumnId>>& correlation() const {
    return correlation_;
  }
  const PlanPtr& outer() const { return child(0); }
  const PlanPtr& subquery() const { return child(1); }

  PlanPtr CloneWithChildren(std::vector<PlanPtr> children) const override {
    return std::make_shared<ApplyOp>(children[0], children[1], correlation_);
  }

 private:
  static Schema SchemaOf(const LogicalOp& outer, const LogicalOp& sub) {
    std::vector<ColumnInfo> cols = outer.schema().columns();
    FUSIONDB_CHECK(sub.schema().num_columns() == 1,
                   "apply subquery must output a single scalar column");
    cols.push_back(sub.schema().column(0));
    return Schema(std::move(cols));
  }

  std::vector<std::pair<ColumnId, ColumnId>> correlation_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_PLAN_LOGICAL_PLAN_H_
