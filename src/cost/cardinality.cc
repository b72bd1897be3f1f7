#include "cost/cardinality.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "types/data_type.h"

namespace fusiondb {

namespace {

// Textbook default selectivities.
constexpr double kEqSelectivity = 0.1;
constexpr double kRangeSelectivity = 0.3;
constexpr double kNeSelectivity = 0.9;
constexpr double kDefaultSelectivity = 0.25;
constexpr double kSemiJoinSelectivity = 0.5;

double PredicateSelectivity(const ExprPtr& pred) {
  if (pred == nullptr || pred->IsLiteralBool(true)) return 1.0;
  switch (pred->kind()) {
    case ExprKind::kCompare:
      switch (pred->compare_op()) {
        case CompareOp::kEq:
          return kEqSelectivity;
        case CompareOp::kNe:
          return kNeSelectivity;
        case CompareOp::kLt:
        case CompareOp::kLe:
        case CompareOp::kGt:
        case CompareOp::kGe:
          return kRangeSelectivity;
      }
      return kDefaultSelectivity;
    case ExprKind::kAnd: {
      double s = 1.0;
      for (const ExprPtr& c : pred->children()) s *= PredicateSelectivity(c);
      return s;
    }
    case ExprKind::kOr: {
      double s = 0.0;
      for (const ExprPtr& c : pred->children()) s += PredicateSelectivity(c);
      return std::min(1.0, s);
    }
    case ExprKind::kNot:
      return 1.0 - PredicateSelectivity(pred->child(0));
    case ExprKind::kInList:
      // operand IN (v1..vN): N equality shots.
      return std::min(
          1.0, kEqSelectivity *
                   static_cast<double>(
                       pred->children().empty() ? 0 : pred->children().size() - 1));
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
    case ExprKind::kArith:
    case ExprKind::kIsNull:
    case ExprKind::kCase:
      return kDefaultSelectivity;
  }
  return kDefaultSelectivity;
}

/// Maps each output ColumnId that passes through unchanged from a base-table
/// scan to its (table, table column index). Used to recognize primary-key
/// joins: Filter/Sort/Limit/etc. preserve ids, so a join condition over a
/// filtered scan still resolves to the underlying table column.
void CollectBaseColumns(
    const PlanPtr& plan,
    std::unordered_map<ColumnId, std::pair<const Table*, int>>* out) {
  switch (plan->kind()) {
    case OpKind::kScan: {
      const auto* scan = CastPtr<ScanOp>(plan);
      const Schema& s = scan->schema();
      for (size_t i = 0; i < s.num_columns(); ++i) {
        (*out)[s.column(i).id] = {scan->table().get(),
                                  scan->table_columns()[i]};
      }
      return;
    }
    // Pass-through operators: every child column id stays visible (or at
    // least the surviving ids are unchanged), so just recurse.
    case OpKind::kFilter:
    case OpKind::kSort:
    case OpKind::kLimit:
    case OpKind::kEnforceSingleRow:
    case OpKind::kWindow:
    case OpKind::kAggregate:  // group-by columns keep their child ids
    case OpKind::kSpool:
      for (const PlanPtr& c : plan->children()) CollectBaseColumns(c, out);
      return;
    case OpKind::kProject: {
      // Only identity columns (bare column refs) pass through.
      std::unordered_map<ColumnId, std::pair<const Table*, int>> below;
      for (const PlanPtr& c : plan->children()) CollectBaseColumns(c, &below);
      for (const NamedExpr& e : CastPtr<ProjectOp>(plan)->exprs()) {
        if (e.expr->kind() == ExprKind::kColumnRef) {
          auto it = below.find(e.expr->column_id());
          if (it != below.end()) (*out)[e.id] = it->second;
        }
      }
      return;
    }
    case OpKind::kJoin:
    case OpKind::kUnionAll:
    case OpKind::kValues:
    case OpKind::kApply:
      // Joins would need per-side handling (done by the caller); union
      // renames; values/apply introduce fresh columns. Stop here.
      return;
  }
}

/// Column ids equated by `condition` (an equality or conjunction of
/// equalities between column refs); empty pairs when the condition has any
/// other shape.
void CollectEquiPairs(const ExprPtr& condition,
                      std::vector<std::pair<ColumnId, ColumnId>>* pairs) {
  if (condition == nullptr) return;
  if (condition->kind() == ExprKind::kAnd) {
    for (const ExprPtr& c : condition->children()) CollectEquiPairs(c, pairs);
    return;
  }
  if (condition->kind() == ExprKind::kCompare &&
      condition->compare_op() == CompareOp::kEq &&
      condition->child(0)->kind() == ExprKind::kColumnRef &&
      condition->child(1)->kind() == ExprKind::kColumnRef) {
    pairs->push_back(
        {condition->child(0)->column_id(), condition->child(1)->column_id()});
  }
}

/// True when the join condition's equated columns on `side` cover the
/// primary key of a single base table scanned on that side.
bool EquatesPrimaryKey(
    const std::vector<std::pair<ColumnId, ColumnId>>& pairs,
    const std::unordered_map<ColumnId, std::pair<const Table*, int>>& side) {
  const Table* table = nullptr;
  std::unordered_set<int> covered;
  for (const auto& [a, b] : pairs) {
    for (ColumnId id : {a, b}) {
      auto it = side.find(id);
      if (it == side.end()) continue;
      if (table == nullptr) table = it->second.first;
      if (table == it->second.first) covered.insert(it->second.second);
    }
  }
  if (table == nullptr || table->primary_key().empty()) return false;
  for (int k : table->primary_key()) {
    if (covered.find(k) == covered.end()) return false;
  }
  return true;
}

double WidthOrDefault(DataType t) {
  int64_t w = FixedWidthOf(t);
  // Variable-width (strings) charge a flat estimate.
  return w == 0 ? 16.0 : static_cast<double>(w);
}

}  // namespace

double CardinalityEstimator::Estimate(const PlanPtr& plan) const {
  if (plan == nullptr) return 0.0;
  switch (plan->kind()) {
    case OpKind::kScan:
      return static_cast<double>(CastPtr<ScanOp>(plan)->table()->num_rows());
    case OpKind::kFilter:
      return Estimate(plan->child(0)) *
             PredicateSelectivity(CastPtr<FilterOp>(plan)->predicate());
    case OpKind::kProject:
    case OpKind::kWindow:
    case OpKind::kSort:
    case OpKind::kSpool:
      return Estimate(plan->child(0));
    case OpKind::kJoin: {
      const auto* join = CastPtr<JoinOp>(plan);
      double l = Estimate(join->left());
      double r = Estimate(join->right());
      switch (join->join_type()) {
        case JoinType::kCross:
          return l * r;
        case JoinType::kSemi:
          return l * kSemiJoinSelectivity;
        case JoinType::kInner:
        case JoinType::kLeft: {
          std::vector<std::pair<ColumnId, ColumnId>> pairs;
          CollectEquiPairs(join->condition(), &pairs);
          if (!pairs.empty()) {
            std::unordered_map<ColumnId, std::pair<const Table*, int>> lcols,
                rcols;
            CollectBaseColumns(join->left(), &lcols);
            CollectBaseColumns(join->right(), &rcols);
            double rows;
            if (EquatesPrimaryKey(pairs, rcols)) {
              rows = l;  // each left row matches at most one right row
            } else if (EquatesPrimaryKey(pairs, lcols)) {
              rows = r;
            } else {
              // Equi-join without key info: FK-shaped guess (the bigger
              // side survives).
              rows = std::max(l, r);
            }
            if (join->join_type() == JoinType::kLeft) {
              rows = std::max(rows, l);
            }
            return rows;
          }
          double rows = l * r * kDefaultSelectivity;
          if (join->join_type() == JoinType::kLeft) {
            rows = std::max(rows, l);
          }
          return rows;
        }
      }
      return l * r;
    }
    case OpKind::kAggregate: {
      const auto* agg = CastPtr<AggregateOp>(plan);
      if (agg->IsScalar()) return 1.0;
      double in = Estimate(plan->child(0));
      // When the grouping columns cover a derived candidate key of the
      // input, every input row is its own group: the distinct count is the
      // input cardinality, no heuristic needed.
      if (props_.Derive(plan->child(0)).HasKey(agg->group_by())) {
        return std::max(1.0, in);
      }
      // Grouped output: sqrt heuristic, at least 1 and at most the input.
      return std::clamp(std::sqrt(std::max(0.0, in)), 1.0, std::max(1.0, in));
    }
    case OpKind::kUnionAll: {
      double rows = 0.0;
      for (const PlanPtr& c : plan->children()) rows += Estimate(c);
      return rows;
    }
    case OpKind::kValues:
      return static_cast<double>(CastPtr<ValuesOp>(plan)->rows().size());
    case OpKind::kLimit:
      return std::min(Estimate(plan->child(0)),
                      static_cast<double>(CastPtr<LimitOp>(plan)->limit()));
    case OpKind::kEnforceSingleRow:
      return 1.0;
    case OpKind::kApply:
      // Decorrelation turns this into join+aggregate; pre-rewrite, one
      // scalar per outer row.
      return Estimate(plan->child(0));
  }
  return 0.0;
}

double CardinalityEstimator::RowBytes(const PlanPtr& plan) {
  if (plan == nullptr) return 0.0;
  if (plan->kind() == OpKind::kScan) {
    const auto* scan = CastPtr<ScanOp>(plan);
    int64_t rows = scan->table()->num_rows();
    if (rows > 0) {
      return static_cast<double>(scan->table()->BytesOf(scan->table_columns())) /
             static_cast<double>(rows);
    }
  }
  double bytes = 0.0;
  for (const ColumnInfo& c : plan->schema().columns()) {
    bytes += WidthOrDefault(c.type);
  }
  return bytes;
}

}  // namespace fusiondb
