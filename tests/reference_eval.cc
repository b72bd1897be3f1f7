#include "reference_eval.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "catalog/encoding.h"
#include "expr/scalar_ops.h"
#include "expr/simplifier.h"
#include "plan/spool.h"

namespace fusiondb::reference {

namespace {

/// A materialized relation: the plan node's column types and its rows.
struct Relation {
  std::vector<DataType> types;
  std::vector<Row> rows;
};

std::vector<DataType> TypesOf(const Schema& schema) {
  std::vector<DataType> types;
  for (const ColumnInfo& c : schema.columns()) types.push_back(c.type);
  return types;
}

bool IsTrue(const Value& v) { return !v.is_null() && v.bool_value(); }

/// A strict weak order on non-NULL values of one type, with the engine's
/// key identity (KeyTable): ints compare exactly, -0.0 equals 0.0, a NaN
/// equals only a NaN (and sorts above every number), strings compare by
/// bytes. Value::Compare is not such an order: it compares ints as doubles
/// and lets a NaN equal every number.
int KeyCompare(const Value& a, const Value& b) {
  switch (PhysicalTypeOf(a.type())) {
    case PhysicalType::kInt:
      return (a.int_value() > b.int_value()) - (a.int_value() < b.int_value());
    case PhysicalType::kDouble: {
      double x = a.double_value();
      double y = b.double_value();
      bool x_nan = std::isnan(x);
      bool y_nan = std::isnan(y);
      if (x_nan || y_nan) return static_cast<int>(x_nan) - y_nan;
      return (x > y) - (x < y);
    }
    case PhysicalType::kString:
      return a.string_value().compare(b.string_value());
  }
  return 0;
}

/// GROUP BY and window-partition keys: lexicographic over KeyCompare with
/// NULL first, so rows group exactly as the engine's KeyTable keys them.
/// NULLs are equal to each other, so they form one group.
struct KeyRowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].is_null() || b[i].is_null()) {
        if (a[i].is_null() != b[i].is_null()) return a[i].is_null();
        continue;
      }
      int c = KeyCompare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

/// Equi-join keys: lexicographic over Value::Compare, whose equality is
/// SQL's `=`, so an int key matches an equal double key.
struct JoinKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

Result<int> PositionOf(const Schema& schema, ColumnId id, const char* what) {
  int idx = schema.IndexOf(id);
  if (idx < 0) {
    return Status::PlanError(std::string(what) + " column #" +
                             std::to_string(id) + " not in input");
  }
  return idx;
}

Row Project(const Row& row, const std::vector<int>& positions) {
  Row out;
  out.reserve(positions.size());
  for (int p : positions) out.push_back(row[p]);
  return out;
}

}  // namespace

Result<RowExpr> RowExpr::Resolve(const ExprPtr& expr, const Schema& schema) {
  RowExpr out;
  out.expr_ = expr;
  if (expr->kind() == ExprKind::kColumnRef) {
    FUSIONDB_ASSIGN_OR_RETURN(out.position_,
                              PositionOf(schema, expr->column_id(), "expression"));
    return out;
  }
  for (const ExprPtr& c : expr->children()) {
    FUSIONDB_ASSIGN_OR_RETURN(RowExpr child, Resolve(c, schema));
    out.children_.push_back(std::move(child));
  }
  return out;
}

Value RowExpr::Eval(const Row& row) const {
  switch (expr_->kind()) {
    case ExprKind::kColumnRef:
      return row[position_];
    case ExprKind::kLiteral:
      return expr_->literal();
    case ExprKind::kCompare:
      return EvalCompareOp(expr_->compare_op(), children_[0].Eval(row),
                           children_[1].Eval(row));
    case ExprKind::kArith:
      return EvalArithOp(expr_->arith_op(), children_[0].Eval(row),
                         children_[1].Eval(row), expr_->type());
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      bool is_and = expr_->kind() == ExprKind::kAnd;
      Value acc = Value::Bool(is_and);
      for (const RowExpr& c : children_) {
        Value v = c.Eval(row);
        acc = is_and ? EvalAndPair(acc, v) : EvalOrPair(acc, v);
      }
      return acc;
    }
    case ExprKind::kNot:
      return EvalNot(children_[0].Eval(row));
    case ExprKind::kIsNull:
      return Value::Bool(children_[0].Eval(row).is_null());
    case ExprKind::kCase: {
      // Children are WHEN, THEN pairs and a final ELSE.
      size_t n = children_.size();
      for (size_t i = 0; i + 1 < n; i += 2) {
        if (IsTrue(children_[i].Eval(row))) return children_[i + 1].Eval(row);
      }
      return children_[n - 1].Eval(row);
    }
    case ExprKind::kInList: {
      Value operand = children_[0].Eval(row);
      if (operand.is_null()) return Value::Null(DataType::kBool);
      bool saw_null = false;
      for (size_t i = 1; i < children_.size(); ++i) {
        Value item = children_[i].Eval(row);
        if (item.is_null()) {
          saw_null = true;
        } else if (operand.Compare(item) == 0) {
          return Value::Bool(true);
        }
      }
      return saw_null ? Value::Null(DataType::kBool) : Value::Bool(false);
    }
  }
  return Value::Null(expr_->type());
}

namespace {

/// One aggregate's accumulator: every non-NULL argument of the rows that
/// pass the mask, folded at the end.
class Accumulator {
 public:
  Accumulator(AggFunc func, bool distinct, DataType out_type)
      : func_(func), distinct_(distinct), out_type_(out_type) {}

  void Add(const Value* arg) {
    ++rows_;
    if (arg != nullptr && !arg->is_null()) values_.push_back(*arg);
  }

  Result<Value> Finish() {
    if (distinct_) {
      // Keep each value's first occurrence, in arrival order, as the
      // engine's DISTINCT does: MIN/MAX keep the first of values that
      // Value::Compare ties.
      std::vector<size_t> order(values_.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return KeyCompare(values_[a], values_[b]) < 0;
      });
      std::vector<bool> first(values_.size(), false);
      for (size_t i = 0; i < order.size(); ++i) {
        first[order[i]] =
            i == 0 || KeyCompare(values_[order[i - 1]], values_[order[i]]) != 0;
      }
      std::vector<Value> distinct;
      for (size_t i = 0; i < values_.size(); ++i) {
        if (first[i]) distinct.push_back(std::move(values_[i]));
      }
      values_ = std::move(distinct);
    }
    switch (func_) {
      case AggFunc::kCountStar:
        return Value::Int64(rows_);
      case AggFunc::kCount:
        return Value::Int64(static_cast<int64_t>(values_.size()));
      case AggFunc::kSum: {
        if (values_.empty()) return Value::Null(out_type_);
        if (out_type_ == DataType::kFloat64) return Value::Float64(DoubleSum());
        int64_t sum = 0;
        for (const Value& v : values_) {
          if (__builtin_add_overflow(sum, v.int_value(), &sum)) {
            return Status::ExecutionError(
                "reference: integer overflow in SUM");
          }
        }
        return Value::Int64(sum);
      }
      case AggFunc::kAvg:
        if (values_.empty()) return Value::Null(out_type_);
        return Value::Float64(DoubleSum() /
                              static_cast<double>(values_.size()));
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (values_.empty()) return Value::Null(out_type_);
        Value best = values_[0];
        for (const Value& v : values_) {
          int c = v.Compare(best);
          if (func_ == AggFunc::kMin ? c < 0 : c > 0) best = v;
        }
        return best;
      }
    }
    return Value::Null(out_type_);
  }

 private:
  double DoubleSum() const {
    double sum = 0.0;
    for (const Value& v : values_) sum += v.AsDouble();
    return sum;
  }

  AggFunc func_;
  bool distinct_;
  DataType out_type_;
  int64_t rows_ = 0;
  std::vector<Value> values_;
};

/// One aggregate (or window item) bound against its input: function,
/// optional argument and mask.
struct BoundItem {
  AggFunc func;
  bool distinct;
  DataType out_type;
  std::optional<RowExpr> arg;
  std::optional<RowExpr> mask;
};

Result<BoundItem> BindItem(AggFunc func, bool distinct, DataType out_type,
                           const ExprPtr& arg, const ExprPtr& mask,
                           const Schema& input) {
  BoundItem item{func, distinct, out_type, std::nullopt, std::nullopt};
  if (arg != nullptr) {
    FUSIONDB_ASSIGN_OR_RETURN(item.arg, RowExpr::Resolve(arg, input));
  } else if (func != AggFunc::kCountStar) {
    return Status::PlanError("aggregate missing argument");
  }
  if (mask != nullptr) {
    FUSIONDB_ASSIGN_OR_RETURN(item.mask, RowExpr::Resolve(mask, input));
  }
  return item;
}

/// Folds `item` over the rows `members` of `input`.
Result<Value> AggregateRows(const BoundItem& item,
                            const std::vector<Row>& input,
                            const std::vector<size_t>& members) {
  Accumulator acc(item.func, item.distinct, item.out_type);
  for (size_t r : members) {
    if (item.mask.has_value() && !IsTrue(item.mask->Eval(input[r]))) {
      continue;
    }
    if (item.arg.has_value()) {
      Value v = item.arg->Eval(input[r]);
      acc.Add(&v);
    } else {
      acc.Add(nullptr);
    }
  }
  return acc.Finish();
}

class Evaluator {
 public:
  Result<Relation> Eval(const LogicalOp& plan) {
    switch (plan.kind()) {
      case OpKind::kScan:
        return EvalScan(Cast<ScanOp>(plan));
      case OpKind::kFilter:
        return EvalFilter(Cast<FilterOp>(plan));
      case OpKind::kProject:
        return EvalProject(Cast<ProjectOp>(plan));
      case OpKind::kJoin:
        return EvalJoin(Cast<JoinOp>(plan));
      case OpKind::kAggregate:
        return EvalAggregate(Cast<AggregateOp>(plan));
      case OpKind::kWindow:
        return EvalWindow(Cast<WindowOp>(plan));
      case OpKind::kUnionAll:
        return EvalUnionAll(Cast<UnionAllOp>(plan));
      case OpKind::kValues:
        return EvalValues(Cast<ValuesOp>(plan));
      case OpKind::kSort:
        return EvalSort(Cast<SortOp>(plan));
      case OpKind::kLimit:
        return EvalLimit(Cast<LimitOp>(plan));
      case OpKind::kEnforceSingleRow:
        return EvalSingleRow(plan);
      case OpKind::kSpool:
        return Eval(*plan.child(0));
      case OpKind::kApply:
        break;
    }
    return Status::PlanError(std::string("reference: cannot evaluate ") +
                             OpKindName(plan.kind()));
  }

 private:
  Result<Relation> EvalScan(const ScanOp& scan) {
    Relation out{TypesOf(scan.schema()), {}};
    for (const Partition& p : scan.table()->partitions()) {
      std::vector<Column> cols;
      for (int c : scan.table_columns()) {
        FUSIONDB_ASSIGN_OR_RETURN(Column col, DecodeColumn(p.columns[c]));
        cols.push_back(std::move(col));
      }
      for (size_t r = 0; r < p.num_rows(); ++r) {
        Row row;
        for (const Column& col : cols) row.push_back(col.GetValue(r));
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  Result<Relation> EvalFilter(const FilterOp& op) {
    if (op.predicate() == nullptr) return Status::PlanError("null predicate");
    FUSIONDB_ASSIGN_OR_RETURN(Relation in, Eval(*op.child(0)));
    FUSIONDB_ASSIGN_OR_RETURN(
        RowExpr pred, RowExpr::Resolve(op.predicate(), op.child(0)->schema()));
    Relation out{in.types, {}};
    for (Row& row : in.rows) {
      if (IsTrue(pred.Eval(row))) out.rows.push_back(std::move(row));
    }
    return out;
  }

  Result<Relation> EvalProject(const ProjectOp& op) {
    FUSIONDB_ASSIGN_OR_RETURN(Relation in, Eval(*op.child(0)));
    std::vector<RowExpr> exprs;
    for (const NamedExpr& e : op.exprs()) {
      FUSIONDB_ASSIGN_OR_RETURN(RowExpr x,
                                RowExpr::Resolve(e.expr, op.child(0)->schema()));
      exprs.push_back(std::move(x));
    }
    Relation out{TypesOf(op.schema()), {}};
    for (const Row& in_row : in.rows) {
      Row row;
      for (const RowExpr& e : exprs) row.push_back(e.Eval(in_row));
      out.rows.push_back(std::move(row));
    }
    return out;
  }

  Result<Relation> EvalJoin(const JoinOp& op) {
    if (op.condition() == nullptr) return Status::PlanError("null condition");
    FUSIONDB_ASSIGN_OR_RETURN(Relation left, Eval(*op.left()));
    FUSIONDB_ASSIGN_OR_RETURN(Relation right, Eval(*op.right()));
    const Schema& ls = op.left()->schema();
    const Schema& rs = op.right()->schema();
    // Column = column conjuncts across the two sides match through a map;
    // everything else is a residual evaluated per candidate pair.
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(op.condition(), &conjuncts);
    std::vector<int> left_keys;
    std::vector<int> right_keys;
    std::vector<ExprPtr> residual_parts;
    for (const ExprPtr& c : conjuncts) {
      if (c->kind() == ExprKind::kCompare && c->compare_op() == CompareOp::kEq &&
          c->child(0)->kind() == ExprKind::kColumnRef &&
          c->child(1)->kind() == ExprKind::kColumnRef) {
        ColumnId a = c->child(0)->column_id();
        ColumnId b = c->child(1)->column_id();
        if (ls.Contains(a) && rs.Contains(b)) {
          left_keys.push_back(ls.IndexOf(a));
          right_keys.push_back(rs.IndexOf(b));
          continue;
        }
        if (ls.Contains(b) && rs.Contains(a)) {
          left_keys.push_back(ls.IndexOf(b));
          right_keys.push_back(rs.IndexOf(a));
          continue;
        }
      }
      if (!c->IsLiteralBool(true)) residual_parts.push_back(c);
    }
    std::vector<ColumnInfo> combined_cols = ls.columns();
    for (const ColumnInfo& c : rs.columns()) combined_cols.push_back(c);
    Schema combined(combined_cols);
    std::optional<RowExpr> residual;
    if (!residual_parts.empty()) {
      FUSIONDB_ASSIGN_OR_RETURN(
          residual, RowExpr::Resolve(CombineConjuncts(residual_parts), combined));
    }

    std::map<Row, std::vector<size_t>, JoinKeyLess> index;
    std::vector<size_t> all_right(right.rows.size());
    std::iota(all_right.begin(), all_right.end(), 0);
    if (!left_keys.empty()) {
      for (size_t r = 0; r < right.rows.size(); ++r) {
        Row key = Project(right.rows[r], right_keys);
        if (HasNull(key)) continue;  // NULL keys never match
        index[std::move(key)].push_back(r);
      }
    }
    const std::vector<size_t> none;

    Relation out{TypesOf(op.schema()), {}};
    for (const Row& lrow : left.rows) {
      const std::vector<size_t>* candidates = &all_right;
      if (!left_keys.empty()) {
        Row key = Project(lrow, left_keys);
        auto it = HasNull(key) ? index.end() : index.find(key);
        candidates = it == index.end() ? &none : &it->second;
      }
      std::vector<Row> matches;
      for (size_t r : *candidates) {
        Row pair = lrow;
        pair.insert(pair.end(), right.rows[r].begin(), right.rows[r].end());
        if (residual.has_value() && !IsTrue(residual->Eval(pair))) continue;
        matches.push_back(std::move(pair));
      }
      switch (op.join_type()) {
        case JoinType::kInner:
        case JoinType::kCross:
          for (Row& m : matches) out.rows.push_back(std::move(m));
          break;
        case JoinType::kLeft:
          if (matches.empty()) {
            Row padded = lrow;
            for (DataType t : right.types) padded.push_back(Value::Null(t));
            out.rows.push_back(std::move(padded));
          }
          for (Row& m : matches) out.rows.push_back(std::move(m));
          break;
        case JoinType::kSemi:
          if (!matches.empty()) out.rows.push_back(lrow);
          break;
      }
    }
    return out;
  }

  static bool HasNull(const Row& row) {
    for (const Value& v : row) {
      if (v.is_null()) return true;
    }
    return false;
  }

  /// Sort-based grouping: rows ordered by group key, each run of equal keys
  /// one group.
  Result<Relation> EvalAggregate(const AggregateOp& op) {
    FUSIONDB_ASSIGN_OR_RETURN(Relation in, Eval(*op.child(0)));
    const Schema& input = op.child(0)->schema();
    std::vector<int> key_positions;
    for (ColumnId g : op.group_by()) {
      FUSIONDB_ASSIGN_OR_RETURN(int idx, PositionOf(input, g, "group-by"));
      key_positions.push_back(idx);
    }
    std::vector<BoundItem> items;
    for (const AggregateItem& a : op.aggregates()) {
      FUSIONDB_ASSIGN_OR_RETURN(
          BoundItem item, BindItem(a.func, a.distinct, a.result_type(), a.arg,
                                   a.mask, input));
      items.push_back(std::move(item));
    }
    std::vector<size_t> order(in.rows.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<Row> keys;
    for (const Row& row : in.rows) keys.push_back(Project(row, key_positions));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return KeyRowLess()(keys[a], keys[b]);
    });
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < order.size(); ++i) {
      if (i == 0 || KeyRowLess()(keys[order[i - 1]], keys[order[i]])) {
        groups.emplace_back();
      }
      groups.back().push_back(order[i]);
    }
    // A scalar aggregate yields one row even over empty input.
    if (op.IsScalar() && groups.empty()) groups.emplace_back();

    Relation out{TypesOf(op.schema()), {}};
    for (const std::vector<size_t>& members : groups) {
      Row row = op.IsScalar() ? Row() : keys[members[0]];
      for (const BoundItem& item : items) {
        FUSIONDB_ASSIGN_OR_RETURN(Value v,
                                  AggregateRows(item, in.rows, members));
        row.push_back(std::move(v));
      }
      out.rows.push_back(std::move(row));
    }
    return out;
  }

  Result<Relation> EvalWindow(const WindowOp& op) {
    FUSIONDB_ASSIGN_OR_RETURN(Relation in, Eval(*op.child(0)));
    const Schema& input = op.child(0)->schema();
    std::vector<int> key_positions;
    for (ColumnId p : op.partition_by()) {
      FUSIONDB_ASSIGN_OR_RETURN(int idx,
                                PositionOf(input, p, "window partition"));
      key_positions.push_back(idx);
    }
    std::vector<BoundItem> items;
    for (const WindowItem& w : op.items()) {
      FUSIONDB_ASSIGN_OR_RETURN(
          BoundItem item, BindItem(w.func, /*distinct=*/false, w.result_type(),
                                   w.arg, w.mask, input));
      items.push_back(std::move(item));
    }
    std::map<Row, std::vector<size_t>, KeyRowLess> partitions;
    for (size_t r = 0; r < in.rows.size(); ++r) {
      partitions[Project(in.rows[r], key_positions)].push_back(r);
    }
    std::vector<Row> results(in.rows.size());
    for (const auto& [key, members] : partitions) {
      for (const BoundItem& item : items) {
        FUSIONDB_ASSIGN_OR_RETURN(Value v,
                                  AggregateRows(item, in.rows, members));
        for (size_t r : members) results[r].push_back(v);
      }
    }
    Relation out{TypesOf(op.schema()), std::move(in.rows)};
    for (size_t r = 0; r < out.rows.size(); ++r) {
      out.rows[r].insert(out.rows[r].end(), results[r].begin(),
                         results[r].end());
    }
    return out;
  }

  Result<Relation> EvalUnionAll(const UnionAllOp& op) {
    Relation out{TypesOf(op.schema()), {}};
    for (size_t c = 0; c < op.num_children(); ++c) {
      FUSIONDB_ASSIGN_OR_RETURN(Relation in, Eval(*op.child(c)));
      std::vector<int> positions;
      for (ColumnId id : op.input_columns()[c]) {
        FUSIONDB_ASSIGN_OR_RETURN(
            int idx, PositionOf(op.child(c)->schema(), id, "union input"));
        positions.push_back(idx);
      }
      for (const Row& row : in.rows) out.rows.push_back(Project(row, positions));
    }
    return out;
  }

  Result<Relation> EvalValues(const ValuesOp& op) {
    Relation out{TypesOf(op.schema()), op.rows()};
    for (const Row& row : out.rows) {
      if (row.size() != out.types.size()) {
        return Status::PlanError("VALUES row arity mismatch");
      }
    }
    return out;
  }

  Result<Relation> EvalSort(const SortOp& op) {
    FUSIONDB_ASSIGN_OR_RETURN(Relation in, Eval(*op.child(0)));
    std::vector<std::pair<int, bool>> keys;
    for (const SortKey& k : op.keys()) {
      FUSIONDB_ASSIGN_OR_RETURN(
          int idx, PositionOf(op.child(0)->schema(), k.column, "sort key"));
      keys.push_back({idx, k.ascending});
    }
    std::stable_sort(in.rows.begin(), in.rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (const auto& [idx, asc] : keys) {
                         int c = a[idx].Compare(b[idx]);
                         if (c != 0) return asc ? c < 0 : c > 0;
                       }
                       return false;
                     });
    return in;
  }

  Result<Relation> EvalLimit(const LimitOp& op) {
    if (op.limit() < 0) return Status::PlanError("negative limit");
    FUSIONDB_ASSIGN_OR_RETURN(Relation in, Eval(*op.child(0)));
    if (in.rows.size() > static_cast<size_t>(op.limit())) {
      in.rows.resize(static_cast<size_t>(op.limit()));
    }
    return in;
  }

  Result<Relation> EvalSingleRow(const LogicalOp& op) {
    FUSIONDB_ASSIGN_OR_RETURN(Relation in, Eval(*op.child(0)));
    if (in.rows.size() != 1) {
      return Status::ExecutionError("scalar subquery returned " +
                                    std::to_string(in.rows.size()) + " rows");
    }
    return in;
  }
};

// --- comparison --------------------------------------------------------------

bool IsDouble(const Value& v) {
  return PhysicalTypeOf(v.type()) == PhysicalType::kDouble;
}

bool ValuesMatch(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (IsDouble(a) || IsDouble(b)) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    if (x == y) return true;
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return std::fabs(x - y) <=
           kDoubleTolerance * std::max(std::fabs(x), std::fabs(y));
  }
  if (PhysicalTypeOf(a.type()) == PhysicalType::kInt &&
      PhysicalTypeOf(b.type()) == PhysicalType::kInt) {
    return a.int_value() == b.int_value();
  }
  return a.Compare(b) == 0;
}

bool RowsMatch(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesMatch(a[i], b[i])) return false;
  }
  return true;
}

/// Multiset order: exact (non-double) columns first, doubles last, so rows
/// whose doubles differ only within tolerance still line up by their keys.
/// Two non-NULL doubles compare by KeyCompare, so a NaN sorts above every
/// number instead of tying with it.
bool CanonicalLess(const Row& a, const Row& b) {
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (IsDouble(a[i]) != (pass == 1)) continue;
      bool doubles = IsDouble(b[i]) && !a[i].is_null() && !b[i].is_null();
      int c = doubles ? KeyCompare(a[i], b[i]) : a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
  }
  return false;
}

std::string Render(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += "|";
    out += row[i].ToString();
  }
  return out;
}

/// Empty when `engine` and `reference` hold the same rows in any order.
std::string CompareMultisets(std::vector<Row> engine,
                             std::vector<Row> reference) {
  std::sort(engine.begin(), engine.end(), CanonicalLess);
  std::sort(reference.begin(), reference.end(), CanonicalLess);
  std::ostringstream out;
  size_t n = std::min(engine.size(), reference.size());
  for (size_t i = 0; i < n; ++i) {
    if (!RowsMatch(engine[i], reference[i])) {
      out << "sorted row " << i << " differs: engine [" << Render(engine[i])
          << "] vs reference [" << Render(reference[i]) << "]";
      break;
    }
  }
  if (out.str().empty() && engine.size() == reference.size()) return "";
  out << " (" << engine.size() << " engine rows vs " << reference.size()
      << " reference rows)";
  return out.str();
}

/// Empty when every row of `engine` matches a distinct row of `pool`.
std::string CompareSubMultiset(const std::vector<Row>& engine,
                               const std::vector<Row>& pool) {
  std::vector<bool> used(pool.size(), false);
  for (const Row& row : engine) {
    bool found = false;
    for (size_t i = 0; i < pool.size() && !found; ++i) {
      if (!used[i] && RowsMatch(row, pool[i])) {
        used[i] = true;
        found = true;
      }
    }
    if (!found) {
      return "engine row [" + Render(row) +
             "] at the LIMIT boundary is not among the reference's tied rows";
    }
  }
  return "";
}

}  // namespace

Result<std::vector<Row>> Evaluate(const PlanPtr& plan) {
  FUSIONDB_ASSIGN_OR_RETURN(Relation rel, Evaluator().Eval(*plan));
  return std::move(rel.rows);
}

Result<Expected> EvaluateExpected(const PlanPtr& plan) {
  Expected expected;
  PlanPtr body = plan;
  if (body->kind() == OpKind::kLimit) {
    expected.limit = Cast<LimitOp>(*body).limit();
    if (expected.limit < 0) return Status::PlanError("negative limit");
    body = body->child(0);
  }
  if (body->kind() == OpKind::kSort) {
    for (const SortKey& k : Cast<SortOp>(*body).keys()) {
      FUSIONDB_ASSIGN_OR_RETURN(
          int idx, PositionOf(body->schema(), k.column, "sort key"));
      expected.order.push_back({idx, k.ascending});
    }
  }
  FUSIONDB_ASSIGN_OR_RETURN(expected.rows, Evaluate(body));
  return expected;
}

std::string Compare(const Expected& expected,
                    const std::vector<Row>& engine_rows) {
  auto key_cmp = [&](const Row& a, const Row& b) {
    for (const auto& [idx, asc] : expected.order) {
      int c = a[idx].Compare(b[idx]);
      if (c != 0) return asc ? c : -c;
    }
    return 0;
  };
  for (size_t i = 1; i < engine_rows.size(); ++i) {
    if (key_cmp(engine_rows[i - 1], engine_rows[i]) > 0) {
      return "engine rows " + std::to_string(i - 1) + " and " +
             std::to_string(i) + " are out of ORDER BY order: [" +
             Render(engine_rows[i - 1]) + "] before [" +
             Render(engine_rows[i]) + "]";
    }
  }
  const std::vector<Row>& ref = expected.rows;
  const size_t limit = static_cast<size_t>(expected.limit);
  if (expected.limit < 0 || ref.size() <= limit) {
    return CompareMultisets(engine_rows, ref);
  }
  if (engine_rows.size() != limit) {
    return "LIMIT " + std::to_string(limit) + " but the engine returned " +
           std::to_string(engine_rows.size()) + " rows";
  }
  if (limit == 0) return "";
  // The reference rows are in key order, so the rows tied with the last
  // one kept form one run [tie_begin, tie_end). Rows before the run must
  // match exactly; the engine's remaining rows may be any of the run.
  size_t tie_begin = limit - 1;
  while (tie_begin > 0 && key_cmp(ref[tie_begin - 1], ref[limit - 1]) == 0) {
    --tie_begin;
  }
  size_t tie_end = limit;
  while (tie_end < ref.size() && key_cmp(ref[tie_end], ref[limit - 1]) == 0) {
    ++tie_end;
  }
  std::string head = CompareMultisets(
      std::vector<Row>(engine_rows.begin(), engine_rows.begin() + tie_begin),
      std::vector<Row>(ref.begin(), ref.begin() + tie_begin));
  if (!head.empty()) return "before the LIMIT boundary: " + head;
  return CompareSubMultiset(
      std::vector<Row>(engine_rows.begin() + tie_begin, engine_rows.end()),
      std::vector<Row>(ref.begin() + tie_begin, ref.begin() + tie_end));
}

}  // namespace fusiondb::reference
