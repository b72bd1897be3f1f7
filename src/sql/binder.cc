#include "sql/binder.h"

#include <cctype>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "expr/expr_builder.h"

namespace fusiondb::sql {

namespace {

/// One name visible in a FROM scope: `qualifier.name` -> plan column.
struct ScopeColumn {
  std::string qualifier;  // table alias
  std::string name;
  ColumnId id = kInvalidColumnId;
  DataType type = DataType::kInt64;
};

struct Scope {
  std::vector<ScopeColumn> columns;
};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// One aggregate call: the function, DISTINCT, and the bound argument (null
/// for COUNT(*)). Calls with equivalent arguments are the same call.
struct CallKey {
  CallKey(const std::string& func, bool distinct, ExprPtr arg)
      : func(Lower(func)), distinct(distinct), arg(std::move(arg)) {}

  std::string func;
  bool distinct;
  ExprPtr arg;

  bool operator==(const CallKey& o) const {
    return func == o.func && distinct == o.distinct &&
           ExprEquivalent(arg, o.arg);
  }
};

struct CallKeyHash {
  size_t operator()(const CallKey& k) const {
    return std::hash<std::string>()(k.func) ^ (k.distinct ? 1 : 0) ^
           ExprHash()(k.arg);
  }
};

/// Post-aggregation binding context: plain column references must be group
/// keys; aggregate calls map (by structural identity) to the output columns
/// of the AggregateOp underneath.
struct AggContext {
  std::set<ColumnId> group_ids;
  std::unordered_map<CallKey, ColumnInfo, CallKeyHash> calls;
};

class Binder {
 public:
  Binder(const Catalog& catalog, PlanContext* ctx,
         std::vector<SqlDiagnostic>* diag)
      : catalog_(catalog), ctx_(ctx), diag_(diag) {}

  PlanPtr BindStatement(const Statement& stmt) {
    std::vector<PlanPtr> branches;
    for (const auto& core : stmt.selects) {
      PlanPtr branch = BindSelectCore(*core);
      if (branch == nullptr) return nullptr;
      branches.push_back(std::move(branch));
    }
    PlanPtr plan = branches.size() == 1
                       ? branches[0]
                       : BindUnionAll(stmt, std::move(branches));
    if (plan == nullptr) return nullptr;

    if (!stmt.order_by.empty()) {
      std::vector<SortKey> keys;
      for (const OrderItem& item : stmt.order_by) {
        ColumnId id = ResolveOrderTarget(*item.expr, plan->schema());
        if (id == kInvalidColumnId) return nullptr;
        keys.push_back({id, item.ascending});
      }
      plan = std::make_shared<SortOp>(plan, std::move(keys));
    }
    if (stmt.limit >= 0) {
      plan = std::make_shared<LimitOp>(plan, stmt.limit);
    }
    return plan;
  }

 private:
  // --- diagnostics ---------------------------------------------------------

  std::nullptr_t Error(StatusCode code, size_t offset,
                       const std::string& message) {
    if (!failed_) {
      failed_ = true;
      diag_->push_back({code, message, offset});
    }
    return nullptr;
  }
  std::nullptr_t PlanError(size_t offset, const std::string& message) {
    return Error(StatusCode::kPlanError, offset, message);
  }
  std::nullptr_t TypeError(size_t offset, const std::string& message) {
    return Error(StatusCode::kTypeError, offset, message);
  }

  // --- FROM / joins --------------------------------------------------------

  PlanPtr BindTableRef(const TableRef& ref, Scope* scope) {
    std::string alias = ref.alias.empty() ? ref.table : ref.alias;
    for (const ScopeColumn& c : scope->columns) {
      if (c.qualifier == alias) {
        return PlanError(ref.offset, "[sql-duplicate-alias] duplicate table "
                                     "alias '" + alias + "' in FROM");
      }
    }
    PlanPtr plan;
    if (ref.subquery != nullptr) {
      plan = BindStatement(*ref.subquery);
      if (plan == nullptr) return nullptr;
      for (const ColumnInfo& c : plan->schema().columns()) {
        scope->columns.push_back({alias, c.name, c.id, c.type});
      }
      // A pure-rename root projection (every item a pass-through column
      // ref) carries nothing the plan needs: the outer query references
      // columns by id and the scope rows above already hold the output
      // names. It does, however, hide the subquery's shape from the fusion
      // rules' pattern matchers (a Project between a Join and an Aggregate
      // defeats GroupByJoinToWindow), so unwrap it.
      if (plan->kind() == OpKind::kProject) {
        const auto& project = static_cast<const ProjectOp&>(*plan);
        bool pure_rename = true;
        for (const NamedExpr& ne : project.exprs()) {
          if (ne.expr->kind() != ExprKind::kColumnRef ||
              ne.expr->column_id() != ne.id) {
            pure_rename = false;
            break;
          }
        }
        if (pure_rename) plan = plan->child(0);
      }
      return plan;
    }
    auto table = catalog_.GetTable(ref.table);
    if (!table.ok()) {
      return PlanError(ref.offset,
                       "[sql-unknown-table] no such table: " + ref.table);
    }
    // Scan every table column; the optimizer's column pruning trims unused
    // ones, so binding never has to predict which columns a query touches.
    std::vector<std::string> names;
    for (const TableColumn& c : (*table)->columns()) names.push_back(c.name);
    plan = ScanOp::Make(ctx_, *table, names);
    for (const ColumnInfo& c : plan->schema().columns()) {
      scope->columns.push_back({alias, c.name, c.id, c.type});
    }
    return plan;
  }

  // --- name resolution -----------------------------------------------------

  const ScopeColumn* ResolveColumn(const Scope& scope,
                                   const std::string& qualifier,
                                   const std::string& name, size_t offset) {
    const ScopeColumn* found = nullptr;
    bool saw_qualifier = false;
    for (const ScopeColumn& c : scope.columns) {
      if (!qualifier.empty()) {
        if (c.qualifier != qualifier) continue;
        saw_qualifier = true;
      }
      if (c.name != name) continue;
      if (found != nullptr) {
        PlanError(offset, "[sql-ambiguous-column] column '" + name +
                              "' is ambiguous; qualify it with a table alias");
        return nullptr;
      }
      found = &c;
    }
    if (found == nullptr) {
      if (!qualifier.empty() && !saw_qualifier) {
        PlanError(offset, "[sql-unknown-table] no table named '" + qualifier +
                              "' in FROM");
      } else {
        PlanError(offset, "[sql-unknown-column] no column named '" +
                              (qualifier.empty() ? name : qualifier + "." + name) +
                              "'");
      }
      return nullptr;
    }
    return found;
  }

  // --- expressions ---------------------------------------------------------

  /// Binds a scalar expression. `agg` is null where aggregates are illegal
  /// (WHERE, ON, GROUP BY); when set, plain columns must be group keys and
  /// kFuncCall resolves to the matching AggregateOp output. `null_hint`
  /// types bare NULL literals from their comparison context.
  ExprPtr BindExpr(const AstExpr& e, const Scope& scope, const AggContext* agg,
                   DataType null_hint = DataType::kInt64) {
    switch (e.kind) {
      case AstExprKind::kIntLit:
        return eb::Int(e.int_value);
      case AstExprKind::kFloatLit:
        return eb::Dbl(e.float_value);
      case AstExprKind::kStringLit:
        return eb::Str(e.string_value);
      case AstExprKind::kBoolLit:
        return eb::Lit(Value::Bool(e.int_value != 0));
      case AstExprKind::kNullLit:
        return eb::NullOf(null_hint);
      case AstExprKind::kColumn: {
        const ScopeColumn* c =
            ResolveColumn(scope, e.qualifier, e.name, e.offset);
        if (c == nullptr) return nullptr;
        if (agg != nullptr && agg->group_ids.count(c->id) == 0) {
          return PlanError(e.offset,
                           "[sql-not-grouped] column '" + e.name +
                               "' must appear in GROUP BY or inside an "
                               "aggregate function");
        }
        return eb::Col(c->id, c->type);
      }
      case AstExprKind::kFuncCall: {
        if (agg == nullptr) {
          return PlanError(e.offset,
                           "[sql-aggregate-context] aggregate function '" +
                               e.name + "' is not allowed here");
        }
        ExprPtr arg;
        if (!e.star) {
          arg = BindExpr(*e.children[0], scope, nullptr);
          if (arg == nullptr) return nullptr;
        }
        auto it = agg->calls.find(CallKey(e.name, e.distinct, arg));
        FUSIONDB_CHECK(it != agg->calls.end(), "aggregate not collected");
        return eb::Col(it->second);
      }
      case AstExprKind::kCompare: {
        ExprPtr l, r;
        if (!BindComparisonOperands(e, scope, agg, &l, &r)) return nullptr;
        return Expr::MakeCompare(e.compare_op, std::move(l), std::move(r));
      }
      case AstExprKind::kArith: {
        ExprPtr l = BindExpr(*e.children[0], scope, agg, DataType::kInt64);
        if (l == nullptr) return nullptr;
        ExprPtr r = BindExpr(*e.children[1], scope, agg, l->type());
        if (r == nullptr) return nullptr;
        if (!IsNumeric(l->type()) || !IsNumeric(r->type())) {
          return TypeError(e.offset,
                           "[sql-type] arithmetic requires numeric operands, "
                           "got " + std::string(DataTypeName(l->type())) +
                               " and " + DataTypeName(r->type()));
        }
        switch (e.arith_op) {
          case ArithOp::kAdd: return eb::Add(std::move(l), std::move(r));
          case ArithOp::kSub: return eb::Sub(std::move(l), std::move(r));
          case ArithOp::kMul: return eb::Mul(std::move(l), std::move(r));
          case ArithOp::kDiv: return eb::Div(std::move(l), std::move(r));
        }
        return nullptr;
      }
      case AstExprKind::kAnd:
      case AstExprKind::kOr: {
        ExprPtr l = BindBool(*e.children[0], scope, agg);
        if (l == nullptr) return nullptr;
        ExprPtr r = BindBool(*e.children[1], scope, agg);
        if (r == nullptr) return nullptr;
        return e.kind == AstExprKind::kAnd ? eb::And(std::move(l), std::move(r))
                                           : eb::Or(std::move(l), std::move(r));
      }
      case AstExprKind::kNot: {
        ExprPtr c = BindBool(*e.children[0], scope, agg);
        if (c == nullptr) return nullptr;
        return eb::Not(std::move(c));
      }
      case AstExprKind::kIsNull: {
        ExprPtr c = BindExpr(*e.children[0], scope, agg);
        if (c == nullptr) return nullptr;
        return eb::IsNull(std::move(c));
      }
      case AstExprKind::kInList: {
        ExprPtr operand = BindExpr(*e.children[0], scope, agg);
        if (operand == nullptr) return nullptr;
        std::vector<ExprPtr> children;
        children.push_back(operand);
        for (size_t i = 1; i < e.children.size(); ++i) {
          ExprPtr item =
              BindExpr(*e.children[i], scope, agg, operand->type());
          if (item == nullptr) return nullptr;
          if (!Comparable(operand->type(), item->type())) {
            return TypeError(e.children[i]->offset,
                             "[sql-type] IN list item type " +
                                 std::string(DataTypeName(item->type())) +
                                 " does not match operand type " +
                                 DataTypeName(operand->type()));
          }
          children.push_back(std::move(item));
        }
        return Expr::MakeInList(std::move(children));
      }
      case AstExprKind::kCase: {
        // children: when1, then1, ..., whenN, thenN, else. The first
        // non-NULL branch fixes the result type; NULL branches inherit it.
        DataType result = null_hint;
        std::vector<size_t> branch_indexes;
        for (size_t i = 1; i + 1 < e.children.size(); i += 2) {
          branch_indexes.push_back(i);  // THENs
        }
        branch_indexes.push_back(e.children.size() - 1);  // ELSE
        for (size_t i : branch_indexes) {
          if (e.children[i]->kind != AstExprKind::kNullLit) {
            ExprPtr probe = BindExpr(*e.children[i], scope, agg, null_hint);
            if (probe == nullptr) return nullptr;
            result = probe->type();
            break;
          }
        }
        std::vector<ExprPtr> children;
        for (size_t i = 0; i + 1 < e.children.size(); i += 2) {
          ExprPtr when = BindBool(*e.children[i], scope, agg);
          if (when == nullptr) return nullptr;
          ExprPtr then = BindExpr(*e.children[i + 1], scope, agg, result);
          if (then == nullptr) return nullptr;
          if (then->type() != result) {
            return TypeError(e.children[i + 1]->offset,
                             "[sql-case-type] CASE branches have mixed "
                             "types " + std::string(DataTypeName(result)) +
                                 " and " + DataTypeName(then->type()));
          }
          children.push_back(std::move(when));
          children.push_back(std::move(then));
        }
        ExprPtr els = BindExpr(*e.children.back(), scope, agg, result);
        if (els == nullptr) return nullptr;
        if (els->type() != result) {
          return TypeError(e.children.back()->offset,
                           "[sql-case-type] CASE branches have mixed types " +
                               std::string(DataTypeName(result)) + " and " +
                               DataTypeName(els->type()));
        }
        children.push_back(std::move(els));
        return Expr::MakeCase(std::move(children), result);
      }
    }
    return nullptr;
  }

  bool BindComparisonOperands(const AstExpr& e, const Scope& scope,
                              const AggContext* agg, ExprPtr* l, ExprPtr* r) {
    // Bind the non-NULL side first so a bare NULL picks up its sibling's
    // type instead of defaulting to int64.
    const AstExpr& la = *e.children[0];
    const AstExpr& ra = *e.children[1];
    if (la.kind == AstExprKind::kNullLit && ra.kind != AstExprKind::kNullLit) {
      *r = BindExpr(ra, scope, agg);
      if (*r == nullptr) return false;
      *l = BindExpr(la, scope, agg, (*r)->type());
      return *l != nullptr;
    }
    *l = BindExpr(la, scope, agg);
    if (*l == nullptr) return false;
    *r = BindExpr(ra, scope, agg, (*l)->type());
    if (*r == nullptr) return false;
    if (!Comparable((*l)->type(), (*r)->type())) {
      TypeError(e.offset, "[sql-type] cannot compare " +
                              std::string(DataTypeName((*l)->type())) +
                              " with " + DataTypeName((*r)->type()));
      return false;
    }
    return true;
  }

  ExprPtr BindBool(const AstExpr& e, const Scope& scope,
                   const AggContext* agg) {
    ExprPtr bound = BindExpr(e, scope, agg, DataType::kBool);
    if (bound == nullptr) return nullptr;
    if (bound->type() != DataType::kBool) {
      return TypeError(e.offset, "[sql-type] expected a boolean condition, "
                                 "got " +
                                     std::string(DataTypeName(bound->type())));
    }
    return bound;
  }

  static bool Comparable(DataType a, DataType b) {
    return a == b || (IsNumeric(a) && IsNumeric(b));
  }

  // --- aggregation ---------------------------------------------------------

  static bool HasAggregate(const AstExpr& e) {
    if (e.kind == AstExprKind::kFuncCall) return true;
    for (const AstExprPtr& c : e.children) {
      if (HasAggregate(*c)) return true;
    }
    return false;
  }

  /// Collects each distinct aggregate call under `e` into `agg->calls`,
  /// binding arguments against the pre-aggregation scope.
  bool CollectAggregates(const AstExpr& e, const Scope& scope,
                         AggContext* agg,
                         std::vector<AggregateItem>* items) {
    if (e.kind != AstExprKind::kFuncCall) {
      for (const AstExprPtr& c : e.children) {
        if (!CollectAggregates(*c, scope, agg, items)) return false;
      }
      return true;
    }
    AggFunc func;
    std::string upper = e.name;  // parser uppercases function names
    if (upper == "COUNT") {
      func = e.star ? AggFunc::kCountStar : AggFunc::kCount;
    } else if (upper == "SUM") {
      func = AggFunc::kSum;
    } else if (upper == "MIN") {
      func = AggFunc::kMin;
    } else if (upper == "MAX") {
      func = AggFunc::kMax;
    } else if (upper == "AVG") {
      func = AggFunc::kAvg;
    } else {
      PlanError(e.offset,
                "[sql-unknown-function] unknown function '" + e.name + "'");
      return false;
    }
    ExprPtr arg;
    if (!e.star) {
      if (HasAggregate(*e.children[0])) {
        PlanError(e.children[0]->offset,
                  "[sql-nested-aggregate] aggregate calls cannot be nested");
        return false;
      }
      arg = BindExpr(*e.children[0], scope, nullptr);
      if (arg == nullptr) return false;
      if ((func == AggFunc::kSum || func == AggFunc::kAvg) &&
          !IsNumeric(arg->type())) {
        TypeError(e.children[0]->offset,
                  "[sql-type] " + Lower(e.name) + " requires a numeric "
                  "argument, got " + DataTypeName(arg->type()));
        return false;
      }
    }
    CallKey key(e.name, e.distinct, arg);
    if (agg->calls.count(key) > 0) return true;  // deduplicated
    AggregateItem item;
    item.id = ctx_->NextId();
    item.name = Lower(e.name);
    item.func = func;
    item.arg = arg;
    item.distinct = e.distinct;
    agg->calls.emplace(std::move(key),
                       ColumnInfo{item.id, item.name, item.result_type()});
    items->push_back(std::move(item));
    return true;
  }

  // --- SELECT core ---------------------------------------------------------

  PlanPtr BindSelectCore(const SelectCore& core) {
    Scope scope;
    PlanPtr plan = BindTableRef(core.from, &scope);
    if (plan == nullptr) return nullptr;

    for (const JoinClause& join : core.joins) {
      PlanPtr right = BindTableRef(join.ref, &scope);
      if (right == nullptr) return nullptr;
      ExprPtr condition = BindBool(*join.condition, scope, nullptr);
      if (condition == nullptr) return nullptr;
      plan = std::make_shared<JoinOp>(join.type, plan, right,
                                      std::move(condition));
    }

    if (core.where != nullptr) {
      ExprPtr predicate = BindBool(*core.where, scope, nullptr);
      if (predicate == nullptr) return nullptr;
      plan = std::make_shared<FilterOp>(plan, std::move(predicate));
    }

    bool aggregated = !core.group_by.empty() ||
                      (core.having != nullptr) ||
                      AnySelectAggregate(core);
    AggContext agg;
    if (aggregated) {
      std::vector<ColumnId> group_ids;
      for (const AstExprPtr& g : core.group_by) {
        if (g->kind != AstExprKind::kColumn) {
          return PlanError(g->offset, "[sql-group-by] GROUP BY supports "
                                      "plain column references only");
        }
        const ScopeColumn* c =
            ResolveColumn(scope, g->qualifier, g->name, g->offset);
        if (c == nullptr) return nullptr;
        agg.group_ids.insert(c->id);
        group_ids.push_back(c->id);
      }
      std::vector<AggregateItem> items;
      for (const SelectItem& item : core.items) {
        if (item.star) continue;  // checked during projection binding
        if (!CollectAggregates(*item.expr, scope, &agg, &items)) return nullptr;
      }
      if (core.having != nullptr &&
          !CollectAggregates(*core.having, scope, &agg, &items)) {
        return nullptr;
      }
      plan = std::make_shared<AggregateOp>(plan, std::move(group_ids),
                                           std::move(items));
      if (core.having != nullptr) {
        ExprPtr predicate = BindBool(*core.having, scope, &agg);
        if (predicate == nullptr) return nullptr;
        plan = std::make_shared<FilterOp>(plan, std::move(predicate));
      }
    }

    return BindProjection(core, scope, aggregated ? &agg : nullptr, plan);
  }

  static bool AnySelectAggregate(const SelectCore& core) {
    for (const SelectItem& item : core.items) {
      if (!item.star && HasAggregate(*item.expr)) return true;
    }
    return false;
  }

  PlanPtr BindProjection(const SelectCore& core, const Scope& scope,
                         const AggContext* agg, PlanPtr plan) {
    std::vector<NamedExpr> exprs;
    std::set<ColumnId> used;
    auto emit = [&](ExprPtr bound, std::string name) {
      NamedExpr ne;
      // Plain column references pass their id through so the projection is
      // prunable; computed or repeated outputs mint a fresh id.
      if (bound->kind() == ExprKind::kColumnRef &&
          used.count(bound->column_id()) == 0) {
        ne.id = bound->column_id();
      } else {
        ne.id = ctx_->NextId();
      }
      used.insert(ne.id);
      ne.name = std::move(name);
      ne.expr = std::move(bound);
      exprs.push_back(std::move(ne));
    };
    for (const SelectItem& item : core.items) {
      if (item.star) {
        for (const ScopeColumn& c : scope.columns) {
          if (agg != nullptr && agg->group_ids.count(c.id) == 0) {
            return PlanError(item.offset,
                             "[sql-not-grouped] SELECT * with GROUP BY "
                             "requires every column to be grouped");
          }
          emit(eb::Col(c.id, c.type), c.name);
        }
        continue;
      }
      ExprPtr bound = BindExpr(*item.expr, scope, agg);
      if (bound == nullptr) return nullptr;
      std::string name = item.alias;
      if (name.empty()) {
        name = item.expr->kind == AstExprKind::kColumn
                   ? item.expr->name
                   : "_col" + std::to_string(exprs.size());
      }
      emit(std::move(bound), std::move(name));
    }
    return std::make_shared<ProjectOp>(plan, std::move(exprs));
  }

  // --- UNION ALL / ORDER BY ------------------------------------------------

  PlanPtr BindUnionAll(const Statement& stmt, std::vector<PlanPtr> branches) {
    const Schema& first = branches[0]->schema();
    std::vector<std::vector<ColumnId>> input_columns;
    for (size_t b = 0; b < branches.size(); ++b) {
      const Schema& schema = branches[b]->schema();
      if (schema.num_columns() != first.num_columns()) {
        return PlanError(stmt.selects[b]->offset,
                         "[sql-union-arity] UNION ALL branches have " +
                             std::to_string(first.num_columns()) + " and " +
                             std::to_string(schema.num_columns()) +
                             " columns");
      }
      std::vector<ColumnId> mapping;
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        if (schema.column(i).type != first.column(i).type) {
          return TypeError(stmt.selects[b]->offset,
                           "[sql-union-type] UNION ALL column " +
                               std::to_string(i + 1) + " has type " +
                               DataTypeName(schema.column(i).type) +
                               " but the first branch has " +
                               DataTypeName(first.column(i).type));
        }
        mapping.push_back(schema.column(i).id);
      }
      input_columns.push_back(std::move(mapping));
    }
    std::vector<ColumnInfo> out;
    for (const ColumnInfo& c : first.columns()) {
      out.push_back({ctx_->NextId(), c.name, c.type});
    }
    return std::make_shared<UnionAllOp>(std::move(branches),
                                        Schema(std::move(out)),
                                        std::move(input_columns));
  }

  ColumnId ResolveOrderTarget(const AstExpr& e, const Schema& schema) {
    if (e.kind == AstExprKind::kIntLit) {
      if (e.int_value < 1 ||
          e.int_value > static_cast<int64_t>(schema.num_columns())) {
        PlanError(e.offset, "[sql-order-by] ORDER BY position " +
                                std::to_string(e.int_value) +
                                " is out of range");
        return kInvalidColumnId;
      }
      return schema.column(static_cast<size_t>(e.int_value - 1)).id;
    }
    if (e.kind == AstExprKind::kColumn && e.qualifier.empty()) {
      ColumnId found = kInvalidColumnId;
      for (const ColumnInfo& c : schema.columns()) {
        if (c.name != e.name) continue;
        if (found != kInvalidColumnId) {
          PlanError(e.offset, "[sql-ambiguous-column] ORDER BY column '" +
                                  e.name + "' is ambiguous");
          return kInvalidColumnId;
        }
        found = c.id;
      }
      if (found == kInvalidColumnId) {
        PlanError(e.offset, "[sql-order-by] ORDER BY must name an output "
                            "column; no output named '" + e.name + "'");
      }
      return found;
    }
    PlanError(e.offset, "[sql-order-by] ORDER BY supports output column "
                        "names and 1-based positions only");
    return kInvalidColumnId;
  }

  const Catalog& catalog_;
  PlanContext* ctx_;
  std::vector<SqlDiagnostic>* diag_;
  bool failed_ = false;
};

}  // namespace

PlanPtr Bind(const Statement& stmt, const Catalog& catalog, PlanContext* ctx,
             std::vector<SqlDiagnostic>* diag) {
  Binder binder(catalog, ctx, diag);
  PlanPtr plan = binder.BindStatement(stmt);
  if (!diag->empty()) return nullptr;
  return plan;
}

}  // namespace fusiondb::sql
