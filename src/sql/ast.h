// SQL parse tree. A deliberately small surface: exactly the dialect the
// engine can execute (SELECT with expressions, WHERE, GROUP BY + the five
// aggregate functions, HAVING, ORDER BY/LIMIT, INNER/LEFT joins, subqueries
// in FROM, UNION ALL, and two subquery expressions: `expr IN (SELECT ...)`
// and a scalar `(SELECT ...)`; the binder admits each only as a WHERE
// conjunct). Every node keeps the byte offset of its first token so binder
// diagnostics can point at source positions.
#ifndef FUSIONDB_SQL_AST_H_
#define FUSIONDB_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "plan/logical_plan.h"

namespace fusiondb::sql {

enum class AstExprKind : uint8_t {
  kColumn,     // [qualifier.]name
  kIntLit,
  kFloatLit,
  kStringLit,
  kBoolLit,
  kNullLit,
  kCompare,    // children: [l, r]
  kArith,      // children: [l, r]
  kAnd,        // children: [l, r]
  kOr,         // children: [l, r]
  kNot,        // children: [operand]
  kIsNull,     // children: [operand]
  kInList,     // children: [operand, item...]
  kCase,       // children: [when1, then1, ..., else]
  kFuncCall,   // aggregate call; children: [arg] (empty for COUNT(*))
  kInSubquery,      // children: [operand]; `subquery` returns one column
  kScalarSubquery,  // `subquery` returns one aggregate value
};

struct AstExpr;
struct Statement;
using AstExprPtr = std::unique_ptr<AstExpr>;

struct AstExpr {
  AstExprKind kind = AstExprKind::kColumn;
  size_t offset = 0;

  std::string qualifier;  // kColumn: optional table alias
  std::string name;       // kColumn: column name; kFuncCall: function name
  int64_t int_value = 0;  // kIntLit / kBoolLit (0|1)
  double float_value = 0.0;
  std::string string_value;

  CompareOp compare_op = CompareOp::kEq;
  ArithOp arith_op = ArithOp::kAdd;
  bool distinct = false;  // kFuncCall: COUNT(DISTINCT x) etc.
  bool star = false;      // kFuncCall: COUNT(*)

  std::vector<AstExprPtr> children;
  /// kInSubquery / kScalarSubquery: the parenthesized SELECT. Shared so
  /// the parser's structural copies (BETWEEN desugaring) stay cheap.
  std::shared_ptr<const Statement> subquery;
};

struct SelectItem {
  AstExprPtr expr;    // null for '*'
  std::string alias;  // empty when none given
  bool star = false;
  size_t offset = 0;
};

/// One FROM entry: a base table or a parenthesized subquery, either with an
/// optional alias.
struct TableRef {
  std::string table;  // empty for subqueries
  std::string alias;  // defaults to the table name when empty
  std::unique_ptr<Statement> subquery;
  size_t offset = 0;
};

struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef ref;
  AstExprPtr condition;
  size_t offset = 0;
};

/// One SELECT core (no ORDER BY/LIMIT — those attach to the Statement so
/// they apply across UNION ALL branches, as in standard SQL).
struct SelectCore {
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  AstExprPtr where;
  std::vector<AstExprPtr> group_by;
  AstExprPtr having;
  size_t offset = 0;
};

struct OrderItem {
  AstExprPtr expr;  // output column name or 1-based position
  bool ascending = true;
};

/// A full statement: one or more UNION ALL branches plus the trailing
/// ORDER BY / LIMIT over the combined output.
struct Statement {
  std::vector<std::unique_ptr<SelectCore>> selects;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 == no LIMIT
  size_t offset = 0;
};

}  // namespace fusiondb::sql

#endif  // FUSIONDB_SQL_AST_H_
