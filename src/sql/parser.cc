#include "sql/parser.h"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "sql/lexer.h"

namespace fusiondb::sql {

namespace {

/// Keywords that terminate clauses; these may not be used as bare aliases
/// (so `FROM t WHERE ...` never parses WHERE as t's alias).
bool IsReservedKeyword(const Token& t) {
  static const char* kReserved[] = {
      "SELECT", "FROM",  "WHERE", "GROUP", "BY",      "HAVING", "ORDER",
      "LIMIT",  "UNION", "ALL",   "JOIN",  "INNER",   "LEFT",   "OUTER",
      "ON",     "AS",    "AND",   "OR",    "NOT",     "IS",     "NULL",
      "TRUE",   "FALSE", "BETWEEN", "IN",  "CASE",    "WHEN",   "THEN",
      "ELSE",   "END",   "ASC",   "DESC",  "DISTINCT"};
  for (const char* k : kReserved) {
    if (t.IsKeyword(k)) return true;
  }
  return false;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::vector<SqlDiagnostic>* diag)
      : tokens_(std::move(tokens)), diag_(diag) {}

  std::unique_ptr<Statement> ParseStatement() {
    auto stmt = ParseQuery();
    if (stmt == nullptr) return nullptr;
    if (Peek().kind == TokenKind::kSemicolon) Advance();
    if (Peek().kind != TokenKind::kEof) {
      Error("expected end of statement, found " + Describe(Peek()));
      return nullptr;
    }
    return stmt;
  }

 private:
  // --- token plumbing ------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AtKeyword(const char* kw) const { return Peek().IsKeyword(kw); }
  bool EatKeyword(const char* kw) {
    if (!AtKeyword(kw)) return false;
    Advance();
    return true;
  }
  bool Eat(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Advance();
    return true;
  }

  static std::string Describe(const Token& t) {
    if (t.kind == TokenKind::kIdent || t.kind == TokenKind::kInt ||
        t.kind == TokenKind::kFloat) {
      return "'" + t.text + "'";
    }
    return TokenKindName(t.kind);
  }

  void Error(const std::string& message) { ErrorAt(Peek().offset, message); }
  void ErrorAt(size_t offset, const std::string& message) {
    if (!failed_) {
      failed_ = true;
      diag_->push_back(
          {StatusCode::kInvalidArgument, "[sql-syntax] " + message, offset});
    }
  }

  bool ExpectKeyword(const char* kw) {
    if (EatKeyword(kw)) return true;
    Error(std::string("expected ") + kw + ", found " + Describe(Peek()));
    return false;
  }
  bool Expect(TokenKind kind) {
    if (Eat(kind)) return true;
    Error(std::string("expected ") + TokenKindName(kind) + ", found " +
          Describe(Peek()));
    return false;
  }

  // --- grammar -------------------------------------------------------------

  std::unique_ptr<Statement> ParseQuery() {
    auto stmt = std::make_unique<Statement>();
    stmt->offset = Peek().offset;
    auto first = ParseSelectCore();
    if (first == nullptr) return nullptr;
    stmt->selects.push_back(std::move(first));
    while (AtKeyword("UNION")) {
      Advance();
      if (!ExpectKeyword("ALL")) return nullptr;  // bag semantics only
      auto branch = ParseSelectCore();
      if (branch == nullptr) return nullptr;
      stmt->selects.push_back(std::move(branch));
    }
    if (AtKeyword("ORDER")) {
      Advance();
      if (!ExpectKeyword("BY")) return nullptr;
      do {
        OrderItem item;
        item.expr = ParseExpr();
        if (item.expr == nullptr) return nullptr;
        if (EatKeyword("DESC")) {
          item.ascending = false;
        } else {
          EatKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
      } while (Eat(TokenKind::kComma));
    }
    if (EatKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kInt) {
        Error("expected integer LIMIT, found " + Describe(Peek()));
        return nullptr;
      }
      stmt->limit = std::atoll(Advance().text.c_str());
    }
    return stmt;
  }

  std::unique_ptr<SelectCore> ParseSelectCore() {
    auto core = std::make_unique<SelectCore>();
    core->offset = Peek().offset;
    if (!ExpectKeyword("SELECT")) return nullptr;
    do {
      SelectItem item;
      item.offset = Peek().offset;
      if (Peek().kind == TokenKind::kStar) {
        Advance();
        item.star = true;
      } else {
        item.expr = ParseExpr();
        if (item.expr == nullptr) return nullptr;
        if (EatKeyword("AS")) {
          if (Peek().kind != TokenKind::kIdent) {
            Error("expected alias after AS, found " + Describe(Peek()));
            return nullptr;
          }
          item.alias = Advance().text;
        } else if (Peek().kind == TokenKind::kIdent &&
                   !IsReservedKeyword(Peek())) {
          item.alias = Advance().text;
        }
      }
      core->items.push_back(std::move(item));
    } while (Eat(TokenKind::kComma));

    if (!ExpectKeyword("FROM")) return nullptr;
    if (!ParseTableRef(&core->from)) return nullptr;
    while (AtKeyword("JOIN") || AtKeyword("INNER") || AtKeyword("LEFT")) {
      JoinClause join;
      join.offset = Peek().offset;
      if (EatKeyword("LEFT")) {
        EatKeyword("OUTER");
        join.type = JoinType::kLeft;
      } else {
        EatKeyword("INNER");
        join.type = JoinType::kInner;
      }
      if (!ExpectKeyword("JOIN")) return nullptr;
      if (!ParseTableRef(&join.ref)) return nullptr;
      if (!ExpectKeyword("ON")) return nullptr;
      join.condition = ParseExpr();
      if (join.condition == nullptr) return nullptr;
      core->joins.push_back(std::move(join));
    }
    if (EatKeyword("WHERE")) {
      core->where = ParseExpr();
      if (core->where == nullptr) return nullptr;
    }
    if (AtKeyword("GROUP")) {
      Advance();
      if (!ExpectKeyword("BY")) return nullptr;
      do {
        auto e = ParseExpr();
        if (e == nullptr) return nullptr;
        core->group_by.push_back(std::move(e));
      } while (Eat(TokenKind::kComma));
    }
    if (EatKeyword("HAVING")) {
      core->having = ParseExpr();
      if (core->having == nullptr) return nullptr;
    }
    return core;
  }

  bool ParseTableRef(TableRef* ref) {
    ref->offset = Peek().offset;
    if (Eat(TokenKind::kLParen)) {
      ref->subquery = ParseQuery();
      if (ref->subquery == nullptr) return false;
      if (!Expect(TokenKind::kRParen)) return false;
    } else if (Peek().kind == TokenKind::kIdent && !IsReservedKeyword(Peek())) {
      ref->table = Advance().text;
    } else {
      Error("expected table name or subquery, found " + Describe(Peek()));
      return false;
    }
    if (EatKeyword("AS")) {
      if (Peek().kind != TokenKind::kIdent) {
        Error("expected alias after AS, found " + Describe(Peek()));
        return false;
      }
      ref->alias = Advance().text;
    } else if (Peek().kind == TokenKind::kIdent && !IsReservedKeyword(Peek())) {
      ref->alias = Advance().text;
    }
    if (ref->table.empty() && ref->alias.empty()) {
      ErrorAt(ref->offset, "subquery in FROM requires an alias");
      return false;
    }
    return true;
  }

  // Precedence: OR < AND < NOT < predicate (comparison / IS NULL / BETWEEN /
  // IN) < additive < multiplicative < unary minus < primary.
  AstExprPtr ParseExpr() { return ParseOr(); }

  AstExprPtr MakeBinary(AstExprKind kind, size_t offset, AstExprPtr l,
                        AstExprPtr r) {
    auto e = std::make_unique<AstExpr>();
    e->kind = kind;
    e->offset = offset;
    e->children.push_back(std::move(l));
    e->children.push_back(std::move(r));
    return e;
  }

  AstExprPtr ParseOr() {
    auto l = ParseAnd();
    if (l == nullptr) return nullptr;
    while (AtKeyword("OR")) {
      size_t offset = Advance().offset;
      auto r = ParseAnd();
      if (r == nullptr) return nullptr;
      l = MakeBinary(AstExprKind::kOr, offset, std::move(l), std::move(r));
    }
    return l;
  }

  AstExprPtr ParseAnd() {
    auto l = ParseNot();
    if (l == nullptr) return nullptr;
    while (AtKeyword("AND")) {
      size_t offset = Advance().offset;
      auto r = ParseNot();
      if (r == nullptr) return nullptr;
      l = MakeBinary(AstExprKind::kAnd, offset, std::move(l), std::move(r));
    }
    return l;
  }

  AstExprPtr ParseNot() {
    if (AtKeyword("NOT")) {
      size_t offset = Advance().offset;
      auto operand = ParseNot();
      if (operand == nullptr) return nullptr;
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kNot;
      e->offset = offset;
      e->children.push_back(std::move(operand));
      return e;
    }
    return ParsePredicate();
  }

  static bool CompareOpOf(TokenKind kind, CompareOp* op) {
    if (kind == TokenKind::kEq) *op = CompareOp::kEq;
    else if (kind == TokenKind::kNe) *op = CompareOp::kNe;
    else if (kind == TokenKind::kLt) *op = CompareOp::kLt;
    else if (kind == TokenKind::kLe) *op = CompareOp::kLe;
    else if (kind == TokenKind::kGt) *op = CompareOp::kGt;
    else if (kind == TokenKind::kGe) *op = CompareOp::kGe;
    else return false;
    return true;
  }

  AstExprPtr ParsePredicate() {
    auto l = ParseAdditive();
    if (l == nullptr) return nullptr;
    CompareOp op;
    if (!CompareOpOf(Peek().kind, &op)) {
      {
        if (AtKeyword("IS")) {
          size_t offset = Advance().offset;
          bool negated = EatKeyword("NOT");
          if (!ExpectKeyword("NULL")) return nullptr;
          auto e = std::make_unique<AstExpr>();
          e->kind = AstExprKind::kIsNull;
          e->offset = offset;
          e->children.push_back(std::move(l));
          if (!negated) return e;
          auto n = std::make_unique<AstExpr>();
          n->kind = AstExprKind::kNot;
          n->offset = offset;
          n->children.push_back(std::move(e));
          return n;
        }
        bool negated = false;
        size_t not_offset = Peek().offset;
        if (AtKeyword("NOT") &&
            (Peek(1).IsKeyword("BETWEEN") || Peek(1).IsKeyword("IN"))) {
          Advance();
          negated = true;
        }
        if (AtKeyword("BETWEEN")) {
          size_t offset = Advance().offset;
          auto lo = ParseAdditive();
          if (lo == nullptr) return nullptr;
          if (!ExpectKeyword("AND")) return nullptr;
          auto hi = ParseAdditive();
          if (hi == nullptr) return nullptr;
          // Desugar: l >= lo AND l <= hi (the binder re-binds the shared
          // operand, so a plain structural copy is enough).
          auto lower = MakeBinary(AstExprKind::kCompare, offset, CloneExpr(*l),
                                  std::move(lo));
          lower->compare_op = CompareOp::kGe;
          auto upper = MakeBinary(AstExprKind::kCompare, offset, std::move(l),
                                  std::move(hi));
          upper->compare_op = CompareOp::kLe;
          auto e = MakeBinary(AstExprKind::kAnd, offset, std::move(lower),
                              std::move(upper));
          return negated ? Negate(not_offset, std::move(e)) : std::move(e);
        }
        if (AtKeyword("IN")) {
          size_t offset = Advance().offset;
          if (!Expect(TokenKind::kLParen)) return nullptr;
          auto e = std::make_unique<AstExpr>();
          e->kind = AstExprKind::kInList;
          e->offset = offset;
          e->children.push_back(std::move(l));
          if (AtKeyword("SELECT")) {
            e->kind = AstExprKind::kInSubquery;
            e->subquery = ParseQuery();
            if (e->subquery == nullptr) return nullptr;
            if (!Expect(TokenKind::kRParen)) return nullptr;
            return negated ? Negate(not_offset, std::move(e)) : std::move(e);
          }
          do {
            auto item = ParseExpr();
            if (item == nullptr) return nullptr;
            e->children.push_back(std::move(item));
          } while (Eat(TokenKind::kComma));
          if (!Expect(TokenKind::kRParen)) return nullptr;
          return negated ? Negate(not_offset, std::move(e)) : std::move(e);
        }
        return l;
      }
    }
    size_t offset = Advance().offset;  // consume the comparison operator
    auto r = ParseAdditive();
    if (r == nullptr) return nullptr;
    auto e = MakeBinary(AstExprKind::kCompare, offset, std::move(l),
                        std::move(r));
    e->compare_op = op;
    return e;
  }

  AstExprPtr Negate(size_t offset, AstExprPtr e) {
    auto n = std::make_unique<AstExpr>();
    n->kind = AstExprKind::kNot;
    n->offset = offset;
    n->children.push_back(std::move(e));
    return n;
  }

  static AstExprPtr CloneExpr(const AstExpr& e) {
    auto c = std::make_unique<AstExpr>();
    c->kind = e.kind;
    c->offset = e.offset;
    c->qualifier = e.qualifier;
    c->name = e.name;
    c->int_value = e.int_value;
    c->float_value = e.float_value;
    c->string_value = e.string_value;
    c->compare_op = e.compare_op;
    c->arith_op = e.arith_op;
    c->distinct = e.distinct;
    c->star = e.star;
    c->subquery = e.subquery;
    for (const AstExprPtr& child : e.children) {
      c->children.push_back(CloneExpr(*child));
    }
    return c;
  }

  AstExprPtr ParseAdditive() {
    auto l = ParseMultiplicative();
    if (l == nullptr) return nullptr;
    while (Peek().kind == TokenKind::kPlus || Peek().kind == TokenKind::kMinus) {
      ArithOp op = Peek().kind == TokenKind::kPlus ? ArithOp::kAdd
                                                   : ArithOp::kSub;
      size_t offset = Advance().offset;
      auto r = ParseMultiplicative();
      if (r == nullptr) return nullptr;
      auto e = MakeBinary(AstExprKind::kArith, offset, std::move(l),
                          std::move(r));
      e->arith_op = op;
      l = std::move(e);
    }
    return l;
  }

  AstExprPtr ParseMultiplicative() {
    auto l = ParseUnary();
    if (l == nullptr) return nullptr;
    while (Peek().kind == TokenKind::kStar ||
           Peek().kind == TokenKind::kSlash) {
      ArithOp op = Peek().kind == TokenKind::kStar ? ArithOp::kMul
                                                   : ArithOp::kDiv;
      size_t offset = Advance().offset;
      auto r = ParseUnary();
      if (r == nullptr) return nullptr;
      auto e = MakeBinary(AstExprKind::kArith, offset, std::move(l),
                          std::move(r));
      e->arith_op = op;
      l = std::move(e);
    }
    return l;
  }

  AstExprPtr ParseUnary() {
    if (Peek().kind == TokenKind::kMinus) {
      size_t offset = Advance().offset;
      auto operand = ParseUnary();
      if (operand == nullptr) return nullptr;
      // Fold into the literal when possible, else desugar to 0 - operand.
      if (operand->kind == AstExprKind::kIntLit) {
        operand->int_value = -operand->int_value;
        return operand;
      }
      if (operand->kind == AstExprKind::kFloatLit) {
        operand->float_value = -operand->float_value;
        return operand;
      }
      auto zero = std::make_unique<AstExpr>();
      zero->kind = AstExprKind::kIntLit;
      zero->offset = offset;
      auto e = MakeBinary(AstExprKind::kArith, offset, std::move(zero),
                          std::move(operand));
      e->arith_op = ArithOp::kSub;
      return e;
    }
    return ParsePrimary();
  }

  static bool IsAggregateName(const Token& t) {
    return t.IsKeyword("COUNT") || t.IsKeyword("SUM") || t.IsKeyword("MIN") ||
           t.IsKeyword("MAX") || t.IsKeyword("AVG");
  }

  AstExprPtr ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kInt) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kIntLit;
      e->offset = t.offset;
      e->int_value = std::atoll(Advance().text.c_str());
      return e;
    }
    if (t.kind == TokenKind::kFloat) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kFloatLit;
      e->offset = t.offset;
      e->float_value = std::atof(Advance().text.c_str());
      return e;
    }
    if (t.kind == TokenKind::kString) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kStringLit;
      e->offset = t.offset;
      e->string_value = Advance().text;
      return e;
    }
    if (t.kind == TokenKind::kLParen) {
      size_t offset = Advance().offset;
      if (AtKeyword("SELECT")) {
        auto e = std::make_unique<AstExpr>();
        e->kind = AstExprKind::kScalarSubquery;
        e->offset = offset;
        e->subquery = ParseQuery();
        if (e->subquery == nullptr) return nullptr;
        if (!Expect(TokenKind::kRParen)) return nullptr;
        return e;
      }
      auto e = ParseExpr();
      if (e == nullptr) return nullptr;
      if (!Expect(TokenKind::kRParen)) return nullptr;
      return e;
    }
    if (t.kind != TokenKind::kIdent) {
      Error("expected expression, found " + Describe(t));
      return nullptr;
    }
    if (t.IsKeyword("TRUE") || t.IsKeyword("FALSE")) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kBoolLit;
      e->offset = t.offset;
      e->int_value = t.IsKeyword("TRUE") ? 1 : 0;
      Advance();
      return e;
    }
    if (t.IsKeyword("NULL")) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kNullLit;
      e->offset = t.offset;
      Advance();
      return e;
    }
    if (t.IsKeyword("CASE")) return ParseCase();
    if (IsAggregateName(t) && Peek(1).kind == TokenKind::kLParen) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kFuncCall;
      e->offset = t.offset;
      e->name = Advance().text;
      for (char& c : e->name) c = static_cast<char>(std::toupper(
          static_cast<unsigned char>(c)));
      Advance();  // '('
      if (Peek().kind == TokenKind::kStar) {
        Advance();
        e->star = true;
      } else {
        e->distinct = EatKeyword("DISTINCT");
        auto arg = ParseExpr();
        if (arg == nullptr) return nullptr;
        e->children.push_back(std::move(arg));
      }
      if (!Expect(TokenKind::kRParen)) return nullptr;
      return e;
    }
    if (IsReservedKeyword(t)) {
      Error("expected expression, found '" + t.text + "'");
      return nullptr;
    }
    // Column reference, optionally qualified.
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kColumn;
    e->offset = t.offset;
    e->name = Advance().text;
    if (Peek().kind == TokenKind::kDot) {
      Advance();
      if (Peek().kind != TokenKind::kIdent) {
        Error("expected column name after '.', found " + Describe(Peek()));
        return nullptr;
      }
      e->qualifier = std::move(e->name);
      e->name = Advance().text;
    }
    return e;
  }

  AstExprPtr ParseCase() {
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kCase;
    e->offset = Peek().offset;
    Advance();  // CASE
    if (!AtKeyword("WHEN")) {
      Error("expected WHEN after CASE (simple CASE is not supported)");
      return nullptr;
    }
    while (EatKeyword("WHEN")) {
      auto when = ParseExpr();
      if (when == nullptr) return nullptr;
      if (!ExpectKeyword("THEN")) return nullptr;
      auto then = ParseExpr();
      if (then == nullptr) return nullptr;
      e->children.push_back(std::move(when));
      e->children.push_back(std::move(then));
    }
    if (EatKeyword("ELSE")) {
      auto els = ParseExpr();
      if (els == nullptr) return nullptr;
      e->children.push_back(std::move(els));
    } else {
      auto els = std::make_unique<AstExpr>();
      els->kind = AstExprKind::kNullLit;
      els->offset = Peek().offset;
      e->children.push_back(std::move(els));
    }
    if (!ExpectKeyword("END")) return nullptr;
    return e;
  }

  std::vector<Token> tokens_;
  std::vector<SqlDiagnostic>* diag_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

std::unique_ptr<Statement> Parse(const std::string& sql,
                                 std::vector<SqlDiagnostic>* diag) {
  std::vector<Token> tokens = Lex(sql, diag);
  if (!diag->empty()) return nullptr;
  Parser parser(std::move(tokens), diag);
  return parser.ParseStatement();
}

}  // namespace fusiondb::sql
