#include "expr/expr.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/check.h"

namespace fusiondb {

namespace {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

void Render(const Expr& e, std::ostream& os) {
  switch (e.kind()) {
    case ExprKind::kColumnRef:
      os << "#" << e.column_id();
      break;
    case ExprKind::kLiteral:
      os << e.literal().ToString();
      break;
    case ExprKind::kCompare:
      os << "(" << e.child(0)->ToString() << " "
         << CompareOpName(e.compare_op()) << " " << e.child(1)->ToString()
         << ")";
      break;
    case ExprKind::kArith:
      os << "(" << e.child(0)->ToString() << " " << ArithOpName(e.arith_op())
         << " " << e.child(1)->ToString() << ")";
      break;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const char* sep = e.kind() == ExprKind::kAnd ? " AND " : " OR ";
      os << "(";
      for (size_t i = 0; i < e.children().size(); ++i) {
        if (i > 0) os << sep;
        os << e.child(i)->ToString();
      }
      os << ")";
      break;
    }
    case ExprKind::kNot:
      os << "NOT " << e.child(0)->ToString();
      break;
    case ExprKind::kIsNull:
      os << "(" << e.child(0)->ToString() << " IS NULL)";
      break;
    case ExprKind::kCase: {
      os << "CASE";
      size_t n = e.children().size();
      for (size_t i = 0; i + 1 < n; i += 2) {
        os << " WHEN " << e.child(i)->ToString() << " THEN "
           << e.child(i + 1)->ToString();
      }
      os << " ELSE " << e.child(n - 1)->ToString() << " END";
      break;
    }
    case ExprKind::kInList: {
      os << e.child(0)->ToString() << " IN (";
      for (size_t i = 1; i < e.children().size(); ++i) {
        if (i > 1) os << ", ";
        os << e.child(i)->ToString();
      }
      os << ")";
      break;
    }
  }
}

}  // namespace

std::string Expr::ToString() const {
  std::ostringstream os;
  Render(*this, os);
  return os.str();
}

ExprPtr Expr::MakeColumnRef(ColumnId id, DataType type) {
  auto e = New(ExprKind::kColumnRef, type);
  e->column_id_ = id;
  return Seal(std::move(e));
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = New(ExprKind::kLiteral, v.type());
  e->literal_ = std::move(v);
  return Seal(std::move(e));
}

ExprPtr Expr::MakeCompare(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = New(ExprKind::kCompare, DataType::kBool);
  e->cmp_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return Seal(std::move(e));
}

ExprPtr Expr::MakeArith(ArithOp op, ExprPtr l, ExprPtr r, DataType type) {
  auto e = New(ExprKind::kArith, type);
  e->arith_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return Seal(std::move(e));
}

ExprPtr Expr::MakeAnd(std::vector<ExprPtr> children) {
  FUSIONDB_CHECK(!children.empty(), "AND needs children");
  auto e = New(ExprKind::kAnd, DataType::kBool);
  e->children_ = std::move(children);
  return Seal(std::move(e));
}

ExprPtr Expr::MakeOr(std::vector<ExprPtr> children) {
  FUSIONDB_CHECK(!children.empty(), "OR needs children");
  auto e = New(ExprKind::kOr, DataType::kBool);
  e->children_ = std::move(children);
  return Seal(std::move(e));
}

ExprPtr Expr::MakeNot(ExprPtr child) {
  auto e = New(ExprKind::kNot, DataType::kBool);
  e->children_ = {std::move(child)};
  return Seal(std::move(e));
}

ExprPtr Expr::MakeIsNull(ExprPtr child) {
  auto e = New(ExprKind::kIsNull, DataType::kBool);
  e->children_ = {std::move(child)};
  return Seal(std::move(e));
}

ExprPtr Expr::MakeCase(std::vector<ExprPtr> children, DataType type) {
  FUSIONDB_CHECK(children.size() >= 3 && children.size() % 2 == 1,
                 "CASE needs when/then pairs plus else");
  auto e = New(ExprKind::kCase, type);
  e->children_ = std::move(children);
  return Seal(std::move(e));
}

ExprPtr Expr::MakeInList(std::vector<ExprPtr> children) {
  FUSIONDB_CHECK(children.size() >= 2, "IN needs operand and items");
  auto e = New(ExprKind::kInList, DataType::kBool);
  e->children_ = std::move(children);
  return Seal(std::move(e));
}

ExprPtr Expr::WithChildren(const ExprPtr& e, std::vector<ExprPtr> children) {
  switch (e->kind()) {
    case ExprKind::kCompare:
      return MakeCompare(e->compare_op(), children[0], children[1]);
    case ExprKind::kArith:
      return MakeArith(e->arith_op(), children[0], children[1], e->type());
    case ExprKind::kAnd:
      return MakeAnd(std::move(children));
    case ExprKind::kOr:
      return MakeOr(std::move(children));
    case ExprKind::kNot:
      return MakeNot(children[0]);
    case ExprKind::kIsNull:
      return MakeIsNull(children[0]);
    case ExprKind::kCase:
      return MakeCase(std::move(children), e->type());
    case ExprKind::kInList:
      return MakeInList(std::move(children));
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
      return e;
  }
  return e;
}

namespace {

// --- Structural hash --------------------------------------------------------

/// SplitMix64 finalizer: a bijective avalanche on 64 bits.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return Mix(h * 0x9e3779b97f4a7c15ULL + v);
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      return op;  // symmetric
  }
  return op;
}

namespace {

/// Exact literal identity: the type (already equal on the owning nodes),
/// NULL-ness, then the integer, the double's bit pattern or the string's
/// bytes. Never the rendered text, which rounds doubles.
uint64_t HashLiteral(const Value& v) {
  if (v.is_null()) return HashCombine(0, 0);
  switch (PhysicalTypeOf(v.type())) {
    case PhysicalType::kInt:
      return HashCombine(1, static_cast<uint64_t>(v.int_value()));
    case PhysicalType::kDouble:
      return HashCombine(2, std::bit_cast<uint64_t>(v.double_value()));
    case PhysicalType::kString:
      return HashCombine(3, HashBytes(v.string_value()));
  }
  return 0;
}

bool SameLiteral(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  switch (PhysicalTypeOf(a.type())) {
    case PhysicalType::kInt:
      return a.int_value() == b.int_value();
    case PhysicalType::kDouble:
      return std::bit_cast<uint64_t>(a.double_value()) ==
             std::bit_cast<uint64_t>(b.double_value());
    case PhysicalType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

bool IsCommutative(ArithOp op) {
  return op == ArithOp::kAdd || op == ArithOp::kMul;
}

/// Sorted (optionally deduplicated) hashes of children[from..].
std::vector<uint64_t> SortedChildHashes(const Expr& e, size_t from,
                                        bool dedupe) {
  std::vector<uint64_t> hs;
  hs.reserve(e.children().size() - from);
  for (size_t i = from; i < e.children().size(); ++i) {
    hs.push_back(e.child(i)->hash());
  }
  std::sort(hs.begin(), hs.end());
  if (dedupe) hs.erase(std::unique(hs.begin(), hs.end()), hs.end());
  return hs;
}

uint64_t ComputeHash(const Expr& e) {
  uint64_t h = HashCombine(static_cast<uint64_t>(e.kind()) + 1,
                           static_cast<uint64_t>(e.type()));
  switch (e.kind()) {
    case ExprKind::kColumnRef:
      return HashCombine(h, static_cast<uint64_t>(e.column_id()));
    case ExprKind::kLiteral:
      return HashCombine(h, HashLiteral(e.literal()));
    case ExprKind::kCompare: {
      // Orient by operand hash, flipping the operator with the operands. On
      // a tie either orientation is canonical, so hash the smaller operator
      // of the pair; equality then tries both orientations.
      uint64_t l = e.child(0)->hash();
      uint64_t r = e.child(1)->hash();
      CompareOp op = e.compare_op();
      if (r < l) {
        std::swap(l, r);
        op = FlipCompare(op);
      } else if (l == r) {
        op = std::min(op, FlipCompare(op));
      }
      h = HashCombine(h, static_cast<uint64_t>(op));
      return HashCombine(HashCombine(h, l), r);
    }
    case ExprKind::kArith: {
      uint64_t l = e.child(0)->hash();
      uint64_t r = e.child(1)->hash();
      if (IsCommutative(e.arith_op()) && r < l) std::swap(l, r);
      h = HashCombine(h, static_cast<uint64_t>(e.arith_op()));
      return HashCombine(HashCombine(h, l), r);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (uint64_t c : SortedChildHashes(e, 0, /*dedupe=*/true)) {
        h = HashCombine(h, c);
      }
      return h;
    case ExprKind::kInList:
      h = HashCombine(h, e.child(0)->hash());
      for (uint64_t c : SortedChildHashes(e, 1, /*dedupe=*/false)) {
        h = HashCombine(h, c);
      }
      return h;
    case ExprKind::kNot:
    case ExprKind::kIsNull:
    case ExprKind::kCase:
      for (const ExprPtr& c : e.children()) h = HashCombine(h, c->hash());
      return h;
  }
  return h;
}

// --- Structural equality -----------------------------------------------------

/// Every member of `xs` has an equivalent member in `ys`.
bool Covers(const std::vector<ExprPtr>& xs, size_t x_from,
            const std::vector<ExprPtr>& ys, size_t y_from) {
  for (size_t i = x_from; i < xs.size(); ++i) {
    bool found = false;
    for (size_t j = y_from; j < ys.size() && !found; ++j) {
      found = ExprEquivalent(xs[i], ys[j]);
    }
    if (!found) return false;
  }
  return true;
}

/// Set equality of children[from..] (AND/OR operands, IN items). The
/// in-order check settles the common case of identically ordered operands
/// in one pass; unequal hashes make each failed probe O(1).
bool SameChildSet(const Expr& a, const Expr& b, size_t from) {
  const auto& xs = a.children();
  const auto& ys = b.children();
  if (xs.size() == ys.size()) {
    bool in_order = true;
    for (size_t i = from; i < xs.size() && in_order; ++i) {
      in_order = ExprEquivalent(xs[i], ys[i]);
    }
    if (in_order) return true;
  }
  return Covers(xs, from, ys, from) && Covers(ys, from, xs, from);
}

bool SameChildren(const Expr& a, const Expr& b) {
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!ExprEquivalent(a.child(i), b.child(i))) return false;
  }
  return true;
}

/// Exact comparison of two nodes under the canonical rules (hashes already
/// known equal).
bool StructurallyEqual(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind() || a.type() != b.type()) return false;
  switch (a.kind()) {
    case ExprKind::kColumnRef:
      return a.column_id() == b.column_id();
    case ExprKind::kLiteral:
      return SameLiteral(a.literal(), b.literal());
    case ExprKind::kCompare: {
      if (a.compare_op() == b.compare_op() &&
          ExprEquivalent(a.child(0), b.child(0)) &&
          ExprEquivalent(a.child(1), b.child(1))) {
        return true;
      }
      return FlipCompare(a.compare_op()) == b.compare_op() &&
             ExprEquivalent(a.child(0), b.child(1)) &&
             ExprEquivalent(a.child(1), b.child(0));
    }
    case ExprKind::kArith: {
      if (a.arith_op() != b.arith_op()) return false;
      if (ExprEquivalent(a.child(0), b.child(0)) &&
          ExprEquivalent(a.child(1), b.child(1))) {
        return true;
      }
      return IsCommutative(a.arith_op()) &&
             ExprEquivalent(a.child(0), b.child(1)) &&
             ExprEquivalent(a.child(1), b.child(0));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
      return SameChildSet(a, b, 0);
    case ExprKind::kInList:
      return ExprEquivalent(a.child(0), b.child(0)) && SameChildSet(a, b, 1);
    case ExprKind::kNot:
    case ExprKind::kIsNull:
    case ExprKind::kCase:
      return SameChildren(a, b);
  }
  return false;
}

}  // namespace

ExprPtr Expr::Seal(std::shared_ptr<Expr> e) {
  e->hash_ = ComputeHash(*e);
  return e;
}

bool ExprEquivalent(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->hash() != b->hash()) return false;
  return StructurallyEqual(*a, *b);
}

void CollectColumns(const ExprPtr& expr, std::vector<ColumnId>* out) {
  if (expr->kind() == ExprKind::kColumnRef) {
    out->push_back(expr->column_id());
    return;
  }
  for (const ExprPtr& c : expr->children()) CollectColumns(c, out);
}

bool IsConstantExpr(const ExprPtr& expr) {
  std::vector<ColumnId> cols;
  CollectColumns(expr, &cols);
  return cols.empty();
}

}  // namespace fusiondb
