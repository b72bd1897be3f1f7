// Scalar expression trees. Expressions are immutable and shared; rewrites
// build new nodes. Column references use plan-wide ColumnIds, so the same
// expression object remains valid anywhere those columns are in scope.
#ifndef FUSIONDB_EXPR_EXPR_H_
#define FUSIONDB_EXPR_EXPR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace fusiondb {

enum class ExprKind : uint8_t {
  kColumnRef,  // a column of the input schema
  kLiteral,    // constant Value
  kCompare,    // binary comparison (3-valued logic)
  kArith,      // binary arithmetic
  kAnd,        // n-ary conjunction (Kleene)
  kOr,         // n-ary disjunction (Kleene)
  kNot,
  kIsNull,   // IS NULL (never NULL itself)
  kCase,     // children: [when1, then1, ..., whenN, thenN, else]
  kInList,   // children: [operand, item1, ..., itemN]
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

/// `l op r` == `r FlipCompare(op) l`.
CompareOp FlipCompare(CompareOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// One expression node. Field validity depends on kind (column_id for
/// kColumnRef, literal for kLiteral, cmp/arith for the binary kinds).
///
/// Every node carries a canonical 64-bit structural hash, computed once by
/// its factory from the kind, type, payload and the children's hashes
/// (DESIGN.md §15). The hash is never written after the factory returns,
/// so any thread reads it without synchronization.
class Expr {
  struct Key {};  // restricts construction to the factories below

 public:
  Expr(Key, ExprKind kind, DataType type) : kind_(kind), type_(type) {}

  ExprKind kind() const { return kind_; }
  DataType type() const { return type_; }

  /// Canonical structural hash: equivalent expressions (ExprEquivalent)
  /// hash equally; unequal hashes prove non-equivalence.
  uint64_t hash() const { return hash_; }

  /// Simplify's memo (expr/simplifier.h): set once Simplify has returned
  /// this very node, so later calls return it without walking the subtree.
  /// Simplify is a pure function of structure, so the mark never goes
  /// stale; it is the one piece of node state written after construction,
  /// hence atomic.
  bool simplified() const {
    return simplified_.load(std::memory_order_relaxed);
  }
  void MarkSimplified() const {
    simplified_.store(true, std::memory_order_relaxed);
  }

  ColumnId column_id() const { return column_id_; }
  const Value& literal() const { return literal_; }
  CompareOp compare_op() const { return cmp_; }
  ArithOp arith_op() const { return arith_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }

  bool IsLiteralBool(bool b) const {
    return kind_ == ExprKind::kLiteral && !literal_.is_null() &&
           literal_.type() == DataType::kBool && literal_.bool_value() == b;
  }
  bool IsLiteralNull() const {
    return kind_ == ExprKind::kLiteral && literal_.is_null();
  }

  /// Human-readable rendering (infix, with column ids).
  std::string ToString() const;

  // --- Node factories (type is computed by the caller / builder). ---
  static ExprPtr MakeColumnRef(ColumnId id, DataType type);
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeCompare(CompareOp op, ExprPtr l, ExprPtr r);
  static ExprPtr MakeArith(ArithOp op, ExprPtr l, ExprPtr r, DataType type);
  static ExprPtr MakeAnd(std::vector<ExprPtr> children);
  static ExprPtr MakeOr(std::vector<ExprPtr> children);
  static ExprPtr MakeNot(ExprPtr child);
  static ExprPtr MakeIsNull(ExprPtr child);
  static ExprPtr MakeCase(std::vector<ExprPtr> children, DataType type);
  static ExprPtr MakeInList(std::vector<ExprPtr> children);

  /// A node of `e`'s kind, type and operator over `children` (as many as
  /// `e` has). Leaves have no children and come back as they are.
  static ExprPtr WithChildren(const ExprPtr& e, std::vector<ExprPtr> children);

 private:
  static std::shared_ptr<Expr> New(ExprKind kind, DataType type) {
    return std::make_shared<Expr>(Key{}, kind, type);
  }
  static ExprPtr Seal(std::shared_ptr<Expr> e);

  ExprKind kind_;
  DataType type_;
  uint64_t hash_ = 0;
  mutable std::atomic<bool> simplified_{false};
  ColumnId column_id_ = kInvalidColumnId;
  Value literal_;
  CompareOp cmp_ = CompareOp::kEq;
  ArithOp arith_ = ArithOp::kAdd;
  std::vector<ExprPtr> children_;
};

/// Structural equivalence under the canonical rules: AND/OR compare as
/// sets of children, comparisons and commutative +/* match in either
/// operand order (a comparison's operator flips with its operands), IN-list
/// items compare as a set, and literals compare by exact value (type plus
/// integer, double bit pattern or string bytes). Pointer-equal or both-null
/// expressions are equivalent; otherwise unequal hashes short-circuit to
/// false before the exact comparison runs. Callers usually Simplify() first
/// for stronger results.
bool ExprEquivalent(const ExprPtr& a, const ExprPtr& b);

/// Hash/equality functors keying unordered containers by structural
/// identity (null keys allowed).
struct ExprHash {
  size_t operator()(const ExprPtr& e) const {
    return e == nullptr ? 0 : static_cast<size_t>(e->hash());
  }
};
struct ExprEq {
  bool operator()(const ExprPtr& a, const ExprPtr& b) const {
    return ExprEquivalent(a, b);
  }
};

// --- Structural hash primitives ---------------------------------------------
// The building blocks of Expr::hash(), shared with PlanFingerprint
// (plan/plan_fingerprint.h) so plans and expressions hash one way; literals
// hash only through Expr::MakeLiteral. Stable across processes: never
// std::hash, whose values are unspecified.

/// Order-sensitive fold of `v` into `h` (SplitMix64 avalanche).
uint64_t HashCombine(uint64_t h, uint64_t v);

/// FNV-1a over the bytes of `s`.
uint64_t HashBytes(std::string_view s);

/// Adds every ColumnId referenced by `expr` to `out`.
void CollectColumns(const ExprPtr& expr, std::vector<ColumnId>* out);

/// True if expression references no columns at all.
bool IsConstantExpr(const ExprPtr& expr);

}  // namespace fusiondb

#endif  // FUSIONDB_EXPR_EXPR_H_
