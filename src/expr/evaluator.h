// Expression evaluation over chunks, the engine's only expression
// evaluator. Expressions are bound once against an input Schema (resolving
// ColumnIds to positions and specializing each compare/arith node to a
// typed kernel), then evaluated column-at-a-time. Predicates evaluate as
// selection vectors: a filter narrows the set of surviving row indexes
// instead of materializing boolean columns, so AND chains short-circuit
// across the whole chunk and downstream operators only touch surviving
// rows. Join residuals run here too, over a chunk gathered from a batch of
// candidate pairs (exec/join_exec.cc).
//
// There is no row-at-a-time path. The differential tests' oracle has its
// own interpreter over boxed Values (tests/reference_eval.h), sharing only
// the Value-level semantics of expr/scalar_ops.h.
#ifndef FUSIONDB_EXPR_EVALUATOR_H_
#define FUSIONDB_EXPR_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "types/chunk.h"
#include "types/sel_vector.h"

namespace fusiondb {

/// An expression whose column references are resolved to positions within a
/// specific input schema, and whose compare/arith nodes carry kernels
/// specialized at bind time on operand physical types and shape
/// (column⊕column, column⊕literal).
class BoundExpr {
 public:
  DataType type() const { return type_; }

  /// Evaluates for all rows, producing a column of this expression's type.
  Column EvalAll(const Chunk& input) const;

  /// Evaluates only the selected rows, producing a dense column of
  /// sel.size() values (result row i corresponds to input row sel[i]).
  Column EvalSel(const Chunk& input, const SelVector& sel) const;

  /// Predicate form: the indexes of rows where this expression is TRUE
  /// (not NULL, not FALSE), ascending.
  SelVector EvalFilter(const Chunk& input) const;

  /// In-place predicate form: narrows `sel` to the subset of its rows where
  /// this expression is TRUE. Conjunct chains call this in sequence so each
  /// successive predicate only visits survivors.
  void NarrowFilter(const Chunk& input, SelVector* sel) const;

 private:
  friend Result<BoundExpr> BindExpr(const ExprPtr& expr, const Schema& schema);
  struct Kernels;
  friend struct Kernels;

  /// Kernel signatures. A filter kernel narrows a selection in place; a
  /// compute kernel produces a dense column over `sel` (or over every row
  /// when `sel` is null). Chosen once at bind time, so the hot loop runs
  /// without per-row dispatch on expression kind or operand type.
  using FilterFn = void (*)(const BoundExpr&, const Chunk&, SelVector*);
  using ComputeFn = Column (*)(const BoundExpr&, const Chunk&,
                               const SelVector*);

  /// Installs typed kernels for compare/arith nodes whose operands are
  /// column references or literals of kernel-supported physical types.
  void SpecializeKernels();
  /// The IN kernels' bind step: an IN over a column operand and literal
  /// items keeps the items' values sorted, by the operand's class.
  void SpecializeIn();

  Column EvalInternal(const Chunk& input, const SelVector* sel) const;
  void NarrowInternal(const Chunk& input, SelVector* sel) const;

  ExprKind kind_ = ExprKind::kLiteral;
  DataType type_ = DataType::kInt64;
  int column_index_ = -1;
  Value literal_;
  CompareOp cmp_ = CompareOp::kEq;
  ArithOp arith_ = ArithOp::kAdd;
  std::vector<BoundExpr> children_;
  // IN over literals (SpecializeIn): the non-NULL items of the operand's
  // class, sorted, and whether any item is NULL. Shared, so a bound
  // expression stays small to copy and to walk.
  struct InItems {
    std::vector<double> numbers;
    std::vector<std::string> strings;
    bool has_null = false;
  };
  std::shared_ptr<const InItems> in_items_;
  FilterFn filter_fn_ = nullptr;
  ComputeFn compute_fn_ = nullptr;
};

/// Resolves every column reference in `expr` against `schema`. Fails with
/// kPlanError when a referenced column is not in scope — this is the
/// executor's defense against malformed plans.
Result<BoundExpr> BindExpr(const ExprPtr& expr, const Schema& schema);

}  // namespace fusiondb

#endif  // FUSIONDB_EXPR_EVALUATOR_H_
