// Expression simplification: constant folding, AND/OR flattening and
// deduplication, absorption and boolean identities. The paper relies on it
// to collapse `C1 OR M(C2)` when both filters are equivalent (III.B).
// Interval reasoning over conjuncts (contradiction, implication, partition
// pruning) lives in one place, the column-domain lattice of
// analysis/plan_props.h.
#ifndef FUSIONDB_EXPR_SIMPLIFIER_H_
#define FUSIONDB_EXPR_SIMPLIFIER_H_

#include "expr/expr.h"

namespace fusiondb {

/// Returns a simplified, semantically equivalent expression. Idempotent.
ExprPtr Simplify(const ExprPtr& expr);

/// True when the expression is literally TRUE.
inline bool IsTrueLiteral(const ExprPtr& expr) {
  return expr != nullptr && expr->IsLiteralBool(true);
}

/// Conjunction of `a` and `b` with TRUE absorption and flattening.
ExprPtr MakeConjunction(const ExprPtr& a, const ExprPtr& b);

/// Splits a predicate into its top-level conjuncts.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// Rebuilds a conjunction from conjuncts (TRUE for empty).
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

}  // namespace fusiondb

#endif  // FUSIONDB_EXPR_SIMPLIFIER_H_
