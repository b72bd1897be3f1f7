// Value-level scalar semantics shared by the constant folder and the
// reference evaluator's row interpreter (tests/reference_eval.h):
// three-valued SQL semantics for comparisons, arithmetic and boolean logic.
#ifndef FUSIONDB_EXPR_SCALAR_OPS_H_
#define FUSIONDB_EXPR_SCALAR_OPS_H_

#include "common/status.h"
#include "expr/expr.h"
#include "types/value.h"

namespace fusiondb {

/// SQL comparison: NULL operand => NULL result.
Value EvalCompareOp(CompareOp op, const Value& l, const Value& r);

/// SQL arithmetic; `result_type` is the node's declared type. Division by
/// zero yields NULL. NULL operand => NULL.
Value EvalArithOp(ArithOp op, const Value& l, const Value& r,
                  DataType result_type);

/// Kleene AND over a pair (used iteratively for n-ary).
Value EvalAndPair(const Value& l, const Value& r);
Value EvalOrPair(const Value& l, const Value& r);
Value EvalNot(const Value& v);

}  // namespace fusiondb

#endif  // FUSIONDB_EXPR_SCALAR_OPS_H_
