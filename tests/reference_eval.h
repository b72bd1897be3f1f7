// An independent reference evaluator for LogicalOp plans, the oracle the
// executor's differential tests check against (DESIGN.md §13).
//
// It evaluates a plan one row at a time over boxed Values and shares no
// code with src/exec or the vectorized expression evaluator: scans decode
// every partition with DecodeColumn (pruning none: partition pruning only
// skips rows the Filter above a scan drops anyway), expressions go through its own
// interpreter (RowExpr, below) on the Value-level semantics of
// expr/scalar_ops.h, joins match equi-conjuncts through a std::map on key
// Values under SQL `=` (nested loops otherwise), grouping is sort-based with
// its own accumulators, GROUP BY and window partitions key rows with the
// engine's key identity (ints exact, -0.0 = 0.0, NaN equal only to NaN),
// and Window, Sort, Limit, UnionAll, Values, EnforceSingleRow
// and Spool (which evaluates its child) are written out directly. Apply is an error: plans must be decorrelated first.
//
// Comparison rules (Compare):
//   * rows compare as sorted multisets;
//   * when the plan's root is an ORDER BY (a Sort, or a Limit over one),
//     the engine's rows must also be in key order;
//   * a root LIMIT that cuts through rows tied on the sort keys only
//     requires the engine's rows at the boundary to come from the
//     reference's tied group (any N rows when the limit has no ORDER BY);
//   * FLOAT64 values agree within a relative tolerance of
//     kDoubleTolerance; every other type compares exactly.
#ifndef FUSIONDB_TESTS_REFERENCE_EVAL_H_
#define FUSIONDB_TESTS_REFERENCE_EVAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace fusiondb::reference {

using Row = std::vector<Value>;

/// Relative tolerance for FLOAT64 comparisons: |a - b| <= 1e-9 * max(|a|,
/// |b|). Sums and averages legitimately differ in their last bits when the
/// engine accumulates partials in a different order than the reference.
inline constexpr double kDoubleTolerance = 1e-9;

/// The reference answer for one plan plus the ordering contract its root
/// imposes.
struct Expected {
  /// The plan's rows; for a root LIMIT, the rows of its input (in sort
  /// order when the input is a Sort), before the limit applies.
  std::vector<Row> rows;
  /// Root ORDER BY keys as (output position, ascending); empty otherwise.
  std::vector<std::pair<int, bool>> order;
  /// Root LIMIT, or -1.
  int64_t limit = -1;
};

/// The oracle's expression interpreter: an expression whose column
/// references are resolved, once, to positions in one input schema, then
/// evaluated over one boxed Row at a time with three-valued SQL semantics.
class RowExpr {
 public:
  /// Resolves every column reference in `expr` against `schema`. Fails with
  /// kPlanError when a referenced column is not in scope.
  static Result<RowExpr> Resolve(const ExprPtr& expr, const Schema& schema);

  /// Evaluates against `row`, laid out as the schema it was resolved with.
  Value Eval(const Row& row) const;

 private:
  ExprPtr expr_;
  int position_ = -1;  // column references only
  std::vector<RowExpr> children_;
};

/// Evaluates `plan` row at a time.
Result<std::vector<Row>> Evaluate(const PlanPtr& plan);

/// Evaluates `plan` and records its root's ordering contract.
Result<Expected> EvaluateExpected(const PlanPtr& plan);

/// Checks the engine's output rows (in emission order, columns in the
/// plan's output order) against `expected`. Returns an empty string when
/// they agree, else a description of the first disagreement.
std::string Compare(const Expected& expected,
                    const std::vector<Row>& engine_rows);

}  // namespace fusiondb::reference

#endif  // FUSIONDB_TESTS_REFERENCE_EVAL_H_
