// Fan-out execution: run one plan, route its output to N consumers.
//
// This is the execution half of cross-query fusion (fusion/fuse_across.h):
// the shared fused plan executes exactly once — one scan, one set of hash
// tables, one pass of morsel parallelism — and each consumer's rows are
// restored on the driver thread by applying its compensating filter and
// reading its columns through its mapping:
//
//   consumer_i = Project_{columns_i}( Filter_{filter_i}(shared output) )
//
// Restoration uses the vectorized expression layer directly (EvalFilter
// selection vectors + EvalAll/EvalSel) rather than wrapping each consumer
// in a plan: the shared stream is already in memory, and binding the
// compensations once against the root schema avoids N plan builds.
//
// Threading: all Next() pulls happen on the calling (driver) thread —
// parallelism lives inside operators — so fan-out adds no cross-thread
// communication and is TSan-clean by construction.
//
// This is the engine's only drain loop: ExecutePlan is ExecuteFanOut with
// one FanOutConsumer::Passthrough consumer, and src/server routes *all*
// execution through this entry point, so shared and solo queries take one
// code path.
#ifndef FUSIONDB_EXEC_FANOUT_H_
#define FUSIONDB_EXEC_FANOUT_H_

#include <vector>

#include "exec/executor.h"

namespace fusiondb {

/// One consumer of a fan-out execution. `filter` (nullptr == keep all
/// rows) and every column expression are evaluated against the executed
/// plan's root schema; `columns[i]` defines output column i (its id/name
/// label the consumer's result schema and are otherwise unconstrained).
struct FanOutConsumer {
  ExprPtr filter;
  std::vector<NamedExpr> columns;

  /// The consumer that reproduces `schema` verbatim from a plan whose root
  /// schema is `schema` (solo execution through the fan-out path).
  static FanOutConsumer Passthrough(const Schema& schema);
};

struct FanOutResult {
  /// Per-consumer results, aligned with the consumers argument. Each
  /// carries the shared execution's metrics and operator stats with only
  /// `rows_produced` rewritten to that consumer's own row count — the
  /// physical work happened once, so summing metrics across consumers
  /// double-counts; use `metrics` below for physical totals.
  std::vector<QueryResult> results;

  /// Metrics and per-operator stats of the single shared execution.
  ExecMetrics metrics;
  std::vector<OperatorStats> operator_stats;
  double wall_ms = 0.0;
};

/// Executes `plan` once and routes every output chunk to all `consumers`
/// (at least one). Fails on malformed plans or compensating expressions
/// that do not bind against the plan's root schema.
Result<FanOutResult> ExecuteFanOut(const PlanPtr& plan,
                                   const std::vector<FanOutConsumer>& consumers,
                                   const ExecOptions& options = ExecOptions());

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_FANOUT_H_
