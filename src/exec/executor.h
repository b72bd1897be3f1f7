// Translation of logical plans into physical operator trees, and the
// convenience entry point that drains a plan into a QueryResult.
#ifndef FUSIONDB_EXEC_EXECUTOR_H_
#define FUSIONDB_EXEC_EXECUTOR_H_

#include "exec/exec_options.h"
#include "exec/operator.h"
#include "exec/query_result.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// Builds the physical tree for `plan`. The plan must outlive the returned
/// operators. Fails with kPlanError on malformed/unbound plans, and on
/// ApplyOp (correlated subqueries must be decorrelated first). The context
/// must already be Init()ed with the run's ExecOptions. Every Scan, Filter,
/// Project and Aggregate runs inside a compiled push-based pipeline
/// (exec/pipeline.h).
Result<ExecOperatorPtr> BuildExecutor(const PlanPtr& plan, ExecContext* ctx);

/// The bytes `plan`'s scans read under their static pruning: for every
/// scan, the bytes of its columns in each partition the Filter directly
/// above it admits (morsel_source.h StaticPruneSpec), a spooled subtree
/// counted once as the executor runs it once. It depends only on the plan
/// and the catalog. A run that drains its scans reports it as
/// ExecMetrics::StaticBytes(); its billed bytes_scanned is at most this,
/// since runtime join filters only skip more.
int64_t ScanBytes(const PlanPtr& plan);

/// Records one completed execution into `registry` under the
/// `fusiondb_exec_*` metric catalog (DESIGN.md §9.4). Per-table scan bytes
/// and spool hit/build counters come from the stats slots, so they are only
/// recorded when the run was profiled; the ExecMetrics totals always are.
/// Pipeline records feed fusiondb_exec_pipelines_compiled_total.
/// No-op when `registry` is null.
void RecordExecutionMetrics(MetricsRegistry* registry,
                            const ExecMetrics& metrics,
                            const std::vector<OperatorStats>& op_stats,
                            const std::vector<PipelineRecord>& pipelines,
                            int64_t chunks, double wall_ms);

/// Runs `plan` to completion, collecting all output and metrics. Options
/// are always passed as designated initializers — e.g.
/// `ExecutePlan(plan, {.chunk_size = 1024, .parallelism = 4})` — so a
/// reader never has to count argument positions.
Result<QueryResult> ExecutePlan(const PlanPtr& plan,
                                const ExecOptions& options = ExecOptions());

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_EXECUTOR_H_
