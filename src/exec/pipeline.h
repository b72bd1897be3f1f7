// Push-based compiled pipelines (DESIGN.md §13). At bind time the executor
// splits the plan at pipeline breakers (aggregate build, join build, sort,
// spool materialization, window) and compiles every non-blocking run of
// filter→project(→aggregate-sink) into one pipeline operator: a single loop
// per morsel that chains the filters' selection vectors and evaluates
// composed output expressions through the typed kernels, with no
// intermediate chunk materialization between the fused operators. A chain
// reads from any source — a table scan, or the output chunks of whatever
// operator sits below it — and a bare scan is a pipeline with an empty
// chain, so this is the only executor for Scan, Filter, Project and
// Aggregate.
#ifndef FUSIONDB_EXEC_PIPELINE_H_
#define FUSIONDB_EXEC_PIPELINE_H_

#include <functional>

#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace fusiondb::internal {

/// Builds the operator subtree that feeds a chain: `source` is the plan
/// node below the chain's last Filter/Project, `parent_op_id` the stats
/// slot it hangs under.
using SourceBuilder = std::function<Result<ExecOperatorPtr>(
    const PlanPtr& source, int32_t parent_op_id)>;

/// Compiles the chain rooted at `plan` — a Scan, Filter, Project or
/// Aggregate — into one pipeline operator. The chain is the root plus every
/// Filter/Project directly below it; the node under that is the source. A
/// scan source is read in place; any other source is built through
/// `build_source` *after* the chain's interior stats slots are registered,
/// so operator ids stay in plan preorder. Records one PipelineRecord per
/// chain. Malformed chains (a null or non-boolean predicate, a reference to
/// a column the input lacks, an aggregate without its argument) fail with
/// the Status the plan earns.
///
/// `root_op_id` is the chain root's already-registered stats slot (-1 when
/// profiling is off).
Result<ExecOperatorPtr> CompilePipeline(const PlanPtr& plan, ExecContext* ctx,
                                        int32_t root_op_id,
                                        const SourceBuilder& build_source);

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_PIPELINE_H_
