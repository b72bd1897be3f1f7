// Column pruning: narrows scans, projections, aggregates, unions and
// windows to the columns actually consumed upstream. Runs as a dedicated
// top-down pass (a rule sees only one node). Pruning is what makes the
// bytes-scanned comparison meaningful: both the baseline and the fused
// plans read only the columns they need.
#ifndef FUSIONDB_OPTIMIZER_PRUNE_COLUMNS_H_
#define FUSIONDB_OPTIMIZER_PRUNE_COLUMNS_H_

#include "common/status.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// Prunes `plan` so only the columns of `outputs` (and whatever internal
/// operators need) are produced. `outputs` is the query's own output
/// schema: a rewrite may leave a superset schema at the root (the
/// optimizer narrows it afterwards), and its extra columns must not keep
/// their scans wide. Never drops a column another operator still
/// references.
Result<PlanPtr> PruneColumns(const PlanPtr& plan, const Schema& outputs);

}  // namespace fusiondb

#endif  // FUSIONDB_OPTIMIZER_PRUNE_COLUMNS_H_
