// SpoolCommonSubexpressions: the materialization-based alternative the
// paper compares fusion against. Pairs of *identical* (exactly fusable)
// subtrees are replaced by a shared, spooled instance; the second consumer
// reads the spool through a renaming projection.
//
// Scope mirrors what a production spooler would attempt: only non-trivial
// subtrees (more than a bare scan) and only when fusion is exact — spooling
// cannot compensate differing results, that is fusion's job. Instances are
// paired greedily, which covers the benchmark's duplicated CTEs.
#ifndef FUSIONDB_OPTIMIZER_SPOOL_RULE_H_
#define FUSIONDB_OPTIMIZER_SPOOL_RULE_H_

#include "common/status.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// Rewrites duplicated subtrees of `plan` onto shared spools: every
/// shareable duplicate is spooled. Returns the input unchanged when nothing
/// qualifies.
Result<PlanPtr> SpoolCommonSubexpressions(const PlanPtr& plan,
                                          PlanContext* ctx);

}  // namespace fusiondb

#endif  // FUSIONDB_OPTIMIZER_SPOOL_RULE_H_
