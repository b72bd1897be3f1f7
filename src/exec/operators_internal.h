// Factory functions for the physical operators that are not compiled
// pipelines (exec/pipeline.h); used only by the executor translation layer
// (executor.cc). Each factory validates and binds the
// corresponding logical operator against its children's schemas, surfacing
// malformed plans as Status errors rather than crashes.
#ifndef FUSIONDB_EXEC_OPERATORS_INTERNAL_H_
#define FUSIONDB_EXEC_OPERATORS_INTERNAL_H_

#include <vector>

#include "exec/operator.h"
#include "plan/logical_plan.h"
#include "plan/spool.h"

namespace fusiondb::internal {

/// Kind-specific context recorded in an operator's stats slot (table name,
/// join type, ...). Defined in executor.cc; the pipeline compiler uses it
/// to register slots for fused operators with the same rendering.
std::string NodeDetail(const LogicalOp& plan);

/// `probe_scans` are the scan sources `left`'s build registered; an inner
/// or semi hash join narrows those its left keys reach once its build is
/// done (DESIGN.md §6.5).
Result<ExecOperatorPtr> MakeJoinExec(const JoinOp& op, ExecOperatorPtr left,
                                     ExecOperatorPtr right,
                                     std::vector<ScanSource> probe_scans,
                                     ExecContext* ctx);
Result<ExecOperatorPtr> MakeWindowExec(const WindowOp& op,
                                       ExecOperatorPtr child, ExecContext* ctx);
Result<ExecOperatorPtr> MakeUnionAllExec(const UnionAllOp& op,
                                         std::vector<ExecOperatorPtr> children);
Result<ExecOperatorPtr> MakeValuesExec(const ValuesOp& op);
Result<ExecOperatorPtr> MakeSortExec(const SortOp& op, ExecOperatorPtr child,
                                     ExecContext* ctx);
Result<ExecOperatorPtr> MakeLimitExec(const LimitOp& op, ExecOperatorPtr child);
Result<ExecOperatorPtr> MakeSingleRowExec(const EnforceSingleRowOp& op,
                                          ExecOperatorPtr child);
Result<ExecOperatorPtr> MakeSpoolExec(const SpoolOp& op, ExecOperatorPtr child,
                                      ExecContext* ctx);

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_OPERATORS_INTERNAL_H_
