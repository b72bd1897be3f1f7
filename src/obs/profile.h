// QueryProfile: the export layer of the profiling subsystem. Bundles the
// executed plan, per-operator runtime stats, global ExecMetrics, wall time
// and (optionally) the optimizer trace, and renders them as EXPLAIN
// ANALYZE text or a JSON document (hand-rolled writer, no dependencies).
#ifndef FUSIONDB_OBS_PROFILE_H_
#define FUSIONDB_OBS_PROFILE_H_

#include <string>
#include <vector>

#include "exec/query_result.h"
#include "obs/operator_stats.h"
#include "obs/optimizer_trace.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// Cross-query sharing attribution for one session's profile (src/server).
/// When a session's query executed as part of a fused group, its metrics
/// and operator stats describe the *shared* execution; this block records
/// how that shared work divides across the group and how long the session
/// waited. Each byte field is named for its kind: `*_bytes_scanned` are
/// billed bytes (what the execution decoded, after runtime join filters),
/// `*_static_bytes` are the bytes a plan's own pruning admits (ScanBytes,
/// exec/executor.h), comparable only with each other.
struct SessionSharing {
  uint64_t session_id = 0;
  uint64_t group_fingerprint = 0;       // executed plan's fingerprint
  int consumers = 0;                    // sessions sharing the execution
  int64_t shared_bytes_scanned = 0;     // billed once for the whole group
  int64_t attributed_bytes_scanned = 0; // this session's share of it
  // Static scan bytes of this session's own optimized plan: what it would
  // read alone before runtime join filters, shared or solo alike.
  int64_t isolated_static_bytes = 0;
  // Server latency breakdown, in microseconds. queue_wait_us runs from
  // submission to the start of the session's execution; plan_us is the
  // part of it its batch spent planning (renumber, optimize, fold,
  // share-vs-solo verdicts), so queue_wait_us - plan_us is time spent
  // waiting for the admission window, an earlier batch or a free worker.
  int64_t queue_wait_us = 0;
  int64_t plan_us = 0;
  int64_t execute_us = 0;  // the execution's wall time
};

struct QueryProfile {
  std::string query;   // label, e.g. the TPC-DS query name
  std::string config;  // optimizer configuration, e.g. "fused"
  PlanPtr plan;        // the executed plan
  std::vector<OperatorStats> operator_stats;  // preorder, aligned with plan
  std::vector<PipelineRecord> pipelines;      // compiled-pipeline outcomes
  ExecMetrics metrics;
  double wall_ms = 0.0;
  const OptimizerTrace* trace = nullptr;  // optional; not owned

  /// Set by the server for session executions; `consumers == 0` (default)
  /// means no sharing block is emitted.
  SessionSharing sharing;
};

/// Assembles a profile from an executed result. `trace` may be null.
QueryProfile MakeQueryProfile(std::string query, std::string config,
                              const PlanPtr& plan, const QueryResult& result,
                              const OptimizerTrace* trace = nullptr);

/// JSON document (schema documented in DESIGN.md §9): query/config/wall_ms,
/// the global metrics object, the plan as a nested operator tree with each
/// node's stats inlined, and the optimizer trace when present.
std::string ProfileToJson(const QueryProfile& profile);

/// ProfileToJson written to `path`; ExecutionError on failure.
Status WriteProfileJson(const QueryProfile& profile, const std::string& path);

/// The plan tree annotated with per-operator runtime stats — the EXPLAIN
/// ANALYZE rendering. Falls back to the plain plan when the result carries
/// no stats (profiling disabled).
std::string ExplainAnalyze(const PlanPtr& plan, const QueryResult& result);

}  // namespace fusiondb

#endif  // FUSIONDB_OBS_PROFILE_H_
