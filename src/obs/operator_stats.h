// Per-operator runtime statistics — the data layer of the profiling
// subsystem (EXPLAIN ANALYZE, JSON profiles; DESIGN.md §9).
//
// Threading model: identical in spirit to ExecMetrics (exec_context.h).
// Every counter here is written by the *driver* thread only — the thread
// pulling Next() through the operator tree. Parallel regions inside an
// operator (scan morsels, aggregation partials, join builds) never touch
// OperatorStats from workers: they accumulate into ExecMetrics shards, and
// per-operator memory is attributed by the owning operator on the driver
// thread once, after the region has merged. Plain int64 counters are
// therefore thread-count-invariant and TSan-clean by construction, and
// timers fire only at chunk granularity (one steady_clock read pair per
// Next() call), keeping the always-on overhead negligible.
//
// This header is intentionally link-free (header-only) so fusiondb_exec can
// fill stats without depending on the fusiondb_obs rendering library.
#ifndef FUSIONDB_OBS_OPERATOR_STATS_H_
#define FUSIONDB_OBS_OPERATOR_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fusiondb {

/// Monotonic wall clock in nanoseconds. The single timing authority for
/// execution code: src/exec must not use std::chrono directly (enforced by
/// tools/lint.sh), so every measurement flows through one clock.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One executed operator's runtime counters. Slots live in ExecContext and
/// are keyed by a stable operator id: the preorder index of the operator's
/// logical plan node in the executed plan (root = 0). The same preorder walk
/// of the plan therefore maps ids back to plan nodes with no side table.
struct OperatorStats {
  int32_t id = -1;      // preorder index in the executed plan
  int32_t parent = -1;  // parent's id; -1 for the root
  std::string kind;     // OpKindName of the logical node
  std::string detail;   // kind-specific context (table name, join type, ...)
  // Compiled-pipeline membership: index into the query's PipelineRecords
  // when this operator was fused into a compiled pipeline, -1 otherwise.
  // Fused interior operators keep their preorder slot (zero counters) so
  // the id ↔ plan-node mapping survives compilation.
  int32_t pipeline = -1;

  // Driver-thread counters, updated once per Next() call.
  int64_t next_calls = 0;
  int64_t chunks_out = 0;
  int64_t rows_out = 0;
  int64_t open_ns = 0;   // building this operator and its subtree
  int64_t next_ns = 0;   // cumulative time inside Next(), children included
  int64_t close_ns = 0;  // tearing down this operator and its subtree

  // Blocking-operator extras: peak accounted hash/buffer memory, and for
  // spool reads, how many consumers were served from an already-built
  // buffer (the spool-hit count) vs how many had to build it (the miss).
  int64_t peak_memory_bytes = 0;
  int64_t spool_hits = 0;
  int64_t spool_builds = 0;

  // Scan-only: bytes this scan decoded, attributed on the driver thread
  // (serial scans inline, parallel scans once after their region merges) so
  // per-table service counters can be derived from the slot's detail; the
  // partitions it skipped (static and runtime), and those only a runtime
  // join filter skipped with their bytes (as in ExecMetrics).
  int64_t bytes_scanned = 0;
  int64_t partitions_pruned = 0;
  int64_t runtime_pruned_partitions = 0;
  int64_t runtime_pruned_bytes = 0;

  // Derived at finalize time from the parent links (never updated live).
  int64_t chunks_in = 0;
  int64_t rows_in = 0;
  int64_t self_ns = 0;  // next_ns minus the timed descendants' next_ns
};

/// Fills the derived fields of a preorder-indexed stats vector: each
/// operator's input counters are the sum of its children's outputs, and
/// self time is cumulative time minus the time of the nearest timed
/// operators below it (clamped at zero against clock jitter). A compiled
/// pipeline's interior slots are never timed (the pipeline root's timer
/// covers the whole chain), so they pass their children's time up instead
/// of their own zero. Parents precede children in preorder, so a single
/// reverse-order pass needs no recursion.
inline void FinalizeOperatorStats(std::vector<OperatorStats>* stats) {
  std::vector<int64_t> timed_below(stats->size(), 0);
  for (OperatorStats& s : *stats) {
    s.chunks_in = 0;
    s.rows_in = 0;
  }
  for (size_t i = stats->size(); i-- > 0;) {
    OperatorStats& s = (*stats)[i];
    bool untimed = s.parent >= 0 && s.pipeline >= 0 &&
                   (*stats)[static_cast<size_t>(s.parent)].pipeline ==
                       s.pipeline;
    s.self_ns =
        untimed ? 0 : std::max<int64_t>(s.next_ns - timed_below[i], 0);
    if (s.parent < 0) continue;
    OperatorStats& p = (*stats)[static_cast<size_t>(s.parent)];
    p.chunks_in += s.chunks_out;
    p.rows_in += s.rows_out;
    timed_below[static_cast<size_t>(s.parent)] +=
        untimed ? timed_below[i] : s.next_ns;
  }
}

}  // namespace fusiondb

#endif  // FUSIONDB_OBS_OPERATOR_STATS_H_
