// Execution knobs. One aggregate struct travels from the entry points
// (ExecutePlan, ExecuteFanOut, the server's session layer) into ExecContext
// via ExecContext::Init, so every operator constructor sees one coherent
// view of chunk_size / parallelism / profiling / metrics — call sites name
// what they change and inherit the rest:
//
//   ExecutePlan(plan);                            // all defaults
//   ExecutePlan(plan, {.parallelism = 4});        // 4-way morsel-driven
//   ExecutePlan(plan, {.profile = false});        // no instrumentation
#ifndef FUSIONDB_EXEC_EXEC_OPTIONS_H_
#define FUSIONDB_EXEC_EXEC_OPTIONS_H_

#include <cstddef>

namespace fusiondb {

class MetricsRegistry;  // obs/metrics.h — recorded into, never rendered here

struct ExecOptions {
  /// Rows per output chunk.
  size_t chunk_size = 4096;

  /// Morsel-driven intra-query parallelism degree:
  ///   1 (default) — the historical single-threaded execution, byte-for-byte;
  ///   0           — auto: std::thread::hardware_concurrency();
  ///   n > 1       — a pool of n-1 workers plus the driver thread. Scans hand
  ///                 out partition morsels, aggregation builds per-worker
  ///                 partial hash tables merged at finalize, and join builds
  ///                 partition the key encoding; results and all additive
  ///                 metrics are thread-count-invariant.
  size_t parallelism = 1;

  /// Per-operator stats collection (OperatorStats slots + chunk-granularity
  /// timers on the driver thread). On by default; the overhead knob exists
  /// so benches can measure the instrumentation cost.
  bool profile = true;

  /// Optional service-level metrics sink (obs/metrics.h). When set, every
  /// completed execution records its query counters — bytes/rows scanned,
  /// per-table scan bytes, spool hits/builds, rows/chunks produced, wall
  /// time — into the registry after the drain. Recording happens once per
  /// query (never per chunk), so always-on cost is a handful of counter
  /// bumps. Null (the default) records nothing.
  MetricsRegistry* metrics = nullptr;
};

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_EXEC_OPTIONS_H_
