// SessionManager: the concurrent query-session layer (DESIGN.md §12).
//
// Many clients submit plans; the manager collects concurrent arrivals over
// a small admission window, renumbers each plan into one shared id space,
// optimizes it, and groups structurally compatible plans by fingerprint
// signature. Each candidate group is folded through Fuse() across plans
// (fusion/fuse_across.h); a group shares only when its fused plan's static
// scan bytes are below the sum of its members' (exec/executor.h ScanBytes,
// recorded as a CostDecision); groups that share execute exactly once through the fan-out executor
// (exec/fanout.h) with each session's rows restored by its compensating
// filter/projection and routed back to the owning session.
//
// Plan surgery (renumber, optimize, group, fold, verdicts) runs on one
// coordinating thread; the batch's executions then run concurrently on a
// worker pool the manager owns, with that thread as one of the workers.
//
// All execution inside the server goes through ExecuteFanOut — including
// solo queries, which run as a single passthrough consumer — so shared and
// isolated paths cannot drift (tools/lint.sh bans ExecutePlan here).
//
// Two submission paths share the batch pipeline:
//   - Submit(): thread-safe, non-blocking; a background coordinator thread
//     closes the admission window and processes the batch.
//   - SubmitBatch(): synchronous and deterministic (no timing); used by
//     tests and benches to exercise exact batch compositions.
#ifndef FUSIONDB_SERVER_SESSION_MANAGER_H_
#define FUSIONDB_SERVER_SESSION_MANAGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/semantic_ledger.h"
#include "exec/fanout.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/optimizer_trace.h"
#include "obs/query_log.h"
#include "optimizer/optimizer.h"
#include "plan/multi_plan.h"
#include "server/query_session.h"

namespace fusiondb {

/// How long the server holds an arriving query open for companions. A
/// larger window finds more sharing; a window (or batch cap) of 1 disables
/// sharing entirely — every query runs solo.
struct AdmissionWindow {
  int64_t window_ms = 2;  // wait this long after the first arrival
  size_t max_batch = 64;  // close early once this many queries arrived
};

struct ServerOptions {
  AdmissionWindow window;

  /// Per-session optimization configuration (mode baseline/fused/
  /// spooling). Cross-query sharing is orthogonal to the within-plan mode:
  /// plans are optimized first, then fused across sessions.
  OptimizerOptions optimizer;

  /// Execution knobs for every batch execution (shared or solo).
  ExecOptions exec;

  /// Master switch for cross-query sharing. Off: every session runs solo
  /// (the isolated baseline the benches compare against).
  bool enable_sharing = true;

  /// Optional trace (not owned; must outlive the manager). Receives the
  /// per-session optimizer phases and the cross-query CostDecisions.
  OptimizerTrace* trace = nullptr;

  /// Optional service metrics registry (not owned; must outlive the
  /// manager). When set, the manager records the `fusiondb_server_*`
  /// catalog (DESIGN.md §9.4) — queue-wait/plan/execute latency
  /// histograms, batch occupancy, shared-vs-solo session counts, billed
  /// and static bytes — and wires the registry into the optimizer context
  /// and, unless `exec.metrics` is already set, into batch execution.
  MetricsRegistry* metrics = nullptr;

  /// Optional structured query log (not owned; must outlive the manager).
  /// One JSONL event per successfully completed session; sessions crossing
  /// the log's slow threshold auto-capture a full QueryProfile JSON next
  /// to the log file.
  QueryLog* query_log = nullptr;

  /// Label recorded as `mode` in query-log events ("baseline", "fused",
  /// "spooling"). Informational only.
  std::string mode_label;
};

/// One session's slice of a batch, for reports and JSON export.
struct SessionAttribution {
  uint64_t session_id = 0;
  uint64_t group_fingerprint = 0;  // executed plan's fingerprint
  int consumers = 1;               // group size (1 == solo)
  int64_t attributed_bytes_scanned = 0;
  int64_t rows = 0;
};

/// What one admission batch did: how many sessions shared and the bytes
/// it read, each kind compared only with its own kind. Billed bytes are
/// what the executions decoded; static bytes are what plans' own pruning
/// admits (ScanBytes). The saving from sharing is `isolated_static_bytes -
/// static_bytes`, the figures the share-vs-solo verdicts compare.
/// Counters cover the sessions that executed; `sessions` counts all.
struct BatchReport {
  size_t sessions = 0;
  size_t shared_groups = 0;    // fused groups of >= 2 that executed once
  size_t shared_sessions = 0;  // sessions served from those groups
  size_t solo_sessions = 0;
  int64_t bytes_scanned = 0;          // billed, whole batch
  int64_t static_bytes = 0;           // Σ executed plans' static bytes
  int64_t isolated_static_bytes = 0;  // Σ sessions' own plans' static bytes
  std::vector<CostDecision> decisions;  // one per group of >= 2 sessions
  std::vector<SessionAttribution> attributions;
};

class SessionManager {
 public:
  explicit SessionManager(ServerOptions options = ServerOptions());
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Enqueues `plan` (from any PlanContext) and returns its session. The
  /// coordinator thread starts lazily on first use. Thread-safe.
  SessionPtr Submit(PlanPtr plan);

  /// Submit + Wait: the one-call form for callers without concurrency.
  /// (Returns a copy; hold the SessionPtr from Submit to avoid it.)
  Result<QueryResult> ExecuteSync(PlanPtr plan);

  /// Processes `plans` synchronously as admission batches of at most
  /// `window.max_batch` (arrival order preserved), with no timing
  /// dependence: the calling thread plans each batch and runs its
  /// executions together with the manager's worker pool. Returns the
  /// (already fulfilled) sessions.
  std::vector<SessionPtr> SubmitBatch(const std::vector<PlanPtr>& plans);

  /// Stops the coordinator after draining already-submitted queries.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Report of the most recently completed batch.
  BatchReport last_batch_report() const;

  /// Cumulative across all batches since construction.
  int64_t total_queries() const;
  int64_t total_bytes_scanned() const;
  int64_t total_static_bytes() const;
  int64_t total_isolated_static_bytes() const;
  int64_t total_shared_sessions() const;

  const ServerOptions& options() const { return options_; }

 private:
  struct Group;      // one cross-plan candidate group (session_manager.cc)
  struct Execution;  // one decided ExecuteFanOut run (session_manager.cc)

  /// Runs one admission batch end to end: renumber -> optimize -> group ->
  /// decide, all on the calling thread, then the executions concurrently
  /// on pool_ -> fulfill sessions. Serialized by batch_mu_; the master
  /// PlanContext and the trace are only touched by the serial steps.
  void ProcessBatch(const std::vector<SessionPtr>& sessions);

  /// The serial decide step for one group: the share-vs-solo verdict
  /// (shared when it has >= 2 members and its fused plan reads fewer static
  /// scan bytes than they do), recorded in the trace, metrics and `report`,
  /// and the executions it implies (one shared, or one per member) appended
  /// to `out`.
  void DecideGroup(Group* group, BatchReport* report,
                   std::vector<Execution>* out);

  /// The concurrent run step: executes one decided execution and fulfills
  /// its sessions (with the error, when it fails). Writes only `part`, the
  /// execution's own slice of the batch report.
  void RunExecution(Execution* execution, int64_t plan_us, BatchReport* part);

  /// Post-fulfillment telemetry for one successfully executed session:
  /// latency histograms and sharing counters into the registry, one query
  /// log event, and the slow-query profile capture. `decisions`/`shared`
  /// describe the group's share-vs-solo verdicts.
  void FinishSession(const SessionPtr& session, const SessionSharing& sharing,
                     int64_t rows, int32_t decisions, int32_t shared);

  void CoordinatorLoop();
  void EnsureCoordinatorLocked();

  ServerOptions options_;

  /// Metric ids pre-resolved at construction so batch hot paths never take
  /// the registry's registration lock. All invalid when metrics == null
  /// (recording through an invalid id is a no-op).
  struct ServerMetricIds {
    MetricId batches, sessions, shared_groups, shared_sessions, solo_sessions;
    MetricId bytes_scanned, attributed_bytes;        // billed
    MetricId static_bytes, isolated_static_bytes;    // static (ScanBytes)
    MetricId queue_depth;                 // gauge
    MetricId batch_sessions;              // histogram: admission occupancy
    MetricId queue_wait_us, plan_us, execute_us;  // histograms, microseconds
    MetricId session_bytes;               // histogram: attributed bytes
    MetricId decisions_share, decisions_solo;
    MetricId slow_queries, telemetry_errors;
  };
  ServerMetricIds mids_;

  // Runs a batch's executions; ProcessBatch's thread is one more worker.
  // Sized by ExecutionWorkers (session_manager.cc); used only under
  // batch_mu_, so at most one region is active at a time.
  ThreadPool pool_;

  std::mutex batch_mu_;  // serializes ProcessBatch (and thus ctx_)
  PlanContext ctx_;      // master id space; guarded by batch_mu_
  // Semantic-obligation ledger, attached to ctx_ when the semantic tier is
  // on (FUSIONDB_VERIFY_SEMANTICS): the optimizer and the cross-plan fuser
  // record the facts their rewrites rely on, and ProcessBatch re-proves the
  // fold obligations before any group executes. Guarded by batch_mu_.
  SemanticLedger ledger_;
  uint64_t next_session_id_ = 1;  // guarded by queue_mu_

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::vector<SessionPtr> pending_;
  bool stop_ = false;
  bool coordinator_started_ = false;
  std::thread coordinator_;

  mutable std::mutex report_mu_;
  BatchReport last_report_;
  int64_t total_queries_ = 0;
  int64_t total_bytes_scanned_ = 0;
  int64_t total_static_bytes_ = 0;
  int64_t total_isolated_static_bytes_ = 0;
  int64_t total_shared_sessions_ = 0;
};

}  // namespace fusiondb

#endif  // FUSIONDB_SERVER_SESSION_MANAGER_H_
