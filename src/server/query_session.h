// QuerySession: one in-flight query submitted to the SessionManager.
//
// A session is the routing endpoint of cross-query fusion: the submitter
// keeps the SessionPtr, the server batches the plan with other sessions'
// plans, and whichever execution ends up computing the query — shared
// fused plan or solo run — fulfills the session with its own rows. Wait()
// blocks until then.
//
// Sessions are created only by SessionManager (Submit / SubmitBatch); the
// submitted plan may come from any PlanContext — the server renumbers it
// into its own id space before comparing or fusing (plan/multi_plan.h).
#ifndef FUSIONDB_SERVER_QUERY_SESSION_H_
#define FUSIONDB_SERVER_QUERY_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "exec/query_result.h"
#include "obs/operator_stats.h"
#include "obs/profile.h"
#include "plan/logical_plan.h"

namespace fusiondb {

class QuerySession {
 public:
  uint64_t id() const { return id_; }

  /// The plan as submitted (original ids). The session's result schema
  /// reproduces this plan's root schema exactly — ids, names, types —
  /// whether the query ran shared or solo.
  const PlanPtr& plan() const { return plan_; }

  /// Blocks until the batch containing this session has executed. The
  /// reference stays valid (and immutable) for the session's lifetime.
  const Result<QueryResult>& Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    return result_;
  }

  /// Non-blocking completion check.
  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  /// The result without blocking; callable only after done().
  const Result<QueryResult>& result() const {
    std::lock_guard<std::mutex> lock(mu_);
    FUSIONDB_CHECK(done_, "QuerySession::result() before completion");
    return result_;
  }

  // --- post-completion attribution (valid after Wait() returns) ----------

  /// True when the query was served from a shared fused execution.
  bool shared() const { return sharing_.consumers > 1; }

  /// The plan that actually executed (the fused group plan when shared,
  /// the session's own optimized plan when solo).
  const PlanPtr& executed_plan() const { return executed_plan_; }

  /// Shared-vs-isolated accounting for this session (obs/profile.h);
  /// `consumers == 1` for solo runs.
  const SessionSharing& sharing() const { return sharing_; }

  /// Latency breakdown (service telemetry, DESIGN.md §9.5), valid after
  /// Wait() returns: time from submission to the start of the session's
  /// execution, the part of it the batch spent planning, and the
  /// execution's wall time (SessionSharing documents each).
  int64_t queue_wait_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sharing_.queue_wait_us;
  }
  int64_t plan_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sharing_.plan_us;
  }
  int64_t execute_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sharing_.execute_us;
  }

  /// NowNanos() at submission (set at construction; immutable).
  int64_t submitted_ns() const { return submitted_ns_; }

 private:
  friend class SessionManager;

  QuerySession(uint64_t id, PlanPtr plan)
      : id_(id), plan_(std::move(plan)), submitted_ns_(NowNanos()) {}

  void Fulfill(Result<QueryResult> result, PlanPtr executed_plan,
               SessionSharing sharing) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      result_ = std::move(result);
      executed_plan_ = std::move(executed_plan);
      sharing_ = sharing;
      done_ = true;
    }
    cv_.notify_all();
  }

  const uint64_t id_;
  const PlanPtr plan_;
  const int64_t submitted_ns_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Result<QueryResult> result_{Status::ExecutionError("session pending")};
  PlanPtr executed_plan_;
  SessionSharing sharing_;
};

using SessionPtr = std::shared_ptr<QuerySession>;

/// Profile of a completed session: the executed plan with the shared
/// execution's stats, plus the sharing attribution block. `session` must
/// have completed successfully.
QueryProfile MakeSessionProfile(const QuerySession& session, std::string query,
                                std::string config);

}  // namespace fusiondb

#endif  // FUSIONDB_SERVER_QUERY_SESSION_H_
