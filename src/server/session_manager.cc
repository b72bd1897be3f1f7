#include "server/session_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#include "analysis/semantic_verifier.h"
#include "exec/executor.h"
#include "fusion/fuse_across.h"
#include "plan/plan_fingerprint.h"

namespace fusiondb {

/// One candidate group: the incremental cross-plan fuser plus which
/// sessions it serves. `consumer` indexes into the fuser's consumer list.
struct SessionManager::Group {
  explicit Group(PlanContext* ctx) : fuser(ctx) {}

  CrossPlanFuser fuser;
  struct Member {
    SessionPtr session;
    ColumnMap renumber;  // session's original ids -> master-context ids
    size_t consumer;     // index into fuser consumers/members
  };
  std::vector<Member> members;
};

SessionManager::SessionManager(ServerOptions options)
    : options_(std::move(options)) {
  if (options_.window.max_batch < 1) options_.window.max_batch = 1;
  ctx_.set_trace(options_.trace);
  if (SemanticVerificationEnabled()) ctx_.set_semantics(&ledger_);
  if (MetricsRegistry* r = options_.metrics) {
    // The optimizer and (unless the caller wired its own sink) the batch
    // executor record into the same registry as the server counters.
    ctx_.set_metrics(r);
    if (options_.exec.metrics == nullptr) options_.exec.metrics = r;
    mids_.batches = r->Counter("fusiondb_server_batches_total");
    mids_.sessions = r->Counter("fusiondb_server_sessions_total");
    mids_.shared_groups = r->Counter("fusiondb_server_shared_groups_total");
    mids_.shared_sessions = r->Counter("fusiondb_server_shared_sessions_total");
    mids_.solo_sessions = r->Counter("fusiondb_server_solo_sessions_total");
    mids_.bytes_scanned = r->Counter("fusiondb_server_bytes_scanned_total");
    mids_.attributed_bytes =
        r->Counter("fusiondb_server_attributed_bytes_total");
    mids_.isolated_bytes = r->Counter("fusiondb_server_isolated_bytes_total");
    mids_.queue_depth = r->Gauge("fusiondb_server_queue_depth");
    mids_.batch_sessions = r->Histogram("fusiondb_server_batch_sessions");
    mids_.queue_wait_us = r->Histogram("fusiondb_server_queue_wait_us");
    mids_.execute_us = r->Histogram("fusiondb_server_execute_us");
    mids_.session_bytes =
        r->Histogram("fusiondb_server_session_bytes_scanned");
    mids_.decisions_share =
        r->Counter("fusiondb_cost_decisions_total{verdict=\"share\"}");
    mids_.decisions_solo =
        r->Counter("fusiondb_cost_decisions_total{verdict=\"solo\"}");
    mids_.slow_queries = r->Counter("fusiondb_server_slow_queries_total");
    mids_.telemetry_errors =
        r->Counter("fusiondb_server_telemetry_errors_total");
  }
}

SessionManager::~SessionManager() { Stop(); }

SessionPtr SessionManager::Submit(PlanPtr plan) {
  SessionPtr session;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    session = SessionPtr(
        new QuerySession(next_session_id_++, std::move(plan)));
    if (stop_) {
      session->Fulfill(
          Status::ExecutionError("session manager is stopped"), nullptr, {});
      return session;
    }
    EnsureCoordinatorLocked();
    pending_.push_back(session);
    if (options_.metrics != nullptr) {
      options_.metrics->GaugeSet(mids_.queue_depth,
                                 static_cast<int64_t>(pending_.size()));
    }
  }
  queue_cv_.notify_all();
  return session;
}

Result<QueryResult> SessionManager::ExecuteSync(PlanPtr plan) {
  SessionPtr session = Submit(std::move(plan));
  return session->Wait();
}

std::vector<SessionPtr> SessionManager::SubmitBatch(
    const std::vector<PlanPtr>& plans) {
  std::vector<SessionPtr> sessions;
  sessions.reserve(plans.size());
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (const PlanPtr& plan : plans) {
      sessions.push_back(SessionPtr(new QuerySession(next_session_id_++, plan)));
    }
  }
  for (size_t begin = 0; begin < sessions.size();
       begin += options_.window.max_batch) {
    size_t end = std::min(begin + options_.window.max_batch, sessions.size());
    ProcessBatch({sessions.begin() + static_cast<ptrdiff_t>(begin),
                  sessions.begin() + static_cast<ptrdiff_t>(end)});
  }
  return sessions;
}

void SessionManager::Stop() {
  std::thread coordinator;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
    coordinator = std::move(coordinator_);
  }
  queue_cv_.notify_all();
  if (coordinator.joinable()) coordinator.join();
}

void SessionManager::EnsureCoordinatorLocked() {
  if (coordinator_started_) return;
  coordinator_started_ = true;
  coordinator_ = std::thread([this] { CoordinatorLoop(); });
}

void SessionManager::CoordinatorLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    // The admission window: the first arrival holds the batch open for
    // window_ms so concurrent queries can join; a full batch closes early,
    // and Stop() flushes immediately.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.window.window_ms);
    queue_cv_.wait_until(lock, deadline, [this] {
      return stop_ || pending_.size() >= options_.window.max_batch;
    });
    size_t take = std::min(pending_.size(), options_.window.max_batch);
    std::vector<SessionPtr> batch(
        pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(take));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(take));
    if (options_.metrics != nullptr) {
      options_.metrics->GaugeSet(mids_.queue_depth,
                                 static_cast<int64_t>(pending_.size()));
    }
    lock.unlock();
    ProcessBatch(batch);
    lock.lock();
  }
}

void SessionManager::ProcessBatch(const std::vector<SessionPtr>& sessions) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  BatchReport report;
  report.sessions = sessions.size();
  if (MetricsRegistry* r = options_.metrics) {
    r->Add(mids_.batches, 1);
    r->Add(mids_.sessions, static_cast<int64_t>(sessions.size()));
    r->Record(mids_.batch_sessions, static_cast<int64_t>(sessions.size()));
  }

  // 1. Renumber every submitted plan into the master id space (so plans
  //    from different sessions can be fused) and optimize it under the
  //    configured mode. The optimizer preserves root output columns, so
  //    the renumber mapping keeps naming the optimized root.
  struct Prepared {
    SessionPtr session;
    PlanPtr plan;
    ColumnMap renumber;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(sessions.size());
  Optimizer optimizer(options_.optimizer);
  PlanBundle bundle(&ctx_);
  for (const SessionPtr& session : sessions) {
    size_t idx = bundle.AddRoot(session->plan());
    Result<PlanPtr> optimized = optimizer.Optimize(bundle.root(idx).plan, &ctx_);
    if (!optimized.ok()) {
      session->Fulfill(optimized.status(), nullptr, {});
      continue;
    }
    prepared.push_back(
        {session, *optimized, bundle.root(idx).mapping});
  }

  // 2. Group: fold each plan into the first compatible group (same
  //    structural signature and Fuse succeeds), in arrival order. With
  //    sharing off — or a batch of one — every session forms its own group.
  std::vector<std::unique_ptr<Group>> groups;
  std::unordered_map<std::string, std::vector<Group*>> by_signature;
  bool sharing = options_.enable_sharing && prepared.size() > 1;
  for (Prepared& p : prepared) {
    Group* target = nullptr;
    size_t consumer = 0;
    if (sharing) {
      std::vector<Group*>& bucket = by_signature[PlanSignature(p.plan)];
      for (Group* g : bucket) {
        std::optional<size_t> idx = g->fuser.TryAdd(p.plan);
        if (idx.has_value()) {
          target = g;
          consumer = *idx;
          break;
        }
      }
      if (target == nullptr) {
        groups.push_back(std::make_unique<Group>(&ctx_));
        target = groups.back().get();
        consumer = *target->fuser.TryAdd(p.plan);
        bucket.push_back(target);
      }
    } else {
      groups.push_back(std::make_unique<Group>(&ctx_));
      target = groups.back().get();
      consumer = *target->fuser.TryAdd(p.plan);
    }
    target->members.push_back(
        {std::move(p.session), std::move(p.renumber), consumer});
  }

  // 2b. Semantic tier (FUSIONDB_VERIFY_SEMANTICS): before anything runs,
  //     re-prove the cross-plan folds — the implication obligations the
  //     fuser recorded, each shared group's fused plan, and every member's
  //     restoration (filter well-typed over the fused schema; every output
  //     column reachable through the consumer mapping). A failing group is
  //     fulfilled with the error instead of executing. Obligations are
  //     batch-global (the ledger does not attribute them to a group), so an
  //     obligation failure fails every shared group; solo groups recorded
  //     none and still run.
  if (ctx_.semantics() != nullptr) {
    SemanticVerifier verifier;
    Status obligations =
        verifier.CheckObligations(ctx_.semantics(), "cross-plan fold");
    for (std::unique_ptr<Group>& group : groups) {
      if (group->members.size() < 2) continue;
      Status st = obligations;
      if (st.ok()) st = verifier.Verify(group->fuser.plan(), "cross-plan fold");
      for (const Group::Member& m : group->members) {
        if (!st.ok()) break;
        const CrossConsumer& cc = group->fuser.consumer(m.consumer);
        st = verifier.VerifyConsumer(
            group->fuser.plan(), cc.filter, cc.mapping,
            group->fuser.members()[m.consumer]->schema(), "cross-plan fold");
      }
      if (!st.ok()) {
        for (const Group::Member& m : group->members) {
          m.session->Fulfill(st, nullptr, {});
        }
        group->members.clear();  // ExecuteGroup skips an emptied group
      }
    }
    if (ctx_.trace() != nullptr) {
      ctx_.trace()->RecordSemanticChecks(verifier.plans_verified(),
                                         verifier.props().nodes_derived(),
                                         verifier.obligations_checked());
    }
  }

  // 3. Decide and execute each group, routing results to their sessions.
  for (std::unique_ptr<Group>& group : groups) {
    ExecuteGroup(group.get(), &report);
  }

  {
    std::lock_guard<std::mutex> report_lock(report_mu_);
    total_queries_ += static_cast<int64_t>(report.sessions);
    total_bytes_scanned_ += report.bytes_scanned;
    total_isolated_bytes_ += report.isolated_bytes_scanned;
    total_shared_sessions_ += static_cast<int64_t>(report.shared_sessions);
    last_report_ = std::move(report);
  }
}

void SessionManager::ExecuteGroup(Group* group, BatchReport* report) {
  size_t n = group->members.size();
  bool share = n >= 2;
  int32_t group_decisions = 0;
  int32_t group_shared = 0;
  // The shared plan's identity, hashed once for the decision and every
  // member's sharing record.
  uint64_t fingerprint = share ? PlanFingerprint(group->fuser.plan()) : 0;

  // Share-vs-solo (DESIGN.md §12.4): share only when one run of the fused
  // plan reads strictly fewer static scan bytes than the members would
  // read on their own. Each member's bytes are also its isolated bytes.
  std::vector<int64_t> member_bytes;
  if (share) {
    CostDecision record;
    record.anchor = OptimizerTrace::DescribeNode(*group->fuser.plan());
    record.fingerprint = fingerprint;
    record.consumers = static_cast<int>(n);
    member_bytes.reserve(n);
    for (const Group::Member& m : group->members) {
      member_bytes.push_back(ScanBytes(group->fuser.members()[m.consumer]));
      record.solo_bytes += member_bytes.back();
    }
    record.shared_bytes = ScanBytes(group->fuser.plan());
    share = record.shared_bytes < record.solo_bytes;
    record.shared = share;
    if (ctx_.trace() != nullptr) ctx_.trace()->RecordCostDecision(record);
    report->decisions.push_back(std::move(record));
    group_decisions = 1;
    group_shared = share ? 1 : 0;
    if (MetricsRegistry* r = options_.metrics) {
      r->Add(share ? mids_.decisions_share : mids_.decisions_solo, 1);
    }
  }

  if (share) {
    // One shared execution: each session's consumer applies its
    // compensating filter over the fused output and reads its original
    // output columns through renumber-then-fusion mappings. Output ids and
    // names are the session's own, so the result schema is byte-identical
    // to an isolated run of the submitted plan.
    std::vector<FanOutConsumer> consumers;
    consumers.reserve(n);
    for (const Group::Member& m : group->members) {
      const CrossConsumer& cc = group->fuser.consumer(m.consumer);
      FanOutConsumer fc;
      fc.filter = cc.filter;
      const Schema& original = m.session->plan()->schema();
      fc.columns.reserve(original.num_columns());
      for (const ColumnInfo& c : original.columns()) {
        ColumnId fused = ApplyMap(cc.mapping, ApplyMap(m.renumber, c.id));
        fc.columns.push_back(
            {c.id, c.name, Expr::MakeColumnRef(fused, c.type)});
      }
      consumers.push_back(std::move(fc));
    }
    int64_t exec_start_ns = NowNanos();
    Result<FanOutResult> result =
        ExecuteFanOut(group->fuser.plan(), consumers, options_.exec);
    if (!result.ok()) {
      for (const Group::Member& m : group->members) {
        m.session->Fulfill(result.status(), nullptr, {});
      }
      return;
    }
    int64_t bytes = result->metrics.bytes_scanned;
    int64_t execute_us = (NowNanos() - exec_start_ns) / 1000;
    report->shared_groups++;
    report->shared_sessions += n;
    report->bytes_scanned += bytes;
    if (MetricsRegistry* r = options_.metrics) {
      r->Add(mids_.shared_groups, 1);
      r->Add(mids_.bytes_scanned, bytes);
    }
    int64_t share_each = bytes / static_cast<int64_t>(n);
    for (size_t i = 0; i < n; ++i) {
      const Group::Member& m = group->members[i];
      SessionSharing sharing;
      sharing.session_id = m.session->id();
      sharing.group_fingerprint = fingerprint;
      sharing.consumers = static_cast<int>(n);
      sharing.shared_bytes_scanned = bytes;
      sharing.attributed_bytes_scanned =
          share_each + (i == 0 ? bytes % static_cast<int64_t>(n) : 0);
      sharing.isolated_bytes_scanned = member_bytes[i];
      report->isolated_bytes_scanned += member_bytes[i];
      report->attributions.push_back({sharing.session_id, fingerprint,
                                      sharing.consumers,
                                      sharing.attributed_bytes_scanned,
                                      result->results[i].num_rows()});
      int64_t rows = result->results[i].num_rows();
      int64_t queue_wait_us =
          (exec_start_ns - m.session->submitted_ns()) / 1000;
      m.session->SetTiming(queue_wait_us, execute_us);
      m.session->Fulfill(std::move(result->results[i]), group->fuser.plan(),
                         sharing);
      FinishSession(m.session, sharing, rows, queue_wait_us, execute_us,
                    group_decisions, group_shared);
    }
    return;
  }

  // Solo: each member executes its own optimized plan — still through the
  // fan-out path (single passthrough consumer relabelled with the
  // session's original output ids), so shared and isolated execution
  // cannot diverge.
  for (const Group::Member& m : group->members) {
    const PlanPtr& plan = group->fuser.members()[m.consumer];
    FanOutConsumer fc;
    const Schema& original = m.session->plan()->schema();
    fc.columns.reserve(original.num_columns());
    for (const ColumnInfo& c : original.columns()) {
      ColumnId renumbered = ApplyMap(m.renumber, c.id);
      Result<DataType> type = plan->schema().TypeOf(renumbered);
      fc.columns.push_back(
          {c.id, c.name,
           Expr::MakeColumnRef(renumbered,
                               type.ok() ? *type : c.type)});
    }
    int64_t exec_start_ns = NowNanos();
    Result<FanOutResult> result =
        ExecuteFanOut(plan, {std::move(fc)}, options_.exec);
    if (!result.ok()) {
      m.session->Fulfill(result.status(), nullptr, {});
      continue;
    }
    int64_t bytes = result->metrics.bytes_scanned;
    int64_t execute_us = (NowNanos() - exec_start_ns) / 1000;
    report->solo_sessions++;
    report->bytes_scanned += bytes;
    report->isolated_bytes_scanned += bytes;
    if (MetricsRegistry* r = options_.metrics) {
      r->Add(mids_.bytes_scanned, bytes);
    }
    SessionSharing sharing;
    sharing.session_id = m.session->id();
    sharing.group_fingerprint = PlanFingerprint(plan);
    sharing.consumers = 1;
    sharing.shared_bytes_scanned = bytes;
    sharing.attributed_bytes_scanned = bytes;
    sharing.isolated_bytes_scanned = bytes;
    int64_t rows = result->results[0].num_rows();
    report->attributions.push_back({sharing.session_id,
                                    sharing.group_fingerprint, 1, bytes,
                                    rows});
    int64_t queue_wait_us = (exec_start_ns - m.session->submitted_ns()) / 1000;
    m.session->SetTiming(queue_wait_us, execute_us);
    m.session->Fulfill(std::move(result->results[0]), plan, sharing);
    FinishSession(m.session, sharing, rows, queue_wait_us, execute_us,
                  group_decisions, group_shared);
  }
}

void SessionManager::FinishSession(const SessionPtr& session,
                                   const SessionSharing& sharing, int64_t rows,
                                   int64_t queue_wait_us, int64_t execute_us,
                                   int32_t decisions, int32_t shared) {
  bool is_shared = sharing.consumers > 1;
  if (MetricsRegistry* r = options_.metrics) {
    r->Add(is_shared ? mids_.shared_sessions : mids_.solo_sessions, 1);
    r->Add(mids_.attributed_bytes, sharing.attributed_bytes_scanned);
    r->Add(mids_.isolated_bytes, sharing.isolated_bytes_scanned);
    r->Record(mids_.queue_wait_us, queue_wait_us);
    r->Record(mids_.execute_us, execute_us);
    r->Record(mids_.session_bytes, sharing.attributed_bytes_scanned);
  }
  QueryLog* log = options_.query_log;
  if (log == nullptr) return;

  QueryLogEvent event;
  event.session_id = session->id();
  event.mode = options_.mode_label;
  event.fingerprint = FingerprintToString(sharing.group_fingerprint);
  if (is_shared) event.group_fingerprint = event.fingerprint;
  event.shared = is_shared;
  event.consumers = sharing.consumers;
  event.queue_wait_us = queue_wait_us;
  event.execute_us = execute_us;
  event.bytes_scanned = sharing.attributed_bytes_scanned;
  event.shared_bytes_scanned = sharing.shared_bytes_scanned;
  event.isolated_bytes_scanned = sharing.isolated_bytes_scanned;
  event.rows_produced = rows;
  event.cost_decisions = decisions;
  event.cost_shared = shared;

  // Slow-query capture: anything whose end-to-end latency (queue + execute)
  // crosses the log's threshold gets its full profile written next to the
  // log. Telemetry failures never fail the query — count and report them.
  if (log->IsSlow(queue_wait_us + execute_us)) {
    event.slow = true;
    if (MetricsRegistry* r = options_.metrics) {
      r->Add(mids_.slow_queries, 1);
    }
    QueryProfile profile =
        MakeSessionProfile(*session, "", options_.mode_label);
    std::string path = log->SlowProfilePath(session->id());
    Status st = WriteProfileJson(profile, path);
    if (st.ok()) {
      event.slow_profile_path = path;
    } else {
      fprintf(stderr, "fusiondb: slow-query profile capture failed: %s\n",
              st.message().c_str());
      if (MetricsRegistry* r = options_.metrics) {
        r->Add(mids_.telemetry_errors, 1);
      }
    }
  }
  Status st = log->Append(event);
  if (!st.ok()) {
    fprintf(stderr, "fusiondb: query log append failed: %s\n",
            st.message().c_str());
    if (MetricsRegistry* r = options_.metrics) {
      r->Add(mids_.telemetry_errors, 1);
    }
  }
}

BatchReport SessionManager::last_batch_report() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return last_report_;
}

int64_t SessionManager::total_queries() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return total_queries_;
}

int64_t SessionManager::total_bytes_scanned() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return total_bytes_scanned_;
}

int64_t SessionManager::total_isolated_bytes_scanned() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return total_isolated_bytes_;
}

int64_t SessionManager::total_shared_sessions() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return total_shared_sessions_;
}

}  // namespace fusiondb
