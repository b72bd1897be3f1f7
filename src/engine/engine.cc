#include "engine/engine.h"

#include <utility>

namespace fusiondb {

Result<QueryOptions> QueryOptions::FromModeName(const std::string& mode) {
  if (mode == "baseline") return Baseline();
  if (mode == "fused") return Fused();
  if (mode == "spooling") return Spooling();
  if (mode == "adaptive") return Adaptive();
  return Status::InvalidArgument(
      "unknown mode '" + mode +
      "' (expected baseline, fused, spooling or adaptive)");
}

Result<PreparedQuery> Engine::Prepare(const std::string& sql_text,
                                      sql::ParseResult* parse) {
  PreparedQuery query;
  query.ctx_ = std::make_unique<PlanContext>();
  query.sql_ = sql_text;
  sql::ParseResult result =
      sql::ParseAndBind(sql_text, catalog_, query.ctx_.get());
  Status status = result.status();
  if (parse != nullptr) *parse = std::move(result);
  if (!status.ok()) return status;
  query.plan_ = parse != nullptr ? parse->plan : result.plan;
  return query;
}

Result<PreparedQuery> Engine::Prepare(const PlanBuilder& build) {
  PreparedQuery query;
  query.ctx_ = std::make_unique<PlanContext>();
  FUSIONDB_ASSIGN_OR_RETURN(query.plan_, build(catalog_, query.ctx_.get()));
  return query;
}

Result<PlanPtr> Engine::Optimize(PreparedQuery* query,
                                 const QueryOptions& options) {
  if (query == nullptr || query->plan() == nullptr) {
    return Status::InvalidArgument("Optimize: query is not prepared");
  }
  OptimizerOptions opt = options.optimizer;
  if (opt.spool_mode == SpoolMode::kAdaptive && opt.feedback == nullptr) {
    opt.feedback = &feedback_;
  }
  PlanContext* ctx = query->context();
  if (options.trace != nullptr) ctx->set_trace(options.trace);
  Result<PlanPtr> optimized = Optimizer(opt).Optimize(query->plan(), ctx);
  if (options.trace != nullptr) ctx->set_trace(nullptr);
  return optimized;
}

Result<QueryResult> Engine::ExecuteOptimized(const PlanPtr& optimized,
                                             const QueryOptions& options) {
  const ExecOptions& exec_options = options.exec;
  return ExecutePlan(optimized, exec_options);
}

Result<QueryResult> Engine::Execute(PreparedQuery* query,
                                    const QueryOptions& options) {
  if (query == nullptr || query->plan() == nullptr) {
    return Status::InvalidArgument("Execute: query is not prepared");
  }
  bool two_pass = options.optimizer.spool_mode == SpoolMode::kAdaptive &&
                  options.optimizer.feedback == nullptr;
  if (two_pass) {
    // Pass 1: optimize against whatever the engine has measured so far
    // (catalog priors when empty), execute profiled, and harvest every
    // subtree's measured cardinality into the feedback store.
    QueryOptions first = options;
    first.trace = nullptr;  // the caller's trace records the measured pass
    first.exec.profile = true;
    FUSIONDB_ASSIGN_OR_RETURN(PlanPtr first_plan, Optimize(query, first));
    FUSIONDB_ASSIGN_OR_RETURN(QueryResult first_result,
                              ExecuteOptimized(first_plan, first));
    feedback_.Harvest(first_plan, first_result.operator_stats());
  }
  FUSIONDB_ASSIGN_OR_RETURN(PlanPtr optimized, Optimize(query, options));
  return ExecuteOptimized(optimized, options);
}

Result<QueryResult> Engine::ExecuteSql(const std::string& sql_text,
                                       const QueryOptions& options) {
  FUSIONDB_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(sql_text));
  return Execute(&query, options);
}

Result<SessionManager*> Engine::StartServer(ServerOptions options) {
  if (server_ != nullptr) {
    return Status::InvalidArgument("a server is already running");
  }
  if (options.metrics == nullptr) options.metrics = &metrics_;
  server_ = std::make_unique<SessionManager>(std::move(options));
  return server_.get();
}

Result<SessionPtr> Engine::Submit(const PreparedQuery& query) {
  if (server_ == nullptr) {
    return Status::InvalidArgument("Submit: no server running; call "
                                   "StartServer first");
  }
  if (query.plan() == nullptr) {
    return Status::InvalidArgument("Submit: query is not prepared");
  }
  return server_->Submit(query.plan());
}

void Engine::StopServer() {
  if (server_ == nullptr) return;
  server_->Stop();
  server_.reset();
}

}  // namespace fusiondb
