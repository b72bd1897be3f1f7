#include "engine/engine.h"

#include <utility>

namespace fusiondb {

Result<QueryOptions> QueryOptions::FromModeName(const std::string& mode) {
  if (mode == "baseline") return Baseline();
  if (mode == "fused") return Fused();
  if (mode == "spooling") return Spooling();
  return Status::InvalidArgument(
      "unknown mode '" + mode + "' (expected baseline, fused or spooling)");
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
  PlanContext* ctx = query->context();
  if (options.trace != nullptr) ctx->set_trace(options.trace);
  Result<PlanPtr> optimized =
      Optimizer(options.optimizer).Optimize(query->plan(), ctx);
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
