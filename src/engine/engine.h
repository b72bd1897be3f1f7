// fusiondb::Engine — the unified front door (DESIGN.md §14).
//
// One object owns the catalog, the service metrics registry and (lazily)
// the cross-query fusion server, and the whole prepare/optimize/execute
// flow runs through two calls:
//
//   Engine engine(catalog);
//   FUSIONDB_ASSIGN_OR_RETURN(PreparedQuery q,
//                             engine.Prepare("SELECT ... FROM ..."));
//   FUSIONDB_ASSIGN_OR_RETURN(QueryResult r,
//                             engine.Execute(q, QueryOptions::Fused()));
//
// Prepare accepts either SQL text (parsed + bound by src/sql) or a plan
// builder callback with the TpcdsQuery::build shape. The TPC-DS queries'
// builders bind SQL text too (src/tpcds/queries.cc); a callback that
// builds a plan directly (unit tests probing one operator) shares the
// same execution path. Execute consolidates what used to be scattered
// across call sites: mode selection (QueryOptions factories), optimizer
// trace attachment, metrics wiring and final execution.
//
// The low-level entry points (Optimizer::Optimize, ExecutePlan,
// SessionManager) remain public for unit tests and benches that need to
// probe one layer in isolation.
#ifndef FUSIONDB_ENGINE_ENGINE_H_
#define FUSIONDB_ENGINE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/optimizer_trace.h"
#include "optimizer/optimizer.h"
#include "plan/logical_plan.h"
#include "plan/plan_context.h"
#include "server/session_manager.h"
#include "sql/sql.h"

namespace fusiondb {

/// Everything one execution needs: the optimizer configuration, the
/// executor knobs, and the observability hookups.
struct QueryOptions {
  OptimizerOptions optimizer;
  ExecOptions exec;

  /// Optional optimizer/fusion trace (not owned). Attached to the prepared
  /// query's PlanContext for the duration of optimization.
  OptimizerTrace* trace = nullptr;

  static QueryOptions Baseline() {
    QueryOptions q;
    q.optimizer = OptimizerOptions::Baseline();
    return q;
  }
  static QueryOptions Fused() { return QueryOptions(); }
  static QueryOptions Spooling() {
    QueryOptions q;
    q.optimizer = OptimizerOptions::Spooling();
    return q;
  }
  /// "baseline" / "fused" / "spooling" — the --mode vocabulary
  /// shared by run_query, the benches and the fuzz harness.
  static Result<QueryOptions> FromModeName(const std::string& mode);
};

/// A bound query: its own PlanContext (column-id space) plus the logical
/// plan rooted in it. Produced by Engine::Prepare; movable, not copyable.
class PreparedQuery {
 public:
  PreparedQuery() = default;
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;

  const PlanPtr& plan() const { return plan_; }
  PlanContext* context() { return ctx_.get(); }

  /// The SQL text this query was prepared from (empty for plan builders).
  const std::string& sql() const { return sql_; }

 private:
  friend class Engine;
  std::unique_ptr<PlanContext> ctx_;
  PlanPtr plan_;
  std::string sql_;
};

class Engine {
 public:
  /// The builder-callback shape shared with tpcds::TpcdsQuery::build.
  using PlanBuilder =
      std::function<Result<PlanPtr>(const Catalog&, PlanContext*)>;

  Engine() = default;
  explicit Engine(Catalog catalog) : catalog_(std::move(catalog)) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const Catalog& catalog() const { return catalog_; }
  /// For registering tables after construction. Must not be called while a
  /// server started by StartServer is running.
  Catalog* mutable_catalog() { return &catalog_; }

  /// Parses and binds one SQL statement. When `parse` is non-null it
  /// receives the full ParseResult (text + positional diagnostics) so
  /// callers can render caret snippets; the returned Status carries the
  /// first diagnostic either way.
  Result<PreparedQuery> Prepare(const std::string& sql_text,
                                sql::ParseResult* parse = nullptr);

  /// Runs a plan-builder callback (a tpcds::TpcdsQuery::build, or a test's
  /// own plan) into a PreparedQuery with a fresh PlanContext.
  Result<PreparedQuery> Prepare(const PlanBuilder& build);

  /// Optimizes the prepared plan under `options`.
  Result<PlanPtr> Optimize(PreparedQuery* query,
                           const QueryOptions& options = QueryOptions());

  /// Executes an already-optimized plan under `options.exec`.
  Result<QueryResult> ExecuteOptimized(const PlanPtr& optimized,
                                       const QueryOptions& options);

  /// Optimize + execute.
  Result<QueryResult> Execute(PreparedQuery* query,
                              const QueryOptions& options = QueryOptions());

  /// One-call convenience: Prepare(sql) + Execute.
  Result<QueryResult> ExecuteSql(const std::string& sql_text,
                                 const QueryOptions& options = QueryOptions());

  // --- cross-query fusion server (DESIGN.md §12) ---------------------------

  /// Starts the session-manager server. At most one at a time; returns the
  /// running instance. When `options.metrics` is null the engine's registry
  /// is wired in.
  Result<SessionManager*> StartServer(ServerOptions options = ServerOptions());

  /// The running server, or null.
  SessionManager* server() { return server_.get(); }

  /// Submits a prepared query's plan to the running server.
  Result<SessionPtr> Submit(const PreparedQuery& query);

  /// Drains and stops the server. Idempotent.
  void StopServer();

  // --- owned observability state -------------------------------------------

  MetricsRegistry* metrics() { return &metrics_; }

 private:
  Catalog catalog_;
  MetricsRegistry metrics_;
  std::unique_ptr<SessionManager> server_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_ENGINE_ENGINE_H_
