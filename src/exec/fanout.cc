#include "exec/fanout.h"

#include <optional>
#include <utility>

#include "analysis/plan_verifier.h"
#include "expr/evaluator.h"
#include "obs/operator_stats.h"

namespace fusiondb {

namespace {

/// A consumer bound against the executed plan's root schema.
struct BoundConsumer {
  std::optional<BoundExpr> filter;
  std::vector<BoundExpr> columns;
  bool passthrough = false;  // no filter, identity column list
  Schema schema;
  std::vector<Chunk> chunks;
  int64_t rows = 0;
};

/// True when `consumer` forwards the plan's output unchanged: no filter and
/// column i reads root schema position i (output ids/names may differ —
/// they only label the result).
bool IsPassthrough(const FanOutConsumer& consumer, const Schema& root) {
  if (consumer.filter != nullptr) return false;
  if (consumer.columns.size() != root.num_columns()) return false;
  for (size_t i = 0; i < consumer.columns.size(); ++i) {
    const ExprPtr& e = consumer.columns[i].expr;
    if (e == nullptr || e->kind() != ExprKind::kColumnRef ||
        e->column_id() != root.column(i).id) {
      return false;
    }
  }
  return true;
}

}  // namespace

FanOutConsumer FanOutConsumer::Passthrough(const Schema& schema) {
  FanOutConsumer c;
  c.columns.reserve(schema.num_columns());
  for (const ColumnInfo& col : schema.columns()) {
    c.columns.push_back(
        {col.id, col.name, Expr::MakeColumnRef(col.id, col.type)});
  }
  return c;
}

Result<FanOutResult> ExecuteFanOut(const PlanPtr& plan,
                                   const std::vector<FanOutConsumer>& consumers,
                                   const ExecOptions& options) {
  if (consumers.empty()) {
    return Status::InvalidArgument("fan-out requires at least one consumer");
  }
  FUSIONDB_RETURN_IF_ERROR(VerifyPlanIfEnabled(plan, "pre-execution"));

  const Schema& root = plan->schema();
  std::vector<BoundConsumer> bound(consumers.size());
  for (size_t i = 0; i < consumers.size(); ++i) {
    const FanOutConsumer& c = consumers[i];
    BoundConsumer& b = bound[i];
    if (c.columns.empty()) {
      return Status::InvalidArgument("fan-out consumer has no columns");
    }
    if (c.filter != nullptr) {
      FUSIONDB_ASSIGN_OR_RETURN(BoundExpr f, BindExpr(c.filter, root));
      b.filter.emplace(std::move(f));
    }
    std::vector<ColumnInfo> cols;
    cols.reserve(c.columns.size());
    for (const NamedExpr& e : c.columns) {
      FUSIONDB_ASSIGN_OR_RETURN(BoundExpr be, BindExpr(e.expr, root));
      cols.push_back({e.id, e.name, be.type()});
      b.columns.push_back(std::move(be));
    }
    b.schema = Schema(std::move(cols));
    b.passthrough = IsPassthrough(c, root);
  }

  ExecContext ctx;
  ctx.Init(options);

  int64_t start = NowNanos();
  int64_t chunks_produced = 0;
  {
    // Scope the operator tree so destructors release accounted memory
    // before metrics are snapshotted (peak is preserved).
    FUSIONDB_ASSIGN_OR_RETURN(ExecOperatorPtr exec_root,
                              BuildExecutor(plan, &ctx));
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> chunk, exec_root->Next());
      if (!chunk.has_value()) break;
      if (chunk->num_rows() == 0) continue;
      ctx.metrics().rows_produced += static_cast<int64_t>(chunk->num_rows());
      ++chunks_produced;
      for (size_t i = 0; i < bound.size(); ++i) {
        BoundConsumer& b = bound[i];
        if (b.passthrough) {
          // Last consumer: steal the chunk (a solo run, ExecutePlan
          // included, copies nothing). Otherwise each passthrough copies.
          b.rows += static_cast<int64_t>(chunk->num_rows());
          b.chunks.push_back(i + 1 == bound.size() ? std::move(*chunk)
                                                   : *chunk);
          continue;
        }
        Chunk out;
        if (b.filter.has_value()) {
          SelVector sel = b.filter->EvalFilter(*chunk);
          if (sel.empty()) continue;
          for (const BoundExpr& col : b.columns) {
            out.columns.push_back(col.EvalSel(*chunk, sel));
          }
        } else {
          for (const BoundExpr& col : b.columns) {
            out.columns.push_back(col.EvalAll(*chunk));
          }
        }
        b.rows += static_cast<int64_t>(out.num_rows());
        b.chunks.push_back(std::move(out));
      }
    }
  }
  double wall_ms = static_cast<double>(NowNanos() - start) * 1e-6;

  FanOutResult out;
  out.metrics = ctx.FinalMetrics();
  out.operator_stats = ctx.FinalOperatorStats();
  out.wall_ms = wall_ms;
  RecordExecutionMetrics(options.metrics, out.metrics, out.operator_stats,
                         ctx.pipelines(), chunks_produced, wall_ms);
  out.results.reserve(bound.size());
  for (BoundConsumer& b : bound) {
    ExecMetrics metrics = out.metrics;
    metrics.rows_produced = b.rows;
    out.results.emplace_back(std::move(b.schema), std::move(b.chunks), metrics,
                             wall_ms, out.operator_stats, ctx.pipelines());
  }
  return out;
}

}  // namespace fusiondb
