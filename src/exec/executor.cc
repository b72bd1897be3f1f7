#include "exec/executor.h"

#include <set>
#include <utility>

#include "exec/fanout.h"
#include "exec/morsel_source.h"
#include "exec/operators_internal.h"
#include "exec/pipeline.h"
#include "obs/metrics.h"
#include "obs/operator_stats.h"
#include "plan/spool.h"

namespace fusiondb {

namespace internal {

/// Kind-specific context recorded in an operator's stats slot so profiles
/// identify nodes without the full plan ("which scan was hot?"). Shared
/// with the pipeline compiler, which registers slots for the operators it
/// fuses so the id ↔ plan-node preorder mapping stays intact.
std::string NodeDetail(const LogicalOp& plan) {
  switch (plan.kind()) {
    case OpKind::kScan:
      return Cast<ScanOp>(plan).table()->name();
    case OpKind::kJoin:
      return JoinTypeName(Cast<JoinOp>(plan).join_type());
    case OpKind::kAggregate: {
      const auto& agg = Cast<AggregateOp>(plan);
      return "groups=" + std::to_string(agg.group_by().size()) +
             " aggs=" + std::to_string(agg.aggregates().size());
    }
    case OpKind::kLimit:
      return std::to_string(Cast<LimitOp>(plan).limit());
    case OpKind::kSpool:
      return "id=" + std::to_string(Cast<SpoolOp>(plan).spool_id());
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kWindow:
    case OpKind::kUnionAll:
    case OpKind::kValues:
    case OpKind::kSort:
    case OpKind::kEnforceSingleRow:
    case OpKind::kApply:
      return std::string();
  }
  return std::string();
}

}  // namespace internal

namespace {

/// Transparent profiling decorator: owns the real operator and charges each
/// Next() call (and teardown) to the operator's stats slot. Only the driver
/// thread calls Next(), so the counters are plain int64s — parallel regions
/// live *inside* operators and never cross this wrapper. Inserted only when
/// ExecContext::profile_enabled(); a disabled build has zero wrappers.
class StatsExec final : public ExecOperator {
 public:
  StatsExec(ExecOperatorPtr inner, OperatorStats* stats)
      : ExecOperator(inner->schema()),
        inner_(std::move(inner)),
        stats_(stats) {}

  ~StatsExec() override {
    int64_t start = NowNanos();
    inner_.reset();
    stats_->close_ns += NowNanos() - start;
  }

  Result<std::optional<Chunk>> Next() override {
    int64_t start = NowNanos();
    Result<std::optional<Chunk>> result = inner_->Next();
    stats_->next_ns += NowNanos() - start;
    ++stats_->next_calls;
    if (result.ok() && result.ValueOrDie().has_value()) {
      ++stats_->chunks_out;
      stats_->rows_out +=
          static_cast<int64_t>(result.ValueOrDie()->num_rows());
    }
    return result;
  }

 private:
  ExecOperatorPtr inner_;
  OperatorStats* stats_;
};

/// The factory switch for the operators that are not pipelines: children
/// already built. `probe_scans` are the scan sources the first child's
/// build registered, which a join's runtime filter may narrow.
Result<ExecOperatorPtr> MakeOperator(const PlanPtr& plan,
                                     std::vector<ExecOperatorPtr> children,
                                     std::vector<ScanSource> probe_scans,
                                     ExecContext* ctx) {
  using namespace internal;  // NOLINT: operator factories
  switch (plan->kind()) {
    case OpKind::kJoin:
      return MakeJoinExec(Cast<JoinOp>(*plan), std::move(children[0]),
                          std::move(children[1]), std::move(probe_scans), ctx);
    case OpKind::kWindow:
      return MakeWindowExec(Cast<WindowOp>(*plan), std::move(children[0]), ctx);
    case OpKind::kUnionAll:
      return MakeUnionAllExec(Cast<UnionAllOp>(*plan), std::move(children));
    case OpKind::kSort:
      return MakeSortExec(Cast<SortOp>(*plan), std::move(children[0]), ctx);
    case OpKind::kLimit:
      return MakeLimitExec(Cast<LimitOp>(*plan), std::move(children[0]));
    case OpKind::kEnforceSingleRow:
      return MakeSingleRowExec(Cast<EnforceSingleRowOp>(*plan),
                               std::move(children[0]));
    case OpKind::kSpool:
      return MakeSpoolExec(Cast<SpoolOp>(*plan), std::move(children[0]), ctx);
    case OpKind::kValues:
      return MakeValuesExec(Cast<ValuesOp>(*plan));
    case OpKind::kScan:
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kAggregate:
    case OpKind::kApply:
      break;  // pipelines and Apply are handled by the caller
  }
  return Status::NotImplemented(std::string("no executor for ") +
                                OpKindName(plan->kind()));
}

/// Recursive build with preorder operator-id assignment. Ids are handed out
/// parent-before-children in the exact order PlanToString and the profile
/// JSON walk the tree, which is what makes the id ↔ plan-node mapping
/// stable with no side table.
Result<ExecOperatorPtr> BuildNode(const PlanPtr& plan, ExecContext* ctx,
                                  int32_t parent) {
  using namespace internal;  // NOLINT: operator factories
  if (plan == nullptr) return Status::PlanError("null plan");
  if (plan->kind() == OpKind::kApply) {
    return Status::PlanError(
        "Apply (correlated subquery) must be decorrelated before execution");
  }
  const bool profiled = ctx->profile_enabled();
  int32_t id = -1;
  int64_t build_start = 0;
  if (profiled) {
    id = ctx->RegisterOperator(OpKindName(plan->kind()), NodeDetail(*plan),
                               parent);
    build_start = NowNanos();
  }
  ExecOperatorPtr op;
  const OpKind kind = plan->kind();
  if (kind == OpKind::kScan || kind == OpKind::kFilter ||
      kind == OpKind::kProject || kind == OpKind::kAggregate) {
    // Every non-blocking chain compiles into one push pipeline, which
    // builds the subtree feeding it once its own slots are registered.
    FUSIONDB_ASSIGN_OR_RETURN(
        op, CompilePipeline(plan, ctx, id,
                            [ctx](const PlanPtr& source, int32_t parent_id) {
                              return BuildNode(source, ctx, parent_id);
                            }));
  } else {
    std::vector<ExecOperatorPtr> children;
    children.reserve(plan->num_children());
    std::vector<ScanSource> probe_scans;
    for (const PlanPtr& c : plan->children()) {
      size_t first_scan = ctx->scan_sources().size();
      FUSIONDB_ASSIGN_OR_RETURN(ExecOperatorPtr child, BuildNode(c, ctx, id));
      if (children.empty()) {
        probe_scans.assign(ctx->scan_sources().begin() + first_scan,
                           ctx->scan_sources().end());
      }
      children.push_back(std::move(child));
    }
    // Blocking operators capture building_op() in their constructors to
    // attribute their memory accounting to their own slot.
    ctx->set_building_op(id);
    FUSIONDB_ASSIGN_OR_RETURN(
        op, MakeOperator(plan, std::move(children), std::move(probe_scans),
                         ctx));
    ctx->set_building_op(-1);
  }
  if (!profiled) return op;
  OperatorStats* stats = ctx->op_stats(id);
  stats->open_ns = NowNanos() - build_start;  // subtree build time
  return ExecOperatorPtr(new StatsExec(std::move(op), stats));
}

}  // namespace

Result<ExecOperatorPtr> BuildExecutor(const PlanPtr& plan, ExecContext* ctx) {
  return BuildNode(plan, ctx, /*parent=*/-1);
}

namespace {

/// `pruning` is the predicate of `plan`'s parent when that parent is a
/// Filter, the only predicate a scan prunes by (StaticPruneSpec).
void AddScanBytes(const LogicalOp& plan, const ExprPtr& pruning,
                  std::set<int32_t>* spools, int64_t* bytes) {
  if (plan.kind() == OpKind::kSpool &&
      !spools->insert(Cast<SpoolOp>(plan).spool_id()).second) {
    return;  // the first consumer materializes it; the others read back
  }
  if (plan.kind() == OpKind::kScan) {
    const auto& scan = Cast<ScanOp>(plan);
    internal::PruneSpec spec = internal::StaticPruneSpec(scan, pruning);
    for (const Partition& p : scan.table()->partitions()) {
      if (!spec.KeepsRange(p.min_key, p.max_key)) continue;
      for (int c : scan.table_columns()) *bytes += p.column_bytes[c];
    }
  }
  const ExprPtr child_pruning = plan.kind() == OpKind::kFilter
                                    ? Cast<FilterOp>(plan).predicate()
                                    : nullptr;
  for (const PlanPtr& c : plan.children()) {
    AddScanBytes(*c, child_pruning, spools, bytes);
  }
}

}  // namespace

int64_t ScanBytes(const PlanPtr& plan) {
  std::set<int32_t> spools;
  int64_t bytes = 0;
  AddScanBytes(*plan, nullptr, &spools, &bytes);
  return bytes;
}

void RecordExecutionMetrics(MetricsRegistry* registry,
                            const ExecMetrics& metrics,
                            const std::vector<OperatorStats>& op_stats,
                            const std::vector<PipelineRecord>& pipelines,
                            int64_t chunks, double wall_ms) {
  if (registry == nullptr) return;
  registry->Add(registry->Counter("fusiondb_exec_pipelines_compiled_total"),
                static_cast<int64_t>(pipelines.size()));
  registry->Add(registry->Counter("fusiondb_exec_queries_total"), 1);
  registry->Add(registry->Counter("fusiondb_exec_bytes_scanned_total"),
                metrics.bytes_scanned);
  registry->Add(registry->Counter("fusiondb_exec_rows_scanned_total"),
                metrics.rows_scanned);
  registry->Add(registry->Counter("fusiondb_exec_partitions_scanned_total"),
                metrics.partitions_scanned);
  registry->Add(registry->Counter("fusiondb_exec_partitions_pruned_total"),
                metrics.partitions_pruned);
  registry->Add(
      registry->Counter("fusiondb_exec_runtime_pruned_partitions_total"),
      metrics.runtime_pruned_partitions);
  registry->Add(registry->Counter("fusiondb_exec_runtime_pruned_bytes_total"),
                metrics.runtime_pruned_bytes);
  registry->Add(registry->Counter("fusiondb_exec_rows_produced_total"),
                metrics.rows_produced);
  registry->Add(registry->Counter("fusiondb_exec_chunks_produced_total"),
                chunks);
  registry->Add(registry->Counter("fusiondb_exec_spool_bytes_written_total"),
                metrics.spool_bytes_written);
  registry->Add(registry->Counter("fusiondb_exec_spool_bytes_read_total"),
                metrics.spool_bytes_read);
  registry->Record(registry->Histogram("fusiondb_exec_query_wall_us"),
                   static_cast<int64_t>(wall_ms * 1e3));
  registry->Record(registry->Histogram("fusiondb_exec_query_bytes_scanned"),
                   metrics.bytes_scanned);
  int64_t spool_hits = 0;
  int64_t spool_builds = 0;
  for (const OperatorStats& s : op_stats) {
    spool_hits += s.spool_hits;
    spool_builds += s.spool_builds;
    if (s.bytes_scanned > 0 && s.kind == OpKindName(OpKind::kScan) &&
        !s.detail.empty()) {
      registry->Add(
          registry->Counter("fusiondb_exec_table_bytes_scanned_total{table=\"" +
                            s.detail + "\"}"),
          s.bytes_scanned);
    }
  }
  registry->Add(registry->Counter("fusiondb_exec_spool_hits_total"),
                spool_hits);
  registry->Add(registry->Counter("fusiondb_exec_spool_builds_total"),
                spool_builds);
}

Result<QueryResult> ExecutePlan(const PlanPtr& plan,
                                const ExecOptions& options) {
  if (plan == nullptr) return Status::PlanError("null plan");
  // One passthrough consumer: the fan-out drain loop with nothing to
  // restore, which hands each chunk over without a copy.
  FUSIONDB_ASSIGN_OR_RETURN(
      FanOutResult out,
      ExecuteFanOut(plan, {FanOutConsumer::Passthrough(plan->schema())},
                    options));
  return std::move(out.results[0]);
}

}  // namespace fusiondb
