// PipelineExec: the push-based fused execution of one
// source→filter→project(→aggregate) chain. See exec/pipeline.h and
// DESIGN.md §13 for the compilation model. Filters chain selection vectors
// over each morsel, outputs evaluate composed expressions through the typed
// kernels (EvalSel over survivors), and the aggregate sink accumulates
// through exec/agg_build.h. Results and every metric are invariant under
// the thread count.
#include "exec/pipeline.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/agg_build.h"
#include "exec/morsel_source.h"
#include "exec/operators_internal.h"
#include "expr/column_map.h"
#include "expr/evaluator.h"

namespace fusiondb::internal {

namespace {

/// Everything CompilePipeline derives from the chain, handed to the
/// operator. All expressions are composed down to (and bound against) the
/// source schema, so the pipeline evaluates them straight off its morsels.
struct PipelineSpec {
  std::vector<BoundExpr> filters;  // chain order, bottom-most filter first

  // Non-aggregate chains: one output expression per root schema column.
  std::vector<BoundExpr> outputs;
  bool identity = false;  // outputs are the source's columns in source order

  // Aggregate chains (the aggregate is always the chain root).
  bool aggregate = false;
  bool scalar = false;
  std::vector<BoundExpr> group_exprs;
  // Per group key: its source column index when the key is a bare column
  // (read in place), else -1.
  std::vector<int> group_columns;
  BoundAggs baggs;
  // Rewritten AggregateItems the BoundAggs point into (vector moves keep
  // element addresses, the WindowExec item_storage pattern).
  std::vector<AggregateItem> item_storage;
};

/// One morsel's aggregate input. When every row of the morsel survived the
/// filters, bare-column keys and arguments are read in place from `input`;
/// everything else is evaluated to dense columns over the survivors.
struct PreparedAggChunk {
  Chunk input;            // the morsel itself, kept only when in_place
  bool in_place = false;  // no row was filtered out
  size_t rows = 0;
  std::vector<Column> group_cols;  // evaluated keys; unused when read in place
  std::vector<Column> arg_cols;    // one per BoundArg; same rule
  std::vector<SelVector> masks;    // dense coordinates, mask-slot order
};

class PipelineExec final : public ExecOperator {
 public:
  PipelineExec(std::unique_ptr<MorselSource> source, PipelineSpec spec,
               Schema schema, ExecContext* ctx, int32_t root_op_id)
      : ExecOperator(std::move(schema)),
        ctx_(ctx),
        root_op_id_(root_op_id),
        source_(std::move(source)),
        spec_(std::move(spec)),
        groups_(spec_.baggs.aggs, spec_.scalar) {}

  ~PipelineExec() override {
    if (accounted_bytes_ != 0) {
      ctx_->AddHashBytes(-accounted_bytes_, root_op_id_);
    }
  }

  Result<std::optional<Chunk>> Next() override {
    if (spec_.aggregate) return NextAggregate();
    if (ctx_->pool() != nullptr && source_->is_scan()) {
      if (!parallel_ran_) {
        FUSIONDB_RETURN_IF_ERROR(RunParallel());
        parallel_ran_ = true;
      }
      if (out_cursor_ >= out_chunks_.size()) return std::optional<Chunk>();
      Chunk out = std::move(out_chunks_[out_cursor_++]);
      return std::optional<Chunk>(std::move(out));
    }
    // Serial push loop: each morsel runs filter → output in place; morsels
    // with no survivors never materialize anything.
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> morsel,
                                source_->NextSerial());
      if (!morsel.has_value()) return std::optional<Chunk>();
      SelVector sel;
      if (!ApplyFilters(*morsel, &sel)) continue;
      return std::optional<Chunk>(BuildOutput(std::move(*morsel), sel));
    }
  }

 private:
  /// Chains the fused filters over one morsel: the first evaluates as a
  /// fresh selection, the rest narrow it (visiting only survivors).
  /// Returns false when no row survives.
  bool ApplyFilters(const Chunk& morsel, SelVector* sel) const {
    if (spec_.filters.empty()) return morsel.num_rows() > 0;
    *sel = spec_.filters[0].EvalFilter(morsel);
    for (size_t i = 1; i < spec_.filters.size() && !sel->empty(); ++i) {
      spec_.filters[i].NarrowFilter(morsel, sel);
    }
    return !sel->empty();
  }

  bool AllPass(const Chunk& morsel, const SelVector& sel) const {
    return spec_.filters.empty() || sel.size() == morsel.num_rows();
  }

  /// Emits the chain's output chunk for one morsel. When every row passes
  /// and the chain is an identity over the source, the morsel's columns
  /// move through untouched. Otherwise each output expression evaluates
  /// over the morsel — dense, or via EvalSel so only surviving rows are
  /// computed.
  Chunk BuildOutput(Chunk morsel, const SelVector& sel) const {
    bool all = AllPass(morsel, sel);
    Chunk out;
    if (all && spec_.identity) {
      out.columns = std::move(morsel.columns);
      return out;
    }
    out.columns.reserve(spec_.outputs.size());
    for (const BoundExpr& e : spec_.outputs) {
      out.columns.push_back(all ? e.EvalAll(morsel) : e.EvalSel(morsel, sel));
    }
    return out;
  }

  /// Parallel non-aggregate run over a scan: workers filter and project
  /// their claimed partitions' morsels inside the scan's ParallelFor;
  /// outputs stream in (partition, slice) order, the serial order.
  Status RunParallel() {
    std::vector<std::vector<Chunk>> per_partition(source_->num_partitions());
    FUSIONDB_RETURN_IF_ERROR(source_->ParallelPartitions(
        [&](size_t /*worker*/, size_t pi, std::vector<Chunk> slices) -> Status {
          std::vector<Chunk>& out = per_partition[pi];
          for (Chunk& morsel : slices) {
            SelVector sel;
            if (!ApplyFilters(morsel, &sel)) continue;
            out.push_back(BuildOutput(std::move(morsel), sel));
          }
          return Status::OK();
        }));
    for (std::vector<Chunk>& chunks : per_partition) {
      for (Chunk& c : chunks) out_chunks_.push_back(std::move(c));
    }
    return Status::OK();
  }

  // --- aggregate sink --------------------------------------------------------

  Result<std::optional<Chunk>> NextAggregate() {
    if (done_) return std::optional<Chunk>();
    done_ = true;
    if (spec_.scalar) {
      // Scalar aggregates emit one row even over empty input.
      uint32_t group;
      groups_.keys.Insert({}, 1, &group);
      groups_.ResizeAccumulators();
    }
    if (ctx_->pool() != nullptr) {
      FUSIONDB_RETURN_IF_ERROR(RunAggParallel());
    } else {
      FUSIONDB_RETURN_IF_ERROR(RunAggSerial());
    }
    accounted_bytes_ = groups_.bytes();
    ctx_->AddHashBytes(accounted_bytes_, root_op_id_);
    return std::optional<Chunk>(
        FinalizeGroups(groups_, OutputTypes(), spec_.group_exprs.size()));
  }

  /// Prepares one surviving morsel's group / argument / mask inputs. When
  /// every row passed the filters, bare-column keys and arguments stay in
  /// the morsel (kept in the result) and only computed ones evaluate
  /// densely; otherwise EvalSel computes every input over survivors only.
  /// Each distinct argument evaluates once, however many aggregates read
  /// it.
  PreparedAggChunk Prepare(Chunk morsel, const SelVector& sel) const {
    PreparedAggChunk p;
    p.in_place = AllPass(morsel, sel);
    p.rows = p.in_place ? morsel.num_rows() : sel.size();
    p.masks = spec_.baggs.mask_set.Evaluate(morsel,
                                            p.in_place ? nullptr : &sel);
    p.group_cols.resize(spec_.group_exprs.size());
    for (size_t g = 0; g < spec_.group_exprs.size(); ++g) {
      if (!p.in_place) {
        p.group_cols[g] = spec_.group_exprs[g].EvalSel(morsel, sel);
      } else if (spec_.group_columns[g] < 0) {
        p.group_cols[g] = spec_.group_exprs[g].EvalAll(morsel);
      }
    }
    p.arg_cols.resize(spec_.baggs.args.size());
    for (size_t a = 0; a < spec_.baggs.args.size(); ++a) {
      const BoundArg& arg = spec_.baggs.args[a];
      if (!p.in_place) {
        p.arg_cols[a] = arg.expr.EvalSel(morsel, sel);
      } else if (arg.column < 0) {
        p.arg_cols[a] = arg.expr.EvalAll(morsel);
      }
    }
    if (p.in_place) p.input = std::move(morsel);
    return p;
  }

  /// Accumulates one prepared morsel into `groups` through a column-pointer
  /// view (masks move out — each prepared morsel is accumulated once).
  Status Accumulate(PreparedAggChunk* p, GroupTable* groups) const {
    AggInputView view;
    view.rows = p->rows;
    view.group_cols.reserve(p->group_cols.size());
    for (size_t g = 0; g < p->group_cols.size(); ++g) {
      int col = p->in_place ? spec_.group_columns[g] : -1;
      view.group_cols.push_back(col >= 0 ? &p->input.columns[col]
                                         : &p->group_cols[g]);
    }
    view.arg_cols.reserve(p->arg_cols.size());
    for (size_t a = 0; a < p->arg_cols.size(); ++a) {
      int col = p->in_place ? spec_.baggs.args[a].column : -1;
      view.arg_cols.push_back(col >= 0 ? &p->input.columns[col]
                                       : &p->arg_cols[a]);
    }
    view.masks = std::move(p->masks);
    return AccumulateView(view, spec_.baggs.aggs, groups);
  }

  Status RunAggSerial() {
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> morsel,
                                source_->NextSerial());
      if (!morsel.has_value()) break;
      SelVector sel;
      if (!ApplyFilters(*morsel, &sel)) continue;
      PreparedAggChunk p = Prepare(std::move(*morsel), sel);
      FUSIONDB_RETURN_IF_ERROR(Accumulate(&p, &groups_));
    }
    return Status::OK();
  }

  /// Parallel aggregate. A scan source filters and prepares its morsels
  /// inside the scan's ParallelFor, kept in (partition, slice) order; a
  /// child source is drained on the driver and its chunks are filtered and
  /// prepared by the workers. Either way partial w takes the w-th of W
  /// contiguous runs of morsels and partials merge in worker order, so the
  /// merge meets rows in table order: the group table (id order included)
  /// and the value MIN/MAX keep among ties are those of a serial run.
  Status RunAggParallel() {
    const bool scan = source_->is_scan();
    std::vector<PreparedAggChunk> prepared;  // scan source
    std::vector<Chunk> buffered;             // child source
    if (scan) {
      std::vector<std::vector<PreparedAggChunk>> per_partition(
          source_->num_partitions());
      FUSIONDB_RETURN_IF_ERROR(source_->ParallelPartitions(
          [&](size_t /*worker*/, size_t pi,
              std::vector<Chunk> slices) -> Status {
            std::vector<PreparedAggChunk>& out = per_partition[pi];
            for (Chunk& morsel : slices) {
              SelVector sel;
              if (!ApplyFilters(morsel, &sel)) continue;
              out.push_back(Prepare(std::move(morsel), sel));
            }
            return Status::OK();
          }));
      for (std::vector<PreparedAggChunk>& chunks : per_partition) {
        for (PreparedAggChunk& p : chunks) prepared.push_back(std::move(p));
      }
    } else {
      FUSIONDB_RETURN_IF_ERROR(source_->DrainChild(&buffered));
    }
    const size_t n = scan ? prepared.size() : buffered.size();
    ThreadPool* pool = ctx_->pool();
    size_t workers = pool->num_workers();
    std::vector<GroupTable> partials;
    partials.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      partials.emplace_back(spec_.baggs.aggs, spec_.scalar);
    }
    ParallelRegion region(ctx_);
    Status st = pool->ParallelFor(
        workers, [&](size_t /*worker*/, size_t w) -> Status {
          // `w` is the partial's index; each is claimed exactly once, so
          // the partial table is touched by a single thread.
          for (size_t ci = n * w / workers; ci < n * (w + 1) / workers;
               ++ci) {
            if (scan) {
              FUSIONDB_RETURN_IF_ERROR(
                  Accumulate(&prepared[ci], &partials[w]));
              continue;
            }
            SelVector sel;
            if (!ApplyFilters(buffered[ci], &sel)) continue;
            PreparedAggChunk p = Prepare(std::move(buffered[ci]), sel);
            FUSIONDB_RETURN_IF_ERROR(Accumulate(&p, &partials[w]));
          }
          return Status::OK();
        });
    FUSIONDB_RETURN_IF_ERROR(st);
    return MergePartialGroups(spec_.baggs.aggs, &partials, &groups_);
  }

  ExecContext* ctx_;
  int32_t root_op_id_ = -1;
  std::unique_ptr<MorselSource> source_;  // at one address (see its ctor)
  PipelineSpec spec_;
  // Parallel non-aggregate state: chunks prepared by RunParallel, streamed
  // in order.
  bool parallel_ran_ = false;
  std::vector<Chunk> out_chunks_;
  size_t out_cursor_ = 0;
  // Aggregate state.
  GroupTable groups_;
  bool done_ = false;
  int64_t accounted_bytes_ = 0;
};

/// `expr` with every column reference replaced by its definition over the
/// source schema; a reference the chain's input does not define is the
/// plan's error.
Result<ExprPtr> Compose(const ColumnDefs& env, const ExprPtr& expr) {
  ExprPtr composed = SubstituteColumns(env, expr);
  if (composed == nullptr) {
    return Status::PlanError("expression references a column not in its input: " +
                             expr->ToString());
  }
  return composed;
}

}  // namespace

Result<ExecOperatorPtr> CompilePipeline(const PlanPtr& plan, ExecContext* ctx,
                                        int32_t root_op_id,
                                        const SourceBuilder& build_source) {
  // Walk the chain: the root (unless it is a bare scan), any run of
  // Filter/Project below it, and the source the chain bottoms out at.
  std::vector<const LogicalOp*> chain;
  PlanPtr source = plan;
  if (plan->kind() != OpKind::kScan) {
    chain.push_back(plan.get());
    source = plan->child(0);
    while (source->kind() == OpKind::kFilter ||
           source->kind() == OpKind::kProject) {
      chain.push_back(source.get());
      source = source->child(0);
    }
  }
  const bool scan = source->kind() == OpKind::kScan;
  const Schema& source_schema = source->schema();
  if (scan) {
    const ScanOp& op = Cast<ScanOp>(*source);
    for (int c : op.table_columns()) {
      if (c < 0 || static_cast<size_t>(c) >= op.table()->num_columns()) {
        return Status::PlanError("scan column index out of range for table " +
                                 op.table()->name());
      }
    }
  }

  // Compose every chain expression down to the source schema, walking
  // bottom up. `env` maps each visible column id to its defining expression
  // over the source (identity at the source itself); projects replace the
  // environment, filters evaluate in the environment current at their
  // depth.
  ColumnDefs env;
  for (const ColumnInfo& c : source_schema.columns()) {
    env[c.id] = Expr::MakeColumnRef(c.id, c.type);
  }
  PipelineSpec spec;
  for (size_t i = chain.size(); i-- > 0;) {
    const LogicalOp* node = chain[i];
    if (node->kind() == OpKind::kFilter) {
      const ExprPtr& predicate = Cast<FilterOp>(*node).predicate();
      if (predicate == nullptr) {
        return Status::PlanError("filter with null predicate");
      }
      if (predicate->type() != DataType::kBool) {
        return Status::TypeError("filter predicate must be boolean, got " +
                                 std::string(DataTypeName(predicate->type())));
      }
      FUSIONDB_ASSIGN_OR_RETURN(ExprPtr composed, Compose(env, predicate));
      FUSIONDB_ASSIGN_OR_RETURN(BoundExpr bound,
                                BindExpr(composed, source_schema));
      spec.filters.push_back(std::move(bound));
    } else if (node->kind() == OpKind::kProject) {
      ColumnDefs next;
      for (const NamedExpr& e : Cast<ProjectOp>(*node).exprs()) {
        if (e.expr == nullptr) {
          return Status::PlanError("projection with null expr");
        }
        FUSIONDB_ASSIGN_OR_RETURN(next[e.id], Compose(env, e.expr));
      }
      env = std::move(next);
    }
  }

  if (plan->kind() == OpKind::kAggregate) {
    const AggregateOp& agg = Cast<AggregateOp>(*plan);
    spec.aggregate = true;
    spec.scalar = agg.IsScalar();
    for (ColumnId g : agg.group_by()) {
      auto it = env.find(g);
      if (it == env.end()) {
        return Status::PlanError("group-by column #" + std::to_string(g) +
                                 " not in input");
      }
      FUSIONDB_ASSIGN_OR_RETURN(BoundExpr bound,
                                BindExpr(it->second, source_schema));
      spec.group_exprs.push_back(std::move(bound));
      spec.group_columns.push_back(
          it->second->kind() == ExprKind::kColumnRef
              ? source_schema.IndexOf(it->second->column_id())
              : -1);
    }
    spec.item_storage.reserve(agg.aggregates().size());
    for (const AggregateItem& item : agg.aggregates()) {
      AggregateItem rewritten = item;
      if (item.arg != nullptr) {
        FUSIONDB_ASSIGN_OR_RETURN(rewritten.arg, Compose(env, item.arg));
      }
      if (item.mask != nullptr) {
        FUSIONDB_ASSIGN_OR_RETURN(rewritten.mask, Compose(env, item.mask));
      }
      spec.item_storage.push_back(std::move(rewritten));
    }
    FUSIONDB_ASSIGN_OR_RETURN(spec.baggs,
                              BindAggs(spec.item_storage, source_schema));
  } else {
    const Schema& out_schema = plan->schema();
    spec.outputs.reserve(out_schema.num_columns());
    spec.identity = out_schema.num_columns() == source_schema.num_columns();
    for (size_t i = 0; i < out_schema.num_columns(); ++i) {
      auto it = env.find(out_schema.column(i).id);
      if (it == env.end()) {
        return Status::PlanError("output column #" +
                                 std::to_string(out_schema.column(i).id) +
                                 " not in input");
      }
      if (spec.identity && (it->second->kind() != ExprKind::kColumnRef ||
                            it->second->column_id() !=
                                source_schema.column(i).id)) {
        spec.identity = false;
      }
      FUSIONDB_ASSIGN_OR_RETURN(BoundExpr bound,
                                BindExpr(it->second, source_schema));
      spec.outputs.push_back(std::move(bound));
    }
  }

  // The chain is valid — record it and register the fused interior slots
  // in preorder (root's child first, a scan source last), each tagged with
  // this pipeline's index. The record goes in before a child source is
  // built, so records stay in preorder of their roots.
  PipelineRecord rec;
  rec.root_op_id = root_op_id;
  rec.root_kind = OpKindName(plan->kind());
  rec.ops_fused = static_cast<int>(chain.size()) + (scan ? 1 : 0);
  const int32_t pipe_index = static_cast<int32_t>(ctx->pipelines().size());
  ctx->AddPipeline(std::move(rec));
  int32_t parent = root_op_id;
  if (ctx->profile_enabled()) {
    ctx->op_stats(root_op_id)->pipeline = pipe_index;
    for (size_t i = 1; i < chain.size(); ++i) {
      int32_t id = ctx->RegisterOperator(OpKindName(chain[i]->kind()),
                                         NodeDetail(*chain[i]), parent);
      ctx->op_stats(id)->pipeline = pipe_index;
      parent = id;
    }
  }
  if (!scan) {
    FUSIONDB_ASSIGN_OR_RETURN(ExecOperatorPtr child,
                              build_source(source, parent));
    return ExecOperatorPtr(
        new PipelineExec(std::make_unique<MorselSource>(std::move(child)),
                         std::move(spec), plan->schema(), ctx, root_op_id));
  }
  // A scan source keeps its own slot for decoded-bytes attribution; a bare
  // scan is the root itself. It prunes by the chain's lowest Filter only
  // when that Filter reads the scan directly.
  int32_t scan_slot = root_op_id;
  if (ctx->profile_enabled() && !chain.empty()) {
    scan_slot = ctx->RegisterOperator(OpKindName(OpKind::kScan),
                                      NodeDetail(*source), parent);
    ctx->op_stats(scan_slot)->pipeline = pipe_index;
  }
  const bool filtered =
      !chain.empty() && chain.back()->kind() == OpKind::kFilter;
  const ExprPtr pruning =
      filtered ? Cast<FilterOp>(*chain.back()).predicate() : nullptr;
  const ScanOp& scan_op = Cast<ScanOp>(*source);
  return ExecOperatorPtr(new PipelineExec(
      std::make_unique<MorselSource>(
          scan_op, StaticPruneSpec(scan_op, pruning), ctx, scan_slot),
      std::move(spec), plan->schema(), ctx, root_op_id));
}

}  // namespace fusiondb::internal
