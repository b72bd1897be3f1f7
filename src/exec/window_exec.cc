// Partitioned window aggregation. Windows accumulate their partitions
// through the aggregate machinery of exec/agg_build.h (hash aggregation
// itself is the compiled pipelines' aggregate sink, exec/pipeline.h), keyed
// through exec/key_table.h.
#include <optional>

#include "exec/agg_build.h"
#include "exec/key_table.h"
#include "exec/operators_internal.h"
#include "expr/evaluator.h"

namespace fusiondb::internal {

namespace {

class WindowExec final : public ExecOperator {
 public:
  WindowExec(const WindowOp& op, ExecOperatorPtr child,
             std::vector<int> partition_indexes, BoundAggs items,
             std::vector<AggregateItem> item_storage, ExecContext* ctx)
      : ExecOperator(op.schema()),
        child_(std::move(child)),
        partition_indexes_(std::move(partition_indexes)),
        items_(std::move(items)),
        item_storage_(std::move(item_storage)),
        ctx_(ctx),
        op_id_(ctx->building_op()) {}

  ~WindowExec() override { ctx_->AddHashBytes(-accounted_bytes_, op_id_); }

  Result<std::optional<Chunk>> Next() override {
    if (!materialized_) {
      FUSIONDB_RETURN_IF_ERROR(Materialize());
      materialized_ = true;
    }
    size_t total = data_.num_rows();
    if (offset_ >= total) return std::optional<Chunk>();
    size_t take = std::min(ctx_->chunk_size(), total - offset_);
    Chunk out = Chunk::Empty(OutputTypes());
    size_t input_width = data_.num_columns();
    for (size_t c = 0; c < input_width; ++c) {
      out.columns[c].AppendRange(data_.columns[c], offset_, take);
    }
    // Broadcast: each row takes its partition's finalized values.
    size_t key_width = partition_indexes_.size();
    for (size_t a = 0; a < items_.aggs.size(); ++a) {
      out.columns[input_width + a] = finals_.columns[key_width + a].Gather(
          row_partitions_.data() + offset_, take);
    }
    offset_ += take;
    return std::optional<Chunk>(std::move(out));
  }

 private:
  Status Materialize() {
    std::vector<DataType> types;
    for (const ColumnInfo& c : child_->schema().columns()) {
      types.push_back(c.type);
    }
    data_ = Chunk::Empty(types);
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, child_->Next());
      if (!in.has_value()) break;
      data_.AppendChunk(*in);
    }

    // Partitions are groups: one accumulation over the materialized rows,
    // keyed on the partition columns, with masks evaluated once as
    // selections and expression-valued arguments evaluated once.
    std::vector<Column> expr_args(items_.args.size());
    AggInputView view;
    view.rows = data_.num_rows();
    view.group_cols = KeyColumnsOf(data_, partition_indexes_);
    for (size_t a = 0; a < items_.args.size(); ++a) {
      const BoundArg& arg = items_.args[a];
      if (arg.column >= 0) {
        view.arg_cols.push_back(&data_.columns[arg.column]);
      } else {
        expr_args[a] = arg.expr.EvalAll(data_);
        view.arg_cols.push_back(&expr_args[a]);
      }
    }
    view.masks = items_.mask_set.Evaluate(data_, nullptr);
    GroupTable partitions(items_.aggs, partition_indexes_.empty());
    FUSIONDB_RETURN_IF_ERROR(AccumulateView(view, items_.aggs, &partitions));
    if (partitions.keyless) {
      row_partitions_.assign(view.rows, 0);
    } else {
      row_partitions_ = std::move(partitions.row_ids);
    }
    // One row per partition: its key, then each item's finalized value.
    std::vector<DataType> final_types;
    for (int idx : partition_indexes_) final_types.push_back(types[idx]);
    std::vector<DataType> out_types = OutputTypes();
    final_types.insert(final_types.end(), out_types.begin() + types.size(),
                       out_types.end());
    finals_ = FinalizeGroups(partitions, final_types,
                             partition_indexes_.size());

    int64_t bytes = partitions.bytes();
    for (const Column& c : data_.columns) bytes += c.ByteSize();
    accounted_bytes_ = bytes;
    ctx_->AddHashBytes(bytes, op_id_);
    return Status::OK();
  }

  ExecOperatorPtr child_;
  std::vector<int> partition_indexes_;
  BoundAggs items_;
  // WindowItems converted to AggregateItems so the aggregate build applies.
  std::vector<AggregateItem> item_storage_;
  ExecContext* ctx_;
  Chunk data_;
  std::vector<uint32_t> row_partitions_;  // each row's partition id
  Chunk finals_;                          // one row per partition id
  bool materialized_ = false;
  size_t offset_ = 0;
  int64_t accounted_bytes_ = 0;
  int32_t op_id_ = -1;
};

}  // namespace

Result<ExecOperatorPtr> MakeWindowExec(const WindowOp& op,
                                       ExecOperatorPtr child,
                                       ExecContext* ctx) {
  std::vector<int> partition_indexes;
  partition_indexes.reserve(op.partition_by().size());
  for (ColumnId p : op.partition_by()) {
    int idx = child->schema().IndexOf(p);
    if (idx < 0) {
      return Status::PlanError("window partition column #" + std::to_string(p) +
                               " not in input");
    }
    partition_indexes.push_back(idx);
  }
  // Reuse the aggregate machinery by viewing WindowItems as AggregateItems.
  std::vector<AggregateItem> storage;
  storage.reserve(op.items().size());
  for (const WindowItem& w : op.items()) {
    storage.push_back({w.id, w.name, w.func, w.arg, w.mask, /*distinct=*/false});
  }
  FUSIONDB_ASSIGN_OR_RETURN(BoundAggs items,
                            BindAggs(storage, child->schema()));
  // BoundAgg keeps pointers into `storage`; both are moved into the operator
  // together, and vector moves preserve element addresses.
  return ExecOperatorPtr(new WindowExec(op, std::move(child),
                                        std::move(partition_indexes),
                                        std::move(items), std::move(storage),
                                        ctx));
}

}  // namespace fusiondb::internal
