// Partitioned window aggregation and MarkDistinct. Windows bind their items
// through the aggregate machinery of exec/agg_build.h (hash aggregation
// itself is the compiled pipelines' aggregate sink, exec/pipeline.h).
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "exec/agg_build.h"
#include "exec/agg_state.h"
#include "exec/operators_internal.h"
#include "exec/row_key.h"
#include "expr/evaluator.h"
#include "expr/simplifier.h"

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
        items_(std::move(items.aggs)),
        mask_set_(std::move(items.mask_set)),
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
    for (size_t a = 0; a < items_.size(); ++a) {
      out.columns[input_width + a].Reserve(take);
      for (size_t r = offset_; r < offset_ + take; ++r) {
        out.columns[input_width + a].AppendValue(results_[a][r]);
      }
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
    size_t rows = data_.num_rows();

    // Partition rows, preserving input order within each partition.
    std::unordered_map<std::string, std::vector<size_t>> partitions;
    std::string key;
    for (size_t r = 0; r < rows; ++r) {
      RowKeyEncoder::Encode(data_, partition_indexes_, r, &key);
      partitions[key].push_back(r);
    }

    // Compute each item per partition and broadcast to member rows. Masks
    // evaluate once as selections; partitions walk their member rows (not
    // ascending globally), so the selections expand to byte masks for
    // random-access membership tests.
    std::vector<SelVector> mask_sels = mask_set_.Evaluate(data_);
    std::vector<std::vector<uint8_t>> bitmaps;
    bitmaps.reserve(mask_sels.size());
    for (const SelVector& s : mask_sels) bitmaps.push_back(s.ToMask(rows));
    // Expression-valued arguments evaluate once over the materialized data.
    std::vector<Column> expr_args(items_.size());
    for (size_t a = 0; a < items_.size(); ++a) {
      const BoundAgg& item = items_[a];
      if (item.arg_column < 0 && item.arg.has_value()) {
        expr_args[a] = item.arg->EvalAll(data_);
      }
    }
    results_.assign(items_.size(), std::vector<Value>(rows));
    for (const auto& [key, members] : partitions) {
      for (size_t a = 0; a < items_.size(); ++a) {
        const BoundAgg& item = items_[a];
        AggState state;
        for (size_t r : members) {
          if (item.mask_slot >= 0 && !bitmaps[item.mask_slot][r]) continue;
          if (item.arg_column >= 0) {
            state.AccumulateColumnRow(*item.item, data_.columns[item.arg_column],
                                      r);
          } else if (item.arg.has_value()) {
            state.AccumulateColumnRow(*item.item, expr_args[a], r);
          } else {
            state.AccumulateRow(*item.item, Value::Bool(true));
          }
        }
        Value v = state.Finalize(*item.item);
        for (size_t r : members) results_[a][r] = v;
      }
    }

    int64_t bytes = 0;
    for (const Column& c : data_.columns) bytes += c.ByteSize();
    bytes += static_cast<int64_t>(partitions.size()) * 64;
    accounted_bytes_ = bytes;
    ctx_->AddHashBytes(bytes, op_id_);
    return Status::OK();
  }

  ExecOperatorPtr child_;
  std::vector<int> partition_indexes_;
  std::vector<BoundAgg> items_;
  MaskSet mask_set_;
  // WindowItems converted to AggregateItems so BoundAgg/AggState apply.
  std::vector<AggregateItem> item_storage_;
  ExecContext* ctx_;
  Chunk data_;
  std::vector<std::vector<Value>> results_;
  bool materialized_ = false;
  size_t offset_ = 0;
  int64_t accounted_bytes_ = 0;
  int32_t op_id_ = -1;
};

class MarkDistinctExec final : public ExecOperator {
 public:
  MarkDistinctExec(const MarkDistinctOp& op, ExecOperatorPtr child,
                   std::vector<int> key_indexes, ExecContext* ctx)
      : ExecOperator(op.schema()),
        child_(std::move(child)),
        key_indexes_(std::move(key_indexes)),
        ctx_(ctx),
        op_id_(ctx->building_op()) {}

  ~MarkDistinctExec() override { ctx_->AddHashBytes(-accounted_bytes_, op_id_); }

  Result<std::optional<Chunk>> Next() override {
    FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, child_->Next());
    if (!in.has_value()) return std::optional<Chunk>();
    size_t rows = in->num_rows();
    Column marker(DataType::kBool);
    marker.Reserve(rows);
    std::string key;
    for (size_t r = 0; r < rows; ++r) {
      RowKeyEncoder::Encode(*in, key_indexes_, r, &key);
      auto [it, inserted] = seen_.insert(key);
      (void)it;
      if (inserted) {
        // ~48 bytes map overhead + key bytes, charged incrementally.
        int64_t bytes = 48 + static_cast<int64_t>(key.size());
        ctx_->AddHashBytes(bytes, op_id_);
        accounted_bytes_ += bytes;
      }
      marker.AppendBool(inserted);
    }
    Chunk out = std::move(*in);
    out.columns.push_back(std::move(marker));
    return std::optional<Chunk>(std::move(out));
  }

 private:
  ExecOperatorPtr child_;
  std::vector<int> key_indexes_;
  ExecContext* ctx_;
  std::unordered_set<std::string> seen_;
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

Result<ExecOperatorPtr> MakeMarkDistinctExec(const MarkDistinctOp& op,
                                             ExecOperatorPtr child,
                                             ExecContext* ctx) {
  std::vector<int> key_indexes;
  key_indexes.reserve(op.distinct_columns().size());
  for (ColumnId c : op.distinct_columns()) {
    int idx = child->schema().IndexOf(c);
    if (idx < 0) {
      return Status::PlanError("mark-distinct column #" + std::to_string(c) +
                               " not in input");
    }
    key_indexes.push_back(idx);
  }
  return ExecOperatorPtr(
      new MarkDistinctExec(op, std::move(child), std::move(key_indexes), ctx));
}

}  // namespace fusiondb::internal
