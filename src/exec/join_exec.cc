// Hash join (inner / left / semi) with nested-loop fallback for non-equi
// and cross joins. The build side (right input) is fully buffered, its keys
// get ids from a KeyTable, and a CSR row index lists each key's rows in
// ascending order; all of it is accounted against the working-memory
// metric.
#include <optional>
#include <utility>

#include "exec/key_table.h"
#include "exec/operators_internal.h"
#include "expr/evaluator.h"
#include "expr/simplifier.h"

namespace fusiondb::internal {

namespace {

class HashJoinExec final : public ExecOperator {
 public:
  HashJoinExec(const JoinOp& op, ExecOperatorPtr left, ExecOperatorPtr right,
               std::vector<int> left_keys, std::vector<int> right_keys,
               std::optional<BoundExpr> residual, ExecContext* ctx)
      : ExecOperator(op.schema()),
        join_type_(op.join_type()),
        left_(std::move(left)),
        right_(std::move(right)),
        residual_(std::move(residual)),
        ctx_(ctx),
        left_key_indexes_(std::move(left_keys)),
        right_key_indexes_(std::move(right_keys)),
        op_id_(ctx->building_op()) {
    right_types_.reserve(right_->schema().num_columns());
    for (const ColumnInfo& c : right_->schema().columns()) {
      right_types_.push_back(c.type);
    }
  }

  ~HashJoinExec() override { ctx_->AddHashBytes(-accounted_bytes_, op_id_); }

  Result<std::optional<Chunk>> Next() override {
    if (!built_) {
      FUSIONDB_RETURN_IF_ERROR(BuildRight());
      built_ = true;
    }
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, left_->Next());
      if (!in.has_value()) return std::optional<Chunk>();
      Chunk out = Chunk::Empty(OutputTypes());
      ProbeChunk(*in, &out);
      if (out.num_rows() == 0) continue;
      return std::optional<Chunk>(std::move(out));
    }
  }

 private:
  Status BuildRight() {
    right_data_ = Chunk::Empty(right_types_);
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, right_->Next());
      if (!in.has_value()) break;
      right_data_.AppendChunk(*in);
    }
    if (!right_key_indexes_.empty()) {
      std::vector<uint32_t> row_ids(right_data_.num_rows());
      FUSIONDB_RETURN_IF_ERROR(BuildRowIds(&row_ids));
      BuildRowIndex(row_ids);
    }
    // Account buffered rows, key table and row index against working memory.
    int64_t bytes = table_.bytes();
    for (const Column& c : right_data_.columns) bytes += c.ByteSize();
    bytes += static_cast<int64_t>(
        (bucket_offsets_.size() + bucket_rows_.size()) * sizeof(uint32_t));
    accounted_bytes_ = bytes;
    ctx_->AddHashBytes(bytes, op_id_);
    return Status::OK();
  }

  /// Gives each build row its key id; a key with a NULL column gets one
  /// too, but a probe never finds it. Under a pool, worker w inserts rows
  /// [w*n/W, (w+1)*n/W) into a private partial table; the partials merge
  /// into `table_` in worker order and their remaps turn partial ids into
  /// ids here. The probe side stays streaming on the driver thread.
  Status BuildRowIds(std::vector<uint32_t>* row_ids) {
    size_t n = row_ids->size();
    KeyColumns cols = KeyColumnsOf(right_data_, right_key_indexes_);
    ThreadPool* pool = ctx_->pool();
    if (pool == nullptr || n <= 1) {
      for (size_t r = 0; r < n; ++r) (*row_ids)[r] = table_.Insert(cols, r).id;
      return Status::OK();
    }
    size_t workers = pool->num_workers();
    std::vector<KeyTable> partials(workers);
    ParallelRegion region(ctx_);
    FUSIONDB_RETURN_IF_ERROR(pool->ParallelFor(
        workers, [&](size_t /*worker*/, size_t w) -> Status {
          for (size_t r = n * w / workers; r < n * (w + 1) / workers; ++r) {
            (*row_ids)[r] = partials[w].Insert(cols, r).id;
          }
          return Status::OK();
        }));
    for (size_t w = 0; w < workers; ++w) {
      std::vector<uint32_t> remap = table_.Merge(partials[w]);
      for (size_t r = n * w / workers; r < n * (w + 1) / workers; ++r) {
        (*row_ids)[r] = remap[(*row_ids)[r]];
      }
    }
    return Status::OK();
  }

  /// Lays the build rows out by key id (CSR): key `id`'s rows are
  /// bucket_rows_[bucket_offsets_[id] .. bucket_offsets_[id + 1]), in
  /// ascending row order whatever the thread count, so probe output is
  /// identical to single-threaded execution.
  void BuildRowIndex(const std::vector<uint32_t>& row_ids) {
    // Count each key's rows, prefix-sum to bucket ends, then place rows
    // last to first, which leaves each offset at its bucket's start.
    bucket_offsets_.assign(table_.size() + 1, 0);
    for (uint32_t id : row_ids) ++bucket_offsets_[id];
    for (size_t i = 1; i < bucket_offsets_.size(); ++i) {
      bucket_offsets_[i] += bucket_offsets_[i - 1];
    }
    bucket_rows_.resize(row_ids.size());
    for (size_t r = row_ids.size(); r-- > 0;) {
      bucket_rows_[--bucket_offsets_[row_ids[r]]] = static_cast<uint32_t>(r);
    }
  }

  bool PairPasses(const Chunk& left_chunk, size_t lrow, size_t rrow) const {
    if (!residual_.has_value()) return true;
    Value v = residual_->EvalRowPair(left_chunk, lrow, right_data_, rrow,
                                     left_->schema().num_columns());
    return !v.is_null() && v.bool_value();
  }

  // Sentinel right-row index meaning "no match": the output row carries the
  // left columns plus NULL right columns (left outer join).
  static constexpr uint32_t kNullRight = UINT32_MAX;

  /// Matching stays row-at-a-time (key encode + residual EvalRowPair over
  /// candidate pairs), but row assembly is deferred: the probe loop only
  /// records (left row, right row) index pairs in emission order, and the
  /// output columns are built afterwards with bulk gathers.
  void ProbeChunk(const Chunk& in, Chunk* out) {
    size_t rows = in.num_rows();
    size_t right_rows = right_data_.num_rows();
    std::vector<uint32_t> lrows;
    std::vector<uint32_t> rrows;
    bool any_null_right = false;
    KeyColumns probe_keys = KeyColumnsOf(in, left_key_indexes_);
    for (size_t r = 0; r < rows; ++r) {
      bool matched = false;
      if (!right_key_indexes_.empty()) {
        uint32_t id = table_.Find(probe_keys, r);
        if (id != KeyTable::kNoId) {
          for (uint32_t i = bucket_offsets_[id]; i < bucket_offsets_[id + 1];
               ++i) {
            uint32_t m = bucket_rows_[i];
            if (!PairPasses(in, r, m)) continue;
            matched = true;
            lrows.push_back(static_cast<uint32_t>(r));
            rrows.push_back(m);
            if (join_type_ == JoinType::kSemi) break;
          }
        }
      } else {
        for (size_t m = 0; m < right_rows; ++m) {
          if (!PairPasses(in, r, m)) continue;
          matched = true;
          lrows.push_back(static_cast<uint32_t>(r));
          rrows.push_back(static_cast<uint32_t>(m));
          if (join_type_ == JoinType::kSemi) break;
        }
      }
      if (!matched && join_type_ == JoinType::kLeft) {
        lrows.push_back(static_cast<uint32_t>(r));
        rrows.push_back(kNullRight);
        any_null_right = true;
      }
    }
    if (lrows.empty()) return;
    size_t lw = in.num_columns();
    for (size_t c = 0; c < lw; ++c) {
      out->columns[c] = in.columns[c].Gather(lrows.data(), lrows.size());
    }
    if (join_type_ == JoinType::kSemi) return;
    for (size_t c = 0; c < right_data_.num_columns(); ++c) {
      const Column& src = right_data_.columns[c];
      Column& dst = out->columns[lw + c];
      if (!any_null_right) {
        dst = src.Gather(rrows.data(), rrows.size());
        continue;
      }
      dst.Reserve(rrows.size());
      for (uint32_t m : rrows) {
        if (m == kNullRight) {
          dst.AppendNull();
        } else {
          dst.AppendFrom(src, m);
        }
      }
    }
  }

  JoinType join_type_;
  ExecOperatorPtr left_;
  ExecOperatorPtr right_;
  std::optional<BoundExpr> residual_;
  ExecContext* ctx_;

  std::vector<DataType> right_types_;
  std::vector<int> left_key_indexes_;
  std::vector<int> right_key_indexes_;
  Chunk right_data_;
  KeyTable table_;
  std::vector<uint32_t> bucket_offsets_;  // by key id, plus one end offset
  std::vector<uint32_t> bucket_rows_;     // build rows grouped by key id
  bool built_ = false;
  int64_t accounted_bytes_ = 0;
  int32_t op_id_ = -1;
};

}  // namespace

Result<ExecOperatorPtr> MakeJoinExec(const JoinOp& op, ExecOperatorPtr left,
                                     ExecOperatorPtr right, ExecContext* ctx) {
  if (op.condition() == nullptr) {
    return Status::PlanError("join with null condition");
  }
  // Split the condition into hashable equi pairs and a bound residual.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(op.condition(), &conjuncts);
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  std::vector<ExprPtr> residual_parts;
  const Schema& ls = left->schema();
  const Schema& rs = right->schema();
  for (const ExprPtr& c : conjuncts) {
    bool is_equi = false;
    if (c->kind() == ExprKind::kCompare && c->compare_op() == CompareOp::kEq &&
        c->child(0)->kind() == ExprKind::kColumnRef &&
        c->child(1)->kind() == ExprKind::kColumnRef) {
      ColumnId l = c->child(0)->column_id();
      ColumnId r = c->child(1)->column_id();
      if (!ls.Contains(l)) std::swap(l, r);
      // Keys hash on encoded bytes (exec/key_table.h), so both sides must
      // share a physical representation; mismatched pairs fall back to the
      // residual path.
      if (ls.Contains(l) && rs.Contains(r) &&
          PhysicalTypeOf(*ls.TypeOf(l)) == PhysicalTypeOf(*rs.TypeOf(r))) {
        left_keys.push_back(ls.IndexOf(l));
        right_keys.push_back(rs.IndexOf(r));
        is_equi = true;
      }
    }
    if (!is_equi) residual_parts.push_back(c);
  }
  std::optional<BoundExpr> residual;
  if (!residual_parts.empty()) {
    ExprPtr residual_expr = CombineConjuncts(residual_parts);
    // Bind against the combined left+right schema (EvalRowPair splits at the
    // left width), including for semi joins whose *output* lacks right
    // columns.
    std::vector<ColumnInfo> combined = ls.columns();
    for (const ColumnInfo& c : rs.columns()) combined.push_back(c);
    FUSIONDB_ASSIGN_OR_RETURN(BoundExpr bound,
                              BindExpr(residual_expr, Schema(combined)));
    residual = std::move(bound);
  }
  if (op.join_type() == JoinType::kCross &&
      (!left_keys.empty() || residual)) {
    return Status::PlanError("cross join must have TRUE condition");
  }
  return ExecOperatorPtr(new HashJoinExec(op, std::move(left), std::move(right),
                                          std::move(left_keys),
                                          std::move(right_keys),
                                          std::move(residual), ctx));
}

}  // namespace fusiondb::internal
