// Hash join (inner / left / semi) with nested-loop fallback for non-equi
// and cross joins. The build side (right input) is fully buffered, its keys
// get ids from a KeyTable (sealed once built, so one dense int key probes
// by direct address), and a CSR row index lists each key's rows in
// ascending order; all of it is accounted against the working-memory
// metric. An inner or semi join then narrows the scans under its probe
// side to the partitions its build keys can match (DESIGN.md §6.5).
#include <algorithm>
#include <optional>
#include <utility>

#include "exec/key_table.h"
#include "exec/morsel_source.h"
#include "exec/operators_internal.h"
#include "expr/evaluator.h"
#include "expr/simplifier.h"

namespace fusiondb::internal {

namespace {

/// The non-equi part of a join condition, bound against a narrow schema of
/// just the columns it reads: those of the left input, then the right's.
struct JoinResidual {
  BoundExpr expr;
  std::vector<int> left_columns;   // positions in the left input
  std::vector<int> right_columns;  // positions in the build rows
};

/// A probe-side scan a join's runtime filter narrows: the scan's source
/// and the equi-key pair whose left column reaches it unchanged.
struct FilterTarget {
  MorselSource* source = nullptr;
  size_t key = 0;          // index into the join's key pairs
  bool partition = false;  // the column is the scan's int partition column
};

/// Collects each scan under `plan` whose output column reaches `plan`'s
/// column `col` unchanged, with that scan column: through Filters, Projects
/// that pass it on as a bare column reference, and either input of inner
/// and semi joins, whose output rows carry their inputs' values. Any other
/// operator may add, drop or recompute rows, so the walk stops there.
void ScansReaching(const PlanPtr& plan, ColumnId col,
                   std::vector<std::pair<const LogicalOp*, ColumnId>>* out) {
  switch (plan->kind()) {
    case OpKind::kScan:
      out->push_back({plan.get(), col});
      return;
    case OpKind::kFilter:
      ScansReaching(plan->child(0), col, out);
      return;
    case OpKind::kProject:
      for (const NamedExpr& e : Cast<ProjectOp>(*plan).exprs()) {
        if (e.id == col && e.expr != nullptr &&
            e.expr->kind() == ExprKind::kColumnRef) {
          ScansReaching(plan->child(0), e.expr->column_id(), out);
        }
      }
      return;
    case OpKind::kJoin: {
      JoinType type = Cast<JoinOp>(*plan).join_type();
      if (type != JoinType::kInner && type != JoinType::kSemi) return;
      for (const PlanPtr& c : plan->children()) {
        if (c->schema().Contains(col)) ScansReaching(c, col, out);
      }
      return;
    }
    case OpKind::kAggregate:
    case OpKind::kWindow:
    case OpKind::kUnionAll:
    case OpKind::kValues:
    case OpKind::kSort:
    case OpKind::kLimit:
    case OpKind::kEnforceSingleRow:
    case OpKind::kApply:
    case OpKind::kSpool:
      return;
  }
}

/// The probe-side scans an inner or semi join over `left_plan` may narrow:
/// each scan one of the left key columns (positions in `ls`, the left
/// input's schema) reaches, when the probe subtree's build registered
/// exactly one source for that scan node. A node built twice (a shared
/// subplan) cannot tell which source the key reaches.
std::vector<FilterTarget> FilterTargets(const PlanPtr& left_plan,
                                        const Schema& ls,
                                        const std::vector<int>& left_keys,
                                        const std::vector<ScanSource>& scans) {
  std::vector<FilterTarget> targets;
  for (size_t k = 0; k < left_keys.size(); ++k) {
    const ColumnInfo& key = ls.column(static_cast<size_t>(left_keys[k]));
    std::vector<std::pair<const LogicalOp*, ColumnId>> reached;
    ScansReaching(left_plan, key.id, &reached);
    for (const auto& [scan, col] : reached) {
      MorselSource* source = nullptr;
      size_t built = 0;
      for (const ScanSource& s : scans) {
        if (s.scan != scan) continue;
        source = s.source;
        ++built;
      }
      if (built != 1) continue;
      targets.push_back(
          {source, k,
           source->partition_column() == col &&
               PhysicalTypeOf(key.type) == PhysicalType::kInt});
    }
  }
  return targets;
}

class HashJoinExec final : public ExecOperator {
 public:
  HashJoinExec(const JoinOp& op, ExecOperatorPtr left, ExecOperatorPtr right,
               std::vector<int> left_keys, std::vector<int> right_keys,
               std::optional<JoinResidual> residual,
               std::vector<FilterTarget> targets, ExecContext* ctx)
      : ExecOperator(op.schema()),
        join_type_(op.join_type()),
        left_(std::move(left)),
        right_(std::move(right)),
        residual_(std::move(residual)),
        targets_(std::move(targets)),
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
      table_.Seal();
      BuildRowIndex(row_ids);
      PublishRuntimeFilter();
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

  /// Narrows the probe side's target scans before the first probe: a probe
  /// row can only match a build row whose key has no NULL column. With no
  /// such row every target keeps nothing; otherwise a target on its table's
  /// partitioning column keeps the partitions holding one of the build's
  /// distinct keys in that column.
  void PublishRuntimeFilter() {
    if (targets_.empty()) return;
    std::vector<uint32_t> rows;
    for (size_t r = 0; r < right_data_.num_rows(); ++r) {
      bool non_null = true;
      for (int c : right_key_indexes_) {
        non_null &= !right_data_.columns[c].IsNull(r);
      }
      if (non_null) rows.push_back(static_cast<uint32_t>(r));
    }
    for (const FilterTarget& t : targets_) {
      std::vector<int64_t> keys;  // none keeps nothing
      if (!rows.empty()) {
        if (!t.partition) continue;
        const Column& col = right_data_.columns[right_key_indexes_[t.key]];
        keys.reserve(rows.size());
        for (uint32_t r : rows) keys.push_back(col.IntAt(r));
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      }
      t.source->KeepOnly(keys);
    }
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
      table_.Insert(cols, n, row_ids->data());
      return Status::OK();
    }
    size_t workers = pool->num_workers();
    std::vector<KeyTable> partials(workers);
    ParallelRegion region(ctx_);
    FUSIONDB_RETURN_IF_ERROR(pool->ParallelFor(
        workers, [&](size_t /*worker*/, size_t w) -> Status {
          size_t begin = n * w / workers;
          SelVector rows;
          for (size_t r = begin; r < n * (w + 1) / workers; ++r) {
            rows.push_back(static_cast<uint32_t>(r));
          }
          partials[w].Insert(cols, rows, row_ids->data() + begin);
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

  // Sentinel right-row index meaning "no match": the output row carries the
  // left columns plus NULL right columns (left outer join).
  static constexpr uint32_t kNullRight = UINT32_MAX;

  /// Matching runs in batches: the probe loop records candidate (left row,
  /// right row) pairs in emission order, the residual filters each batch of
  /// at most chunk_size candidates vectorized, and the output columns are
  /// built afterwards with bulk gathers.
  void ProbeChunk(const Chunk& in, Chunk* out) {
    size_t rows = in.num_rows();
    std::vector<uint32_t> lrows;
    std::vector<uint32_t> rrows;
    size_t filtered = 0;  // pairs before this index passed the residual
    bool keyed = !right_key_indexes_.empty();
    if (keyed) {
      probe_ids_.resize(rows);
      table_.Find(KeyColumnsOf(in, left_key_indexes_), rows, &probe_scratch_,
                  probe_ids_.data());
    }
    for (size_t r = 0; r < rows; ++r) {
      // Candidates: the key's bucket, or every build row when keyless.
      uint32_t begin = 0;
      uint32_t end = static_cast<uint32_t>(right_data_.num_rows());
      if (keyed) {
        uint32_t id = probe_ids_[r];
        if (id == KeyTable::kNoId) continue;
        begin = bucket_offsets_[id];
        end = bucket_offsets_[id + 1];
      }
      // Without a residual every candidate passes, so a semi join needs
      // only the first.
      if (join_type_ == JoinType::kSemi && !residual_.has_value()) {
        end = std::min(end, begin + 1);
      }
      for (uint32_t i = begin; i < end; ++i) {
        lrows.push_back(static_cast<uint32_t>(r));
        rrows.push_back(keyed ? bucket_rows_[i] : i);
        if (lrows.size() - filtered >= ctx_->chunk_size()) {
          FilterCandidates(in, &lrows, &rrows, &filtered);
        }
      }
    }
    FilterCandidates(in, &lrows, &rrows, &filtered);
    bool any_null_right = false;
    if (join_type_ == JoinType::kSemi) {
      KeepFirstPairPerLeftRow(&lrows, &rrows);
    } else if (join_type_ == JoinType::kLeft) {
      any_null_right = NullExtendUnmatched(rows, &lrows, &rrows);
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

  /// Runs the residual over the candidate pairs from `*filtered` on and
  /// compacts the survivors in place after the earlier ones. Only the
  /// columns the residual reads are gathered, into a narrow chunk laid out
  /// as the residual was bound (left columns, then right).
  void FilterCandidates(const Chunk& in, std::vector<uint32_t>* lrows,
                        std::vector<uint32_t>* rrows, size_t* filtered) const {
    size_t begin = *filtered;
    size_t n = lrows->size() - begin;
    if (residual_.has_value() && n > 0) {
      Chunk pairs;
      for (int c : residual_->left_columns) {
        pairs.columns.push_back(in.columns[c].Gather(lrows->data() + begin, n));
      }
      for (int c : residual_->right_columns) {
        pairs.columns.push_back(
            right_data_.columns[c].Gather(rrows->data() + begin, n));
      }
      // A Dense selection, not EvalFilter: a residual that reads no column
      // still sees all n pairs.
      SelVector pass = SelVector::Dense(n);
      residual_->expr.NarrowFilter(pairs, &pass);
      size_t kept = begin;
      for (uint32_t i : pass) {
        (*lrows)[kept] = (*lrows)[begin + i];
        (*rrows)[kept] = (*rrows)[begin + i];
        ++kept;
      }
      lrows->resize(kept);
      rrows->resize(kept);
    }
    *filtered = lrows->size();
  }

  /// Semi join: keeps each left row's first surviving pair. Survivors are
  /// in left-row order, so one pass compacts them in place.
  static void KeepFirstPairPerLeftRow(std::vector<uint32_t>* lrows,
                                      std::vector<uint32_t>* rrows) {
    size_t kept = 0;
    for (size_t i = 0; i < lrows->size(); ++i) {
      if (kept > 0 && (*lrows)[kept - 1] == (*lrows)[i]) continue;
      (*lrows)[kept] = (*lrows)[i];
      (*rrows)[kept] = (*rrows)[i];
      ++kept;
    }
    lrows->resize(kept);
    rrows->resize(kept);
  }

  /// Left join: emits a (row, kNullRight) pair, in order, for each of the
  /// `rows` left rows no pair survived for. Returns whether any was added.
  static bool NullExtendUnmatched(size_t rows, std::vector<uint32_t>* lrows,
                                  std::vector<uint32_t>* rrows) {
    std::vector<uint32_t> l;
    std::vector<uint32_t> m;
    l.reserve(lrows->size() + rows);
    m.reserve(lrows->size() + rows);
    size_t i = 0;
    for (uint32_t r = 0; r < rows; ++r) {
      if (i == lrows->size() || (*lrows)[i] != r) {
        l.push_back(r);
        m.push_back(kNullRight);
        continue;
      }
      for (; i < lrows->size() && (*lrows)[i] == r; ++i) {
        l.push_back(r);
        m.push_back((*rrows)[i]);
      }
    }
    bool added = l.size() > lrows->size();
    *lrows = std::move(l);
    *rrows = std::move(m);
    return added;
  }

  JoinType join_type_;
  ExecOperatorPtr left_;
  ExecOperatorPtr right_;
  std::optional<JoinResidual> residual_;
  std::vector<FilterTarget> targets_;  // probe-side scans to narrow
  ExecContext* ctx_;

  std::vector<DataType> right_types_;
  std::vector<int> left_key_indexes_;
  std::vector<int> right_key_indexes_;
  Chunk right_data_;
  KeyTable table_;
  KeyTable::Scratch probe_scratch_;
  std::vector<uint32_t> probe_ids_;       // each probe row's key id
  std::vector<uint32_t> bucket_offsets_;  // by key id, plus one end offset
  std::vector<uint32_t> bucket_rows_;     // build rows grouped by key id
  bool built_ = false;
  int64_t accounted_bytes_ = 0;
  int32_t op_id_ = -1;
};

}  // namespace

Result<ExecOperatorPtr> MakeJoinExec(const JoinOp& op, ExecOperatorPtr left,
                                     ExecOperatorPtr right,
                                     std::vector<ScanSource> probe_scans,
                                     ExecContext* ctx) {
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
  std::optional<JoinResidual> residual;
  if (!residual_parts.empty()) {
    ExprPtr residual_expr = CombineConjuncts(residual_parts);
    // Bind against the columns the residual reads, left side first; the
    // probe gathers exactly these for each batch of candidate pairs. A
    // column neither side defines stays out, so binding reports it.
    std::vector<ColumnId> refs;
    CollectColumns(residual_expr, &refs);
    JoinResidual res;
    std::vector<ColumnInfo> narrow;
    auto take_read = [&](const Schema& side, std::vector<int>* positions) {
      for (size_t i = 0; i < side.num_columns(); ++i) {
        const ColumnInfo& c = side.column(i);
        if (std::find(refs.begin(), refs.end(), c.id) == refs.end()) continue;
        positions->push_back(static_cast<int>(i));
        narrow.push_back(c);
      }
    };
    take_read(ls, &res.left_columns);
    take_read(rs, &res.right_columns);
    FUSIONDB_ASSIGN_OR_RETURN(res.expr, BindExpr(residual_expr, Schema(narrow)));
    residual = std::move(res);
  }
  if (op.join_type() == JoinType::kCross &&
      (!left_keys.empty() || residual)) {
    return Status::PlanError("cross join must have TRUE condition");
  }
  // Only an inner or semi join drops every probe row without a matching
  // build key; a left join keeps them all.
  std::vector<FilterTarget> targets;
  if (op.join_type() == JoinType::kInner || op.join_type() == JoinType::kSemi) {
    targets = FilterTargets(op.child(0), ls, left_keys, probe_scans);
  }
  return ExecOperatorPtr(new HashJoinExec(
      op, std::move(left), std::move(right), std::move(left_keys),
      std::move(right_keys), std::move(residual), std::move(targets), ctx));
}

}  // namespace fusiondb::internal
