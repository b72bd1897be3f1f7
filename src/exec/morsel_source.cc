// MorselSource: the scan (partition pruning, page decode, scanned-bytes
// accounting) or child operator a compiled pipeline reads from.
#include "exec/morsel_source.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "analysis/plan_props.h"
#include "expr/simplifier.h"

namespace fusiondb::internal {

void PruneSpec::KeepOnly(const std::vector<int64_t>& keys) {
  if (!has_points) {
    has_points = true;
    points = keys;
    return;
  }
  std::vector<int64_t> both;
  std::set_intersection(points.begin(), points.end(), keys.begin(), keys.end(),
                        std::back_inserter(both));
  points = std::move(both);
}

namespace {

bool IsIntClass(const Value& v) {
  return !v.is_null() && PhysicalTypeOf(v.type()) == PhysicalType::kInt;
}

/// The output column of `op`'s table partitioning column, or
/// kInvalidColumnId when the scan does not read it.
ColumnId PartitionOutput(const ScanOp& op) {
  int part_table_col = op.table()->partition_column();
  if (part_table_col < 0) return kInvalidColumnId;
  for (size_t i = 0; i < op.table_columns().size(); ++i) {
    if (op.table_columns()[i] == part_table_col) return op.schema().column(i).id;
  }
  return kInvalidColumnId;
}

}  // namespace

PruneSpec StaticPruneSpec(const ScanOp& op, const ExprPtr& predicate) {
  PruneSpec spec;
  ColumnId part_col = PartitionOutput(op);
  if (predicate == nullptr || part_col == kInvalidColumnId) return spec;
  // The interval: the partition column's domain, int-class bounds only, a
  // strict bound closed by one (saturating, which keeps a superset).
  DomainMap domains;
  TightenDomains(predicate, &domains);
  auto it = domains.find(part_col);
  if (it != domains.end()) {
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    const ValueBound& lo = it->second.lo;
    const ValueBound& hi = it->second.hi;
    if (lo.has && IsIntClass(lo.value)) {
      int64_t v = lo.value.int_value();
      spec.lo = lo.strict && v < kMax ? v + 1 : v;
    }
    if (hi.has && IsIntClass(hi.value)) {
      int64_t v = hi.value.int_value();
      spec.hi = hi.strict && v > kMin ? v - 1 : v;
    }
  }
  // The points: several IN conjuncts keep the union of their points, a
  // superset of what the filter admits, so never wrong.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(predicate, &conjuncts);
  for (const ExprPtr& e : conjuncts) {
    if (e->kind() != ExprKind::kInList ||
        e->child(0)->kind() != ExprKind::kColumnRef ||
        e->child(0)->column_id() != part_col ||
        !std::all_of(e->children().begin() + 1, e->children().end(),
                     [](const ExprPtr& item) {
                       return item->kind() == ExprKind::kLiteral &&
                              IsIntClass(item->literal());
                     })) {
      continue;
    }
    spec.has_points = true;
    for (size_t i = 1; i < e->children().size(); ++i) {
      spec.points.push_back(e->child(i)->literal().int_value());
    }
  }
  std::sort(spec.points.begin(), spec.points.end());
  spec.points.erase(std::unique(spec.points.begin(), spec.points.end()),
                    spec.points.end());
  return spec;
}

MorselSource::MorselSource(const ScanOp& op, PruneSpec prune, ExecContext* ctx,
                           int32_t op_id)
    : table_(op.table()),
      table_columns_(op.table_columns()),
      ctx_(ctx),
      op_id_(op_id),
      part_out_(PartitionOutput(op)),
      prune_(std::move(prune)) {
  types_.reserve(op.schema().num_columns());
  for (size_t i = 0; i < op.schema().num_columns(); ++i) {
    types_.push_back(op.schema().column(i).type);
  }
  ctx_->AddScanSource(&op, this);
}

bool MorselSource::Keeps(const Partition& p, ExecMetrics* m) const {
  if (!prune_.KeepsRange(p.min_key, p.max_key)) {
    ++m->partitions_pruned;
    return false;
  }
  if (runtime_.KeepsRange(p.min_key, p.max_key)) return true;
  ++m->partitions_pruned;
  ++m->runtime_pruned_partitions;
  for (int c : table_columns_) m->runtime_pruned_bytes += p.column_bytes[c];
  return false;
}

MorselSource::MorselSource(ExecOperatorPtr child) : child_(std::move(child)) {}

Result<std::optional<Chunk>> MorselSource::NextSerial() {
  if (child_ != nullptr) return child_->Next();
  const auto& partitions = table_->partitions();
  while (true) {
    if (partition_ >= partitions.size()) return std::optional<Chunk>();
    const Partition& p = partitions[partition_];
    if (offset_ == 0) {
      ExecMetrics m;
      if (!Keeps(p, &m)) {
        ctx_->AddScanMetrics(op_id_, m);
        ++partition_;
        continue;
      }
      // Decode the pages this scan reads (the engine's analogue of the
      // S3-read + Parquet-decode cost the paper bills for) and charge
      // their bytes, once per partition touched.
      decoded_.clear();
      decoded_.reserve(table_columns_.size());
      for (int c : table_columns_) {
        FUSIONDB_ASSIGN_OR_RETURN(Column col, DecodeColumn(p.columns[c]));
        decoded_.push_back(std::move(col));
        m.bytes_scanned += p.column_bytes[c];
      }
      ++m.partitions_scanned;
      m.rows_scanned = static_cast<int64_t>(p.num_rows());
      ctx_->AddScanMetrics(op_id_, m);
    }
    size_t rows = p.num_rows();
    if (offset_ >= rows) {
      ++partition_;
      offset_ = 0;
      continue;
    }
    size_t take = std::min(ctx_->chunk_size(), rows - offset_);
    Chunk out = Chunk::Empty(types_);
    if (offset_ == 0 && take == rows) {
      // Whole partition fits in one chunk: hand the decoded columns over.
      out.columns = std::move(decoded_);
      decoded_.clear();
    } else {
      for (size_t i = 0; i < table_columns_.size(); ++i) {
        out.columns[i].AppendRange(decoded_[i], offset_, take);
      }
    }
    offset_ += take;
    if (offset_ >= rows) {
      ++partition_;
      offset_ = 0;
    }
    return std::optional<Chunk>(std::move(out));
  }
}

Status MorselSource::DrainChild(std::vector<Chunk>* out) {
  while (true) {
    FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, child_->Next());
    if (!in.has_value()) return Status::OK();
    if (in->num_rows() > 0) out->push_back(std::move(*in));
  }
}

Status MorselSource::ParallelPartitions(
    const std::function<Status(size_t worker, size_t partition,
                               std::vector<Chunk> slices)>& fn) {
  const auto& partitions = table_->partitions();
  ThreadPool* pool = ctx_->pool();
  std::vector<ExecMetrics> shards(pool->num_workers());
  ParallelRegion region(ctx_);
  Status st = pool->ParallelFor(
      partitions.size(), [&](size_t worker, size_t pi) -> Status {
        const Partition& p = partitions[pi];
        ExecMetrics& m = shards[worker];
        if (!Keeps(p, &m)) return Status::OK();
        std::vector<Column> decoded;
        decoded.reserve(table_columns_.size());
        for (int c : table_columns_) {
          FUSIONDB_ASSIGN_OR_RETURN(Column col, DecodeColumn(p.columns[c]));
          decoded.push_back(std::move(col));
          m.bytes_scanned += p.column_bytes[c];
        }
        ++m.partitions_scanned;
        size_t rows = p.num_rows();
        m.rows_scanned += static_cast<int64_t>(rows);
        std::vector<Chunk> slices;
        if (rows <= ctx_->chunk_size()) {
          Chunk chunk = Chunk::Empty(types_);
          chunk.columns = std::move(decoded);
          if (rows > 0) slices.push_back(std::move(chunk));
        } else {
          for (size_t offset = 0; offset < rows; offset += ctx_->chunk_size()) {
            size_t take = std::min(ctx_->chunk_size(), rows - offset);
            Chunk chunk = Chunk::Empty(types_);
            for (size_t i = 0; i < decoded.size(); ++i) {
              chunk.columns[i].AppendRange(decoded[i], offset, take);
            }
            slices.push_back(std::move(chunk));
          }
        }
        if (slices.empty()) return Status::OK();
        return fn(worker, pi, std::move(slices));
      });
  FUSIONDB_RETURN_IF_ERROR(st);
  // Charged on the driver, after the region ran: the per-scan totals are
  // thread-count-invariant because the shard sums are.
  for (const ExecMetrics& shard : shards) ctx_->AddScanMetrics(op_id_, shard);
  return Status::OK();
}

}  // namespace fusiondb::internal
