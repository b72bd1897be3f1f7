// MorselSource: the input end of a compiled pipeline (exec/pipeline.h).
// A pipeline reads either a table scan — partition pruning, page decode,
// slicing into chunk_size morsels, and scanned-bytes accounting — or the
// output chunks of the operator below its chain (a join, aggregate, window,
// sort, union, values, spool, limit or single-row check). Both sources
// hand the pipeline the same thing, one chunk at a time, so every
// non-blocking chain compiles whatever feeds it.
#ifndef FUSIONDB_EXEC_MORSEL_SOURCE_H_
#define FUSIONDB_EXEC_MORSEL_SOURCE_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace fusiondb::internal {

/// Constraints over the partitioning column: a [lo, hi] interval
/// intersection plus an optional set of points, sorted and distinct. A
/// scan's static spec comes from the Filter directly above it (the
/// column's interval under TightenDomains; IN conjuncts give points); its
/// runtime spec from the hash joins above it, each of which keeps only the
/// partitions holding one of its build keys. A point set with no points
/// keeps nothing.
struct PruneSpec {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool has_points = false;
  std::vector<int64_t> points;

  /// Whether a partition whose keys span [min_key, max_key] may hold a row
  /// the spec accepts: binary search for the first point in range.
  bool KeepsRange(int64_t min_key, int64_t max_key) const {
    int64_t from = std::max(min_key, lo);
    int64_t to = std::min(max_key, hi);
    if (from > to) return false;
    if (!has_points) return true;
    auto it = std::lower_bound(points.begin(), points.end(), from);
    return it != points.end() && *it <= to;
  }

  /// Narrows the spec to `keys` (sorted, distinct): intersects them with
  /// the points already held, or installs them as the point set.
  void KeepOnly(const std::vector<int64_t>& keys);
};

/// The partitions of `op`'s table that `predicate` may keep: the predicate
/// of the Filter whose child `op` is, or nullptr (keep all) for a scan with
/// no Filter directly above. Only that Filter sees every row the scan
/// emits, so no other predicate may prune it. CompilePipeline prunes a scan
/// source by it and ScanBytes (exec/executor.h) counts by it, so the bytes
/// the server decides sharing on and the bytes a run charges follow one
/// rule.
PruneSpec StaticPruneSpec(const ScanOp& op, const ExprPtr& predicate);

class MorselSource {
 public:
  /// Scan source reading the partitions `prune` keeps (StaticPruneSpec).
  /// `op_id` is the scan's stats slot (-1 when unprofiled); decoded and
  /// pruned bytes are attributed to it. The source registers
  /// itself with `ctx` under `op`, so a hash join above it can find it and
  /// narrow its runtime spec (ExecContext::scan_sources); it must therefore
  /// stay at one address, and sources are neither copied nor moved.
  MorselSource(const ScanOp& op, PruneSpec prune, ExecContext* ctx,
               int32_t op_id);

  /// Child source: the morsels are the output chunks of `child`, the
  /// already-built operator below the pipeline's chain.
  explicit MorselSource(ExecOperatorPtr child);

  MorselSource(const MorselSource&) = delete;
  MorselSource& operator=(const MorselSource&) = delete;

  bool is_scan() const { return child_ == nullptr; }

  /// Scan sources only: the output column of the table's partitioning
  /// column, or kInvalidColumnId when the scan does not read it.
  ColumnId partition_column() const { return part_out_; }

  /// Scan sources only: narrows the runtime spec to the partitions holding
  /// one of `keys` (sorted, distinct; none keeps nothing). Called on the
  /// driver before the scan reads its first partition; a partition only
  /// the runtime spec skips counts in runtime_pruned_partitions and its
  /// bytes in runtime_pruned_bytes, so bytes_scanned + runtime_pruned_bytes
  /// is the bytes the static spec alone reads.
  void KeepOnly(const std::vector<int64_t>& keys) { runtime_.KeepOnly(keys); }

  /// Scan sources only: total partition count before pruning — the size
  /// callers need when collecting per-partition results in partition order.
  size_t num_partitions() const { return table_->partitions().size(); }

  /// Serial iteration: the next morsel, or nullopt at end of input. A scan
  /// yields up to chunk_size rows (whole partitions hand their decoded
  /// columns over without a copy) and charges scan metrics inline on the
  /// driver thread; a child source yields the child's next chunk.
  Result<std::optional<Chunk>> NextSerial();

  /// Child sources only: drains the child on the driver (operators are not
  /// thread-safe) into `out`, keeping nonempty chunks in arrival order, so
  /// workers can then process them.
  Status DrainChild(std::vector<Chunk>* out);

  /// Scan sources only — parallel iteration: one ParallelFor over the
  /// partitions. For every
  /// surviving partition, `fn(worker, partition_index, slices)` runs on the
  /// claiming worker with the partition's morsels (sliced exactly as
  /// NextSerial slices them). Workers accumulate scan metrics into private
  /// shards merged once at region end; the per-scan byte total is
  /// attributed on the driver after the merge, so every counter is
  /// thread-count-invariant.
  Status ParallelPartitions(
      const std::function<Status(size_t worker, size_t partition,
                                 std::vector<Chunk> slices)>& fn);

 private:
  /// Whether partition `p` is read; a skipped one is counted into `m`.
  bool Keeps(const Partition& p, ExecMetrics* m) const;

  ExecOperatorPtr child_;  // set for child sources only
  TablePtr table_;
  std::vector<int> table_columns_;
  ExecContext* ctx_ = nullptr;
  int32_t op_id_ = -1;
  std::vector<DataType> types_;
  ColumnId part_out_ = kInvalidColumnId;
  PruneSpec prune_;    // from the Filter directly above the scan
  PruneSpec runtime_;  // from the build keys of hash joins above the scan
  // Serial iteration state.
  size_t partition_ = 0;
  size_t offset_ = 0;
  std::vector<Column> decoded_;  // pages of the partition being streamed
};

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_MORSEL_SOURCE_H_
