// MorselSource: the input end of a compiled pipeline (exec/pipeline.h).
// A pipeline reads either a table scan — partition pruning, page decode,
// slicing into chunk_size morsels, and scanned-bytes accounting — or the
// output chunks of the operator below its chain (a join, aggregate, window,
// sort, union, values, spool, limit or single-row check). Both sources
// hand the pipeline the same thing, one chunk at a time, so every
// non-blocking chain compiles whatever feeds it.
#ifndef FUSIONDB_EXEC_MORSEL_SOURCE_H_
#define FUSIONDB_EXEC_MORSEL_SOURCE_H_

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace fusiondb::internal {

/// Constraints over the partitioning column extracted from the scan's
/// pruning filter: a [lo, hi] interval intersection plus an optional point
/// set (from = and IN conjuncts).
struct PruneSpec {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool has_points = false;
  std::vector<int64_t> points;

  bool KeepsRange(int64_t min_key, int64_t max_key) const {
    if (max_key < lo || min_key > hi) return false;
    if (has_points) {
      for (int64_t p : points) {
        if (p >= min_key && p <= max_key && p >= lo && p <= hi) return true;
      }
      return false;
    }
    return true;
  }
};

/// Folds one conjunct into the prune spec when it constrains `part_col`.
/// Unrecognized shapes are ignored (pruning is best-effort and the filter
/// above the scan re-checks rows anyway).
void ApplyPruneConjunct(const ExprPtr& e, ColumnId part_col, PruneSpec* spec);

class MorselSource {
 public:
  /// Scan source. `op_id` is the scan's stats slot (-1 when unprofiled);
  /// decoded bytes are attributed to it.
  MorselSource(const ScanOp& op, ExecContext* ctx, int32_t op_id);

  /// Child source: the morsels are the output chunks of `child`, the
  /// already-built operator below the pipeline's chain.
  explicit MorselSource(ExecOperatorPtr child);

  bool is_scan() const { return child_ == nullptr; }

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
  ExecOperatorPtr child_;  // set for child sources only
  TablePtr table_;
  std::vector<int> table_columns_;
  ExecContext* ctx_ = nullptr;
  int32_t op_id_ = -1;
  std::vector<DataType> types_;
  PruneSpec prune_;
  // Serial iteration state.
  size_t partition_ = 0;
  size_t offset_ = 0;
  std::vector<Column> decoded_;  // pages of the partition being streamed
};

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_MORSEL_SOURCE_H_
