// Shared hash-aggregation build core: bound (function, mask) aggregates with
// mask/conjunct and argument deduplication, the group table with one
// columnar accumulator per aggregate, and the accumulate / merge / finalize
// steps behind the compiled-pipeline aggregate sink (exec/pipeline.h) and
// WindowExec's partitions. Implements the Athena-style (function, mask)
// pairs of Section III.E; DESIGN.md §10.4.
#ifndef FUSIONDB_EXEC_AGG_BUILD_H_
#define FUSIONDB_EXEC_AGG_BUILD_H_

#include <memory>
#include <vector>

#include "exec/key_table.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"

namespace fusiondb::internal {

/// Bound form of one aggregate: indexes into the operator's deduplicated
/// arguments and masks. Fusion gives many aggregates the same mask (Q09
/// ends with 15 aggregates over 5 distinct masks) and the same argument
/// (fused Q28 reads `ss_list_price` in 18 items), so each distinct mask and
/// argument is evaluated once per chunk.
struct BoundAgg {
  const AggregateItem* item;
  int arg_slot = -1;   // index into BoundAggs::args; -1 for COUNT(*)
  int mask_slot = -1;  // index into the per-chunk mask selections; -1 == TRUE
};

/// One distinct aggregate argument (ExprEquivalent decides which are the
/// same). A bare column reference is read from the input in place.
struct BoundArg {
  BoundExpr expr;
  int column = -1;  // >= 0 when the argument is a bare column reference
};

/// Deduplicated masks shared by a set of aggregates. Masks are stored as
/// lists of *conjunct* slots, and conjuncts are deduplicated across masks
/// (after fusion, `lp_avg_i`, `lp_cnt_i` and `lp_cntd_i` all carry the same
/// bucket condition), so each distinct conjunct is bound once. A mask
/// evaluates by narrowing: each conjunct only visits the rows the mask's
/// earlier conjuncts kept. Sound for filtering because a conjunction is
/// TRUE iff every conjunct is TRUE.
struct MaskSet {
  std::vector<BoundExpr> conjuncts;          // unique conjunct evaluators
  std::vector<std::vector<int>> mask_slots;  // per mask: conjunct indexes

  size_t num_masks() const { return mask_slots.size(); }

  /// Evaluates every mask over the rows of `base` (ascending rows of
  /// `chunk`; nullptr means every row): each narrows a copy of the base by
  /// its conjuncts in turn. Returns one selection per mask in *dense*
  /// coordinates: positions within `base`, ascending and duplicate-free.
  std::vector<SelVector> Evaluate(const Chunk& chunk,
                                  const SelVector* base) const;
};

struct BoundAggs {
  std::vector<BoundAgg> aggs;
  std::vector<BoundArg> args;
  MaskSet mask_set;
};

/// Binds `items` against `input`. SUM and AVG need a numeric argument.
Result<BoundAggs> BindAggs(const std::vector<AggregateItem>& items,
                           const Schema& input);

/// One aggregate's state for every group of a GroupTable: typed vectors
/// indexed by group id (counts, int64 or double sums, MIN/MAX values with a
/// has-value flag). Each (function, argument physical type) has its own
/// accumulate loop, picked from the bound item when a GroupTable is made.
class AggAccumulator {
 public:
  AggAccumulator() = default;
  AggAccumulator(const AggAccumulator&) = delete;
  AggAccumulator(AggAccumulator&&) = delete;
  AggAccumulator& operator=(const AggAccumulator&) = delete;
  AggAccumulator& operator=(AggAccumulator&&) = delete;
  virtual ~AggAccumulator() = default;

  /// Grows to `groups` groups; the new ones start empty.
  virtual void Resize(size_t groups) = 0;

  /// Folds rows of `arg` (nullptr for COUNT(*)) into their groups, in
  /// order: rows sel[0..n), or rows [0, n) when `sel` is nullptr. Row r
  /// goes to group ids[r], or to group 0 when `ids` is nullptr (a keyless
  /// table). Returns false when an int64 SUM overflows.
  virtual bool Accumulate(const Column* arg, const uint32_t* ids,
                          const uint32_t* sel, size_t n) = 0;

  /// Folds `partial`, an accumulator of the same item over other rows,
  /// whose group g is group remap[g] here. Counts and sums add; MIN/MAX
  /// keeps this side's value on a tie. Returns false when an int64 SUM
  /// overflows.
  virtual bool Merge(AggAccumulator* partial,
                     const std::vector<uint32_t>& remap) = 0;

  /// Fills `out`, an empty column of the item's result type, with the
  /// finalized value of groups [0, groups): COUNT is never NULL;
  /// SUM/AVG/MIN/MAX are NULL for a group no row reached.
  virtual void Finalize(size_t groups, Column* out) const = 0;

  /// Memory metric: the element bytes of the state vectors, counted by
  /// size rather than capacity, so the figure is a function of the group
  /// count.
  virtual int64_t bytes() const = 0;
};

/// The groups of one aggregate sink or window. `keys` gives each group its
/// id; accs[a] holds aggregate `a` of every group. A DISTINCT aggregate `a`
/// keeps in distinct[a] the (group id, argument) pairs it has accumulated,
/// or the bare arguments when the table is keyless (no grouping columns, so
/// every row is group 0): a key counts when it is first inserted, so its
/// accumulator never sees a duplicate.
struct GroupTable {
  GroupTable(const std::vector<BoundAgg>& aggs, bool keyless);

  bool keyless;
  KeyTable keys;
  std::vector<std::unique_ptr<AggAccumulator>> accs;
  std::vector<KeyTable> distinct;  // one per aggregate; DISTINCT ones only
  /// The last accumulated view's group id per row; empty when keyless.
  std::vector<uint32_t> row_ids;

  /// Grows every accumulator to the key count.
  void ResizeAccumulators();

  /// Memory metric: the key tables plus the accumulators' bytes.
  int64_t bytes() const;
};

/// Column-level view of one morsel's aggregate input: bare-column keys and
/// arguments point into the morsel itself, computed ones at dense columns
/// evaluated off it.
struct AggInputView {
  size_t rows = 0;
  KeyColumns group_cols;
  /// One column per BoundArg, in argument-slot order.
  std::vector<const Column*> arg_cols;
  /// One selection per MaskSet mask, in mask-slot order.
  std::vector<SelVector> masks;
};

/// Accumulates every row of `view` into `groups` (a sink's table, a
/// worker-private partial, or a window's partitions) and leaves each row's
/// group id in groups->row_ids (unless keyless). Two passes: pass 1
/// resolves each row's group in row order (fixing id order); pass 2 walks
/// each aggregate's mask selection ascending, so every (group, aggregate)
/// sees its rows in exactly the row-at-a-time order — floating-point sums
/// accumulate deterministically. Fails when an int64 SUM overflows.
Status AccumulateView(const AggInputView& view,
                      const std::vector<BoundAgg>& aggs, GroupTable* groups);

/// Folds worker-private partials into `merged` in partial order (partial 0
/// first): groups through KeyTable::Merge, accumulators through
/// AggAccumulator::Merge. A DISTINCT aggregate instead re-inserts each
/// partial's keys (under the merged group ids, unless keyless) and
/// accumulates the ones new to the merged table. Deterministic for a fixed
/// worker count. Fails when an int64 SUM overflows.
Status MergePartialGroups(const std::vector<BoundAgg>& aggs,
                          std::vector<GroupTable>* partials,
                          GroupTable* merged);

/// Emits one row per group in id order: the decoded grouping values first,
/// then each aggregate's finalized value.
Chunk FinalizeGroups(const GroupTable& groups,
                     const std::vector<DataType>& output_types,
                     size_t group_width);

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_AGG_BUILD_H_
