// Shared hash-aggregation build core: bound (function, mask) aggregates with
// mask/conjunct deduplication, the group table, and the accumulate / merge /
// finalize steps behind the compiled-pipeline aggregate sink
// (exec/pipeline.h) and WindowExec's partitions.
#ifndef FUSIONDB_EXEC_AGG_BUILD_H_
#define FUSIONDB_EXEC_AGG_BUILD_H_

#include <optional>
#include <vector>

#include "exec/agg_state.h"
#include "exec/key_table.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"

namespace fusiondb::internal {

/// Bound form of one aggregate: evaluators for mask and argument. Masks are
/// deduplicated per operator (fusion gives many aggregates the same mask —
/// Q09 ends with 15 aggregates over 5 distinct masks) and evaluated once
/// per chunk; bare-column arguments read the input column directly.
struct BoundAgg {
  const AggregateItem* item;
  std::optional<BoundExpr> arg;
  int arg_column = -1;  // >= 0 when the argument is a bare column reference
  int mask_slot = -1;   // index into the per-chunk mask selections; -1 == TRUE
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
  MaskSet mask_set;
};

Result<BoundAggs> BindAggs(const std::vector<AggregateItem>& items,
                           const Schema& input);

/// The groups of one aggregate sink or window. `keys` gives each group its
/// id; aggregate `a` of group `g` lives at states[g * aggs + a]. A DISTINCT
/// aggregate `a` keeps in distinct[a] the (group id, argument) pairs it has
/// accumulated, or the bare arguments when the table is keyless (no
/// grouping columns, so every row is group 0): a key counts when it is
/// first inserted.
struct GroupTable {
  GroupTable(size_t num_aggs, bool keyless)
      : keyless(keyless), distinct(num_aggs) {}

  bool keyless;
  KeyTable keys;
  std::vector<AggState> states;
  std::vector<KeyTable> distinct;  // one per aggregate; DISTINCT ones only

  /// Memory metric: the key tables plus 64 bytes per aggregate state.
  int64_t bytes() const;
};

/// Column-level view of one morsel's aggregate input: bare-column keys and
/// arguments point into the morsel itself, computed ones at dense columns
/// evaluated off it.
struct AggInputView {
  size_t rows = 0;
  KeyColumns group_cols;
  /// Parallel to the BoundAgg vector; nullptr for COUNT(*) (no argument).
  std::vector<const Column*> arg_cols;
  /// One selection per MaskSet mask, in mask-slot order.
  std::vector<SelVector> masks;
};

/// Accumulates every row of `view` into `groups` (a sink's table, a
/// worker-private partial, or a window's partitions) and returns each
/// row's group id. Two passes: pass 1 resolves each row's
/// group in row order (fixing id order); pass 2 walks each aggregate's
/// mask selection ascending, so every (group, aggregate) state sees its
/// rows in exactly the row-at-a-time order — floating-point sums
/// accumulate deterministically.
std::vector<uint32_t> AccumulateView(const AggInputView& view,
                                     const std::vector<BoundAgg>& aggs,
                                     GroupTable* groups);

/// Folds worker-private partials into `merged` in partial order (partial 0
/// first): groups through KeyTable::Merge, states through AggState::Merge.
/// A DISTINCT aggregate instead re-inserts each partial's keys (under the
/// merged group ids, unless keyless) and accumulates the ones new to the
/// merged table.
/// Deterministic for a fixed worker count.
void MergePartialGroups(const std::vector<BoundAgg>& aggs,
                        std::vector<GroupTable>* partials, GroupTable* merged);

/// Emits one row per group in id order: the decoded grouping values first,
/// then each aggregate's finalized value.
Chunk FinalizeGroups(const GroupTable& groups,
                     const std::vector<BoundAgg>& aggs,
                     const std::vector<DataType>& output_types,
                     size_t group_width);

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_AGG_BUILD_H_
