// Shared hash-aggregation build core: bound (function, mask) aggregates with
// mask/conjunct deduplication, the group hash table, and the accumulate /
// merge / finalize steps behind the compiled-pipeline aggregate sink
// (exec/pipeline.h); WindowExec binds its items through BindAggs too.
#ifndef FUSIONDB_EXEC_AGG_BUILD_H_
#define FUSIONDB_EXEC_AGG_BUILD_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/agg_state.h"
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
/// bucket condition), so each distinct conjunct is evaluated once per chunk
/// and masks intersect selections. Sound for filtering because a conjunction
/// is TRUE iff every conjunct is TRUE.
struct MaskSet {
  std::vector<BoundExpr> conjuncts;          // unique conjunct evaluators
  std::vector<std::vector<int>> mask_slots;  // per mask: conjunct indexes

  size_t num_masks() const { return mask_slots.size(); }

  /// Evaluates all masks over a chunk: one selection vector per mask, each
  /// the intersection of its conjuncts' surviving rows.
  std::vector<SelVector> Evaluate(const Chunk& chunk) const;
};

struct BoundAggs {
  std::vector<BoundAgg> aggs;
  MaskSet mask_set;
};

Result<BoundAggs> BindAggs(const std::vector<AggregateItem>& items,
                           const Schema& input);

/// Per-group state plus one boxed copy of the grouping values (boxed once
/// per group, not per row — rows key on the serialized form).
struct GroupEntry {
  std::vector<Value> representative;
  std::vector<AggState> states;
};
using GroupMap = std::unordered_map<std::string, GroupEntry>;

/// Column-level view of one morsel's aggregate input: bare-column keys and
/// arguments point into the morsel itself, computed ones at dense columns
/// evaluated off it.
struct AggInputView {
  size_t rows = 0;
  std::vector<const Column*> group_cols;
  /// Parallel to the BoundAgg vector; nullptr for COUNT(*) (no argument).
  std::vector<const Column*> arg_cols;
  /// One selection per MaskSet mask, in mask-slot order.
  std::vector<SelVector> masks;
};

/// Accumulates every row of `view` into `groups` (one hash table — the
/// query's for the serial path, a worker-private partial for the parallel
/// path). `key` is the reusable row-key buffer. Two passes: pass 1 resolves
/// each row's group in row order (fixing group-map insertion order); pass 2
/// walks each aggregate's mask selection ascending, so every (group,
/// aggregate) state sees its rows in exactly the row-at-a-time order —
/// floating-point sums accumulate deterministically.
void AccumulateView(const AggInputView& view, const std::vector<BoundAgg>& aggs,
                    GroupMap* groups, std::string* key);

/// Folds worker-private partials into `merged` in partial order (partial 0
/// first), via AggState::Merge for groups present in several partials.
/// Deterministic for a fixed worker count.
void MergePartialGroups(const std::vector<BoundAgg>& aggs,
                        std::vector<GroupMap>* partials, GroupMap* merged);

/// Hash-table footprint for the memory metric: ~48 bytes map overhead plus
/// key bytes per entry, plus each state's AggStateBytes.
int64_t GroupMapBytes(const GroupMap& groups);

/// Emits one row per group in map iteration order: grouping representative
/// values first, then each aggregate's finalized value.
Chunk FinalizeGroups(GroupMap* groups, const std::vector<BoundAgg>& aggs,
                     const std::vector<DataType>& output_types,
                     size_t group_width);

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_AGG_BUILD_H_
