#include "exec/agg_build.h"

#include "exec/row_key.h"
#include "expr/simplifier.h"

namespace fusiondb::internal {

std::vector<SelVector> MaskSet::Evaluate(const Chunk& chunk) const {
  std::vector<SelVector> conjunct_sels;
  conjunct_sels.reserve(conjuncts.size());
  for (const BoundExpr& c : conjuncts) {
    conjunct_sels.push_back(c.EvalFilter(chunk));
  }
  std::vector<SelVector> sels;
  sels.reserve(mask_slots.size());
  for (const std::vector<int>& slots : mask_slots) {
    SelVector sel;
    bool first = true;
    for (int s : slots) {
      sel = first ? conjunct_sels[s]
                  : SelVector::Intersect(sel, conjunct_sels[s]);
      first = false;
    }
    if (first) sel = SelVector::Dense(chunk.num_rows());
    sels.push_back(std::move(sel));
  }
  return sels;
}

Result<BoundAggs> BindAggs(const std::vector<AggregateItem>& items,
                           const Schema& input) {
  BoundAggs out;
  out.aggs.reserve(items.size());
  std::vector<ExprPtr> seen_masks;      // mask of each mask slot
  std::vector<ExprPtr> seen_conjuncts;  // conjunct of each conjunct slot
  for (const AggregateItem& item : items) {
    BoundAgg b;
    b.item = &item;
    if (item.arg != nullptr) {
      FUSIONDB_ASSIGN_OR_RETURN(BoundExpr e, BindExpr(item.arg, input));
      b.arg = std::move(e);
      if (item.arg->kind() == ExprKind::kColumnRef) {
        b.arg_column = input.IndexOf(item.arg->column_id());
      }
    } else if (item.func != AggFunc::kCountStar) {
      return Status::PlanError("aggregate " + item.name + " missing argument");
    }
    if (item.mask != nullptr && !item.mask->IsLiteralBool(true)) {
      if (item.mask->type() != DataType::kBool) {
        return Status::TypeError("aggregate mask must be boolean");
      }
      for (size_t i = 0; i < seen_masks.size(); ++i) {
        if (ExprEquivalent(seen_masks[i], item.mask)) {
          b.mask_slot = static_cast<int>(i);
          break;
        }
      }
      if (b.mask_slot < 0) {
        std::vector<ExprPtr> parts;
        SplitConjuncts(item.mask, &parts);
        std::vector<int> slots;
        slots.reserve(parts.size());
        for (const ExprPtr& part : parts) {
          int slot = -1;
          for (size_t i = 0; i < seen_conjuncts.size(); ++i) {
            if (ExprEquivalent(seen_conjuncts[i], part)) {
              slot = static_cast<int>(i);
              break;
            }
          }
          if (slot < 0) {
            FUSIONDB_ASSIGN_OR_RETURN(BoundExpr e, BindExpr(part, input));
            slot = static_cast<int>(out.mask_set.conjuncts.size());
            out.mask_set.conjuncts.push_back(std::move(e));
            seen_conjuncts.push_back(part);
          }
          slots.push_back(slot);
        }
        b.mask_slot = static_cast<int>(out.mask_set.mask_slots.size());
        out.mask_set.mask_slots.push_back(std::move(slots));
        seen_masks.push_back(item.mask);
      }
    }
    out.aggs.push_back(std::move(b));
  }
  return out;
}

void AccumulateView(const AggInputView& view, const std::vector<BoundAgg>& aggs,
                    GroupMap* groups, std::string* key) {
  size_t rows = view.rows;
  if (rows == 0) return;
  // Pass 1: resolve each row's group once. The map is node-based, so entry
  // pointers stay stable across later inserts.
  std::vector<GroupEntry*> row_groups(rows);
  for (size_t r = 0; r < rows; ++r) {
    RowKeyEncoder::Encode(view.group_cols, r, key);
    auto [it, inserted] = groups->try_emplace(*key);
    GroupEntry& entry = it->second;
    if (inserted) {
      entry.states.resize(aggs.size());
      entry.representative.reserve(view.group_cols.size());
      for (const Column* g : view.group_cols) {
        entry.representative.push_back(g->GetValue(r));
      }
    }
    row_groups[r] = &entry;
  }
  // Pass 2: per aggregate, one walk over its mask's surviving rows. Each
  // (group, aggregate) state still sees its rows in ascending order, so
  // floating-point sums accumulate in exactly the row-at-a-time order.
  SelVector dense;
  for (size_t a = 0; a < aggs.size(); ++a) {
    const BoundAgg& agg = aggs[a];
    if (agg.mask_slot < 0 && dense.size() != rows) {
      dense = SelVector::Dense(rows);
    }
    const SelVector& sel =
        agg.mask_slot >= 0 ? view.masks[agg.mask_slot] : dense;
    const Column* col = view.arg_cols[a];
    if (col != nullptr) {
      for (uint32_t r : sel) {
        row_groups[r]->states[a].AccumulateColumnRow(*agg.item, *col, r);
      }
    } else {
      // COUNT(*): no argument to read.
      for (uint32_t r : sel) {
        row_groups[r]->states[a].AccumulateRow(*agg.item, Value::Bool(true));
      }
    }
  }
}

void MergePartialGroups(const std::vector<BoundAgg>& aggs,
                        std::vector<GroupMap>* partials, GroupMap* merged) {
  for (GroupMap& pm : *partials) {
    for (auto& [k, entry] : pm) {
      auto [it, inserted] = merged->try_emplace(k);
      if (inserted) {
        it->second = std::move(entry);
      } else {
        GroupEntry& dst = it->second;
        for (size_t a = 0; a < aggs.size(); ++a) {
          dst.states[a].Merge(*aggs[a].item, std::move(entry.states[a]));
        }
      }
    }
  }
}

int64_t GroupMapBytes(const GroupMap& groups) {
  int64_t bytes = 0;
  for (const auto& [k, entry] : groups) {
    bytes += 48 + static_cast<int64_t>(k.size());
    for (const AggState& s : entry.states) bytes += AggStateBytes(s);
  }
  return bytes;
}

Chunk FinalizeGroups(GroupMap* groups, const std::vector<BoundAgg>& aggs,
                     const std::vector<DataType>& output_types,
                     size_t group_width) {
  Chunk out = Chunk::Empty(output_types);
  for (auto& [k, entry] : *groups) {
    for (size_t g = 0; g < group_width; ++g) {
      out.columns[g].AppendValue(entry.representative[g]);
    }
    for (size_t a = 0; a < entry.states.size(); ++a) {
      out.columns[group_width + a].AppendValue(
          entry.states[a].Finalize(*aggs[a].item));
    }
  }
  return out;
}

}  // namespace fusiondb::internal
