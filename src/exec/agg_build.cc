#include "exec/agg_build.h"

#include "expr/simplifier.h"

namespace fusiondb::internal {

std::vector<SelVector> MaskSet::Evaluate(const Chunk& chunk,
                                         const SelVector* base) const {
  std::vector<SelVector> sels(mask_slots.size());
  std::vector<uint32_t> pos;  // pos[row]: a base row's dense position
  if (base != nullptr) {
    if (base->empty()) return sels;
    pos.resize(size_t{base->indexes().back()} + 1);
    for (size_t i = 0; i < base->size(); ++i) {
      pos[(*base)[i]] = static_cast<uint32_t>(i);
    }
  }
  for (size_t m = 0; m < mask_slots.size(); ++m) {
    SelVector sel =
        base != nullptr ? *base : SelVector::Dense(chunk.num_rows());
    for (int s : mask_slots[m]) {
      if (sel.empty()) break;
      conjuncts[s].NarrowFilter(chunk, &sel);
    }
    if (base != nullptr) {
      for (uint32_t& row : sel.indexes()) row = pos[row];
    }
    sels[m] = std::move(sel);
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

int64_t GroupTable::bytes() const {
  int64_t bytes = keys.bytes() + static_cast<int64_t>(states.size()) * 64;
  for (const KeyTable& pairs : distinct) bytes += pairs.bytes();
  return bytes;
}

std::vector<uint32_t> AccumulateView(const AggInputView& view,
                                     const std::vector<BoundAgg>& aggs,
                                     GroupTable* groups) {
  size_t rows = view.rows;
  std::vector<uint32_t> ids(rows);
  if (rows == 0) return ids;
  const size_t num_aggs = aggs.size();
  // Pass 1: resolve each row's group once, in row order.
  groups->keys.Insert(view.group_cols, rows, ids.data());
  groups->states.resize(groups->keys.size() * num_aggs);
  Column id_col(DataType::kInt64);  // grouped DISTINCT tables' first column
  SelVector valid;                  // a DISTINCT mask's non-NULL arguments
  std::vector<uint32_t> pair_ids;
  std::vector<uint8_t> first;
  // Pass 2: per aggregate, one walk over its mask's surviving rows. Each
  // (group, aggregate) state still sees its rows in ascending order, so
  // floating-point sums accumulate in exactly the row-at-a-time order.
  SelVector dense;
  for (size_t a = 0; a < num_aggs; ++a) {
    const BoundAgg& agg = aggs[a];
    if (agg.mask_slot < 0 && dense.size() != rows) {
      dense = SelVector::Dense(rows);
    }
    const SelVector& sel =
        agg.mask_slot >= 0 ? view.masks[agg.mask_slot] : dense;
    AggState* states = groups->states.data() + a;
    const Column* col = view.arg_cols[a];
    if (col == nullptr) {
      // COUNT(*): no argument to read.
      for (uint32_t r : sel) ++states[ids[r] * num_aggs].mask_rows;
    } else if (!agg.item->distinct) {
      for (uint32_t r : sel) {
        states[ids[r] * num_aggs].AccumulateColumnRow(*agg.item, *col, r);
      }
    } else {
      if (!groups->keyless && id_col.size() != rows) {
        for (uint32_t id : ids) id_col.AppendInt(id);
      }
      valid.clear();
      for (uint32_t r : sel) {
        if (!col->IsNull(r)) valid.push_back(r);
      }
      pair_ids.resize(valid.size());
      first.resize(valid.size());
      groups->distinct[a].Insert(
          groups->keyless ? KeyColumns{col} : KeyColumns{&id_col, col}, valid,
          pair_ids.data(), first.data());
      for (size_t i = 0; i < valid.size(); ++i) {
        if (!first[i]) continue;
        uint32_t r = valid[i];
        states[ids[r] * num_aggs].AccumulateColumnRow(*agg.item, *col, r);
      }
    }
  }
  return ids;
}

void MergePartialGroups(const std::vector<BoundAgg>& aggs,
                        std::vector<GroupTable>* partials, GroupTable* merged) {
  const size_t num_aggs = aggs.size();
  for (GroupTable& part : *partials) {
    std::vector<uint32_t> remap = merged->keys.Merge(part.keys);
    merged->states.resize(merged->keys.size() * num_aggs);
    for (size_t g = 0; g < remap.size(); ++g) {
      for (size_t a = 0; a < num_aggs; ++a) {
        if (aggs[a].item->distinct) continue;
        merged->states[remap[g] * num_aggs + a].Merge(
            *aggs[a].item, std::move(part.states[g * num_aggs + a]));
      }
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggregateItem& item = *aggs[a].item;
      if (!item.distinct) continue;
      // Re-insert the partial's keys (pairs under merged group ids); a key
      // counts when the merged table sees it first.
      Column ids(DataType::kInt64);
      Column args(item.arg->type());
      if (merged->keyless) {
        part.distinct[a].DecodeAll(&args);
      } else {
        Column pairs[2] = {Column(DataType::kInt64), Column(item.arg->type())};
        part.distinct[a].DecodeAll(pairs);
        for (size_t p = 0; p < pairs[0].size(); ++p) {
          ids.AppendInt(remap[pairs[0].IntAt(p)]);
        }
        args = std::move(pairs[1]);
      }
      std::vector<uint32_t> key_ids(args.size());
      std::vector<uint8_t> first(args.size());
      merged->distinct[a].Insert(
          merged->keyless ? KeyColumns{&args} : KeyColumns{&ids, &args},
          args.size(), key_ids.data(), first.data());
      for (size_t p = 0; p < args.size(); ++p) {
        if (!first[p]) continue;
        size_t group = merged->keyless ? 0 : ids.IntAt(p);
        merged->states[group * num_aggs + a].AccumulateColumnRow(item, args,
                                                                 p);
      }
    }
  }
}

Chunk FinalizeGroups(const GroupTable& groups,
                     const std::vector<BoundAgg>& aggs,
                     const std::vector<DataType>& output_types,
                     size_t group_width) {
  Chunk out = Chunk::Empty(output_types);
  groups.keys.DecodeAll(out.columns.data());
  for (size_t a = 0; a < aggs.size(); ++a) {
    Column& col = out.columns[group_width + a];
    for (size_t g = 0; g < groups.keys.size(); ++g) {
      col.AppendValue(groups.states[g * aggs.size() + a].Finalize(*aggs[a].item));
    }
  }
  return out;
}

}  // namespace fusiondb::internal
