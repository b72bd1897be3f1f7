#include "exec/agg_build.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

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

namespace {

/// Calls f(row, group) for rows sel[0..n), or rows [0, n) when `sel` is
/// nullptr, in order; row r's group is ids[r], or 0 when `ids` is nullptr.
/// Each of the four cases is its own loop.
template <typename F>
inline void ForEachRow(const uint32_t* ids, const uint32_t* sel, size_t n,
                       const F& f) {
  if (ids == nullptr) {
    if (sel == nullptr) {
      for (size_t i = 0; i < n; ++i) f(i, 0);
    } else {
      for (size_t i = 0; i < n; ++i) f(sel[i], 0);
    }
  } else if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i) f(i, ids[i]);
  } else {
    for (size_t i = 0; i < n; ++i) f(sel[i], ids[sel[i]]);
  }
}

/// A column's value buffer as T: int64_t for int-physical columns (bool,
/// int64, date), double or std::string for the others.
template <typename T>
const T* DataOf(const Column& col) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return col.ints_data();
  } else if constexpr (std::is_same_v<T, double>) {
    return col.doubles_data();
  } else {
    return col.strings_data();
  }
}

template <typename T>
T* MutableDataOf(Column* col) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return col->mutable_ints_data();
  } else if constexpr (std::is_same_v<T, double>) {
    return col->mutable_doubles_data();
  } else {
    return col->mutable_strings_data();
  }
}

/// COUNT(*) (kStar: every row) or COUNT(arg) (its non-NULL rows).
template <bool kStar>
class CountAccumulator final : public AggAccumulator {
 public:
  void Resize(size_t groups) override { counts_.resize(groups, 0); }

  bool Accumulate(const Column* arg, const uint32_t* ids, const uint32_t* sel,
                  size_t n) override {
    int64_t* counts = counts_.data();
    if constexpr (kStar) {
      if (ids == nullptr) {
        counts[0] += static_cast<int64_t>(n);
      } else {
        ForEachRow(ids, sel, n, [&](size_t, uint32_t g) { ++counts[g]; });
      }
    } else {
      const uint8_t* valid = arg->valid_data();
      ForEachRow(ids, sel, n,
                 [&](size_t r, uint32_t g) { counts[g] += valid[r]; });
    }
    return true;
  }

  bool Merge(AggAccumulator* partial,
             const std::vector<uint32_t>& remap) override {
    const auto& other = static_cast<const CountAccumulator&>(*partial);
    for (size_t g = 0; g < remap.size(); ++g) {
      counts_[remap[g]] += other.counts_[g];
    }
    return true;
  }

  void Finalize(size_t groups, Column* out) const override {
    out->Resize(groups);
    std::copy_n(counts_.begin(), groups, out->mutable_ints_data());
    std::fill_n(out->mutable_valid_data(), groups, 1);
  }

  int64_t bytes() const override {
    return static_cast<int64_t>(counts_.size() * sizeof(int64_t));
  }

 private:
  std::vector<int64_t> counts_;
};

/// SUM, or AVG when kAvg, over an argument read as In (int64_t or double):
/// per group, the count of non-NULL rows and a running Sum. SUM over ints
/// adds in int64 and detects overflow; AVG over ints keeps a double running
/// sum of the converted values, as the row-at-a-time engine did.
template <typename In, typename Sum, bool kAvg>
class SumAccumulator final : public AggAccumulator {
  static constexpr bool kChecked = std::is_same_v<Sum, int64_t>;

 public:
  void Resize(size_t groups) override {
    counts_.resize(groups, 0);
    sums_.resize(groups, Sum{0});
  }

  bool Accumulate(const Column* arg, const uint32_t* ids, const uint32_t* sel,
                  size_t n) override {
    const uint8_t* valid = arg->valid_data();
    const In* data = DataOf<In>(*arg);
    int64_t* counts = counts_.data();
    Sum* sums = sums_.data();
    bool overflow = false;
    // Branch-free: a NULL row adds 0. A double running sum starts at +0.0
    // and so is never -0.0, which makes adding +0.0 leave it unchanged.
    ForEachRow(ids, sel, n, [&](size_t r, uint32_t g) {
      const bool v = valid[r] != 0;
      counts[g] += v;
      const Sum x = v ? static_cast<Sum>(data[r]) : Sum{0};
      if constexpr (kChecked) {
        overflow |= __builtin_add_overflow(sums[g], x, &sums[g]);
      } else {
        sums[g] += x;
      }
    });
    return !overflow;
  }

  bool Merge(AggAccumulator* partial,
             const std::vector<uint32_t>& remap) override {
    const auto& other = static_cast<const SumAccumulator&>(*partial);
    bool overflow = false;
    for (size_t g = 0; g < remap.size(); ++g) {
      const uint32_t to = remap[g];
      counts_[to] += other.counts_[g];
      if constexpr (kChecked) {
        overflow |= __builtin_add_overflow(sums_[to], other.sums_[g],
                                           &sums_[to]);
      } else {
        sums_[to] += other.sums_[g];
      }
    }
    return !overflow;
  }

  void Finalize(size_t groups, Column* out) const override {
    out->Resize(groups);
    uint8_t* valid = out->mutable_valid_data();
    auto* values = MutableDataOf<std::conditional_t<kAvg, double, Sum>>(out);
    for (size_t g = 0; g < groups; ++g) {
      if (counts_[g] == 0) continue;  // no row: NULL
      valid[g] = 1;
      if constexpr (kAvg) {
        values[g] = sums_[g] / static_cast<double>(counts_[g]);
      } else {
        values[g] = sums_[g];
      }
    }
  }

  int64_t bytes() const override {
    return static_cast<int64_t>(counts_.size() * sizeof(int64_t) +
                                sums_.size() * sizeof(Sum));
  }

 private:
  std::vector<int64_t> counts_;
  std::vector<Sum> sums_;
};

/// MIN, or MAX when kMax, over an argument read as T (int64_t, double or
/// std::string): per group, the best value and whether there is one. The
/// order is Value::Compare's: ints compare as doubles, and a NaN compares
/// equal to everything, so of values that compare equal the first seen
/// stays.
template <typename T, bool kMax>
class MinMaxAccumulator final : public AggAccumulator {
  static bool Better(const T& x, const T& best) {
    if constexpr (std::is_same_v<T, int64_t>) {
      const auto a = static_cast<double>(x);
      const auto b = static_cast<double>(best);
      return kMax ? a > b : a < b;
    } else {
      return kMax ? x > best : x < best;
    }
  }

 public:
  void Resize(size_t groups) override {
    values_.resize(groups);
    has_.resize(groups, 0);
  }

  bool Accumulate(const Column* arg, const uint32_t* ids, const uint32_t* sel,
                  size_t n) override {
    const uint8_t* valid = arg->valid_data();
    const T* data = DataOf<T>(*arg);
    T* values = values_.data();
    uint8_t* has = has_.data();
    ForEachRow(ids, sel, n, [&](size_t r, uint32_t g) {
      if (valid[r] == 0) return;
      if (has[g] == 0 || Better(data[r], values[g])) {
        values[g] = data[r];
        has[g] = 1;
      }
    });
    return true;
  }

  bool Merge(AggAccumulator* partial,
             const std::vector<uint32_t>& remap) override {
    auto& other = static_cast<MinMaxAccumulator&>(*partial);
    for (size_t g = 0; g < remap.size(); ++g) {
      if (other.has_[g] == 0) continue;
      const uint32_t to = remap[g];
      if (has_[to] == 0 || Better(other.values_[g], values_[to])) {
        values_[to] = std::move(other.values_[g]);
        has_[to] = 1;
      }
    }
    return true;
  }

  void Finalize(size_t groups, Column* out) const override {
    out->Resize(groups);
    uint8_t* valid = out->mutable_valid_data();
    T* values = MutableDataOf<T>(out);
    for (size_t g = 0; g < groups; ++g) {
      if (has_[g] == 0) continue;  // no row: NULL
      valid[g] = 1;
      values[g] = values_[g];
    }
  }

  int64_t bytes() const override {
    return static_cast<int64_t>(values_.size() * sizeof(T) + has_.size());
  }

 private:
  std::vector<T> values_;
  std::vector<uint8_t> has_;
};

template <bool kMax>
std::unique_ptr<AggAccumulator> MakeMinMax(DataType arg) {
  switch (PhysicalTypeOf(arg)) {
    case PhysicalType::kInt:
      return std::make_unique<MinMaxAccumulator<int64_t, kMax>>();
    case PhysicalType::kDouble:
      return std::make_unique<MinMaxAccumulator<double, kMax>>();
    case PhysicalType::kString:
      return std::make_unique<MinMaxAccumulator<std::string, kMax>>();
  }
  return nullptr;
}

Status SumOverflow(const AggregateItem& item) {
  return Status::ExecutionError("integer overflow in " +
                                std::string(AggFuncName(item.func)) +
                                " aggregate '" + item.name + "'");
}

/// The accumulator of `item`'s function over its argument's physical type.
/// SUM and AVG over a string never get here (BindAggs rejects them).
std::unique_ptr<AggAccumulator> MakeAccumulator(const AggregateItem& item) {
  const bool doubles =
      item.arg != nullptr && item.arg->type() == DataType::kFloat64;
  switch (item.func) {
    case AggFunc::kCountStar:
      return std::make_unique<CountAccumulator<true>>();
    case AggFunc::kCount:
      return std::make_unique<CountAccumulator<false>>();
    case AggFunc::kSum:
      if (doubles) {
        return std::make_unique<SumAccumulator<double, double, false>>();
      }
      return std::make_unique<SumAccumulator<int64_t, int64_t, false>>();
    case AggFunc::kAvg:
      if (doubles) {
        return std::make_unique<SumAccumulator<double, double, true>>();
      }
      return std::make_unique<SumAccumulator<int64_t, double, true>>();
    case AggFunc::kMin:
      return MakeMinMax<false>(item.arg->type());
    case AggFunc::kMax:
      return MakeMinMax<true>(item.arg->type());
  }
  return nullptr;
}

/// The index of the first expression in `seen` equivalent to `expr`, or -1.
int FindEquivalent(const std::vector<ExprPtr>& seen, const ExprPtr& expr) {
  for (size_t i = 0; i < seen.size(); ++i) {
    if (ExprEquivalent(seen[i], expr)) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

Result<BoundAggs> BindAggs(const std::vector<AggregateItem>& items,
                           const Schema& input) {
  BoundAggs out;
  out.aggs.reserve(items.size());
  std::vector<ExprPtr> seen_args;       // argument of each argument slot
  std::vector<ExprPtr> seen_masks;      // mask of each mask slot
  std::vector<ExprPtr> seen_conjuncts;  // conjunct of each conjunct slot
  for (const AggregateItem& item : items) {
    BoundAgg b;
    b.item = &item;
    if (item.arg != nullptr) {
      if ((item.func == AggFunc::kSum || item.func == AggFunc::kAvg) &&
          item.arg->type() == DataType::kString) {
        return Status::TypeError("aggregate " + item.name +
                                 " needs a numeric argument");
      }
      b.arg_slot = FindEquivalent(seen_args, item.arg);
      if (b.arg_slot < 0) {
        FUSIONDB_ASSIGN_OR_RETURN(BoundExpr e, BindExpr(item.arg, input));
        int column = item.arg->kind() == ExprKind::kColumnRef
                         ? input.IndexOf(item.arg->column_id())
                         : -1;
        b.arg_slot = static_cast<int>(out.args.size());
        out.args.push_back({std::move(e), column});
        seen_args.push_back(item.arg);
      }
    } else if (item.func != AggFunc::kCountStar) {
      return Status::PlanError("aggregate " + item.name + " missing argument");
    }
    if (item.mask != nullptr && !item.mask->IsLiteralBool(true)) {
      if (item.mask->type() != DataType::kBool) {
        return Status::TypeError("aggregate mask must be boolean");
      }
      b.mask_slot = FindEquivalent(seen_masks, item.mask);
      if (b.mask_slot < 0) {
        std::vector<ExprPtr> parts;
        SplitConjuncts(item.mask, &parts);
        std::vector<int> slots;
        slots.reserve(parts.size());
        for (const ExprPtr& part : parts) {
          int slot = FindEquivalent(seen_conjuncts, part);
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
    out.aggs.push_back(b);
  }
  return out;
}

GroupTable::GroupTable(const std::vector<BoundAgg>& aggs, bool keyless)
    : keyless(keyless), distinct(aggs.size()) {
  accs.reserve(aggs.size());
  for (const BoundAgg& agg : aggs) accs.push_back(MakeAccumulator(*agg.item));
}

void GroupTable::ResizeAccumulators() {
  for (const std::unique_ptr<AggAccumulator>& acc : accs) {
    acc->Resize(keys.size());
  }
}

int64_t GroupTable::bytes() const {
  int64_t bytes = keys.bytes();
  for (const std::unique_ptr<AggAccumulator>& acc : accs) bytes += acc->bytes();
  for (const KeyTable& pairs : distinct) bytes += pairs.bytes();
  return bytes;
}

Status AccumulateView(const AggInputView& view,
                      const std::vector<BoundAgg>& aggs, GroupTable* groups) {
  const size_t rows = view.rows;
  groups->row_ids.clear();
  if (rows == 0) return Status::OK();
  // Pass 1: resolve each row's group once, in row order. A keyless table
  // has the one group 0 and no ids.
  const uint32_t* ids = nullptr;
  if (groups->keyless) {
    uint32_t group;
    groups->keys.Insert({}, 1, &group);
  } else {
    groups->row_ids.resize(rows);
    groups->keys.Insert(view.group_cols, rows, groups->row_ids.data());
    ids = groups->row_ids.data();
  }
  groups->ResizeAccumulators();
  Column id_col(DataType::kInt64);  // grouped DISTINCT tables' first column
  SelVector valid;                  // a DISTINCT mask's non-NULL arguments
  SelVector fresh;                  // those new to its DISTINCT table
  std::vector<uint32_t> pair_ids;
  std::vector<uint8_t> first;
  // Pass 2: per aggregate, one walk over its mask's surviving rows (every
  // row when unmasked).
  for (size_t a = 0; a < aggs.size(); ++a) {
    const BoundAgg& agg = aggs[a];
    const SelVector* mask =
        agg.mask_slot >= 0 ? &view.masks[agg.mask_slot] : nullptr;
    const uint32_t* sel = mask != nullptr ? mask->data() : nullptr;
    const size_t n = mask != nullptr ? mask->size() : rows;
    const Column* col =
        agg.arg_slot >= 0 ? view.arg_cols[agg.arg_slot] : nullptr;
    AggAccumulator& acc = *groups->accs[a];
    bool ok;
    if (col == nullptr || !agg.item->distinct) {
      ok = acc.Accumulate(col, ids, sel, n);
    } else {
      if (ids != nullptr && id_col.size() != rows) {
        for (size_t r = 0; r < rows; ++r) id_col.AppendInt(ids[r]);
      }
      const uint8_t* not_null = col->valid_data();
      valid.clear();
      for (size_t i = 0; i < n; ++i) {
        const auto r = static_cast<uint32_t>(sel != nullptr ? sel[i] : i);
        if (not_null[r] != 0) valid.push_back(r);
      }
      pair_ids.resize(valid.size());
      first.resize(valid.size());
      groups->distinct[a].Insert(
          ids == nullptr ? KeyColumns{col} : KeyColumns{&id_col, col}, valid,
          pair_ids.data(), first.data());
      fresh.clear();
      for (size_t i = 0; i < valid.size(); ++i) {
        if (first[i] != 0) fresh.push_back(valid[i]);
      }
      ok = acc.Accumulate(col, ids, fresh.data(), fresh.size());
    }
    if (!ok) return SumOverflow(*agg.item);
  }
  return Status::OK();
}

Status MergePartialGroups(const std::vector<BoundAgg>& aggs,
                          std::vector<GroupTable>* partials,
                          GroupTable* merged) {
  for (GroupTable& part : *partials) {
    const std::vector<uint32_t> remap = merged->keys.Merge(part.keys);
    merged->ResizeAccumulators();
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggregateItem& item = *aggs[a].item;
      AggAccumulator& acc = *merged->accs[a];
      if (item.arg == nullptr || !item.distinct) {
        if (!acc.Merge(part.accs[a].get(), remap)) return SumOverflow(item);
        continue;
      }
      // Re-insert the partial's keys (pairs under merged group ids); a key
      // counts when the merged table sees it first.
      Column ids(DataType::kInt64);
      Column args(item.arg->type());
      std::vector<uint32_t> group_of;  // merged group per key; keyed only
      if (merged->keyless) {
        part.distinct[a].DecodeAll(&args);
      } else {
        Column pairs[2] = {Column(DataType::kInt64), Column(item.arg->type())};
        part.distinct[a].DecodeAll(pairs);
        group_of.resize(pairs[0].size());
        for (size_t p = 0; p < pairs[0].size(); ++p) {
          group_of[p] = remap[pairs[0].IntAt(p)];
          ids.AppendInt(group_of[p]);
        }
        args = std::move(pairs[1]);
      }
      std::vector<uint32_t> key_ids(args.size());
      std::vector<uint8_t> first(args.size());
      merged->distinct[a].Insert(
          merged->keyless ? KeyColumns{&args} : KeyColumns{&ids, &args},
          args.size(), key_ids.data(), first.data());
      SelVector fresh;
      for (size_t p = 0; p < args.size(); ++p) {
        if (first[p] != 0) fresh.push_back(static_cast<uint32_t>(p));
      }
      if (!acc.Accumulate(&args, merged->keyless ? nullptr : group_of.data(),
                          fresh.data(), fresh.size())) {
        return SumOverflow(item);
      }
    }
  }
  return Status::OK();
}

Chunk FinalizeGroups(const GroupTable& groups,
                     const std::vector<DataType>& output_types,
                     size_t group_width) {
  Chunk out = Chunk::Empty(output_types);
  groups.keys.DecodeAll(out.columns.data());
  for (size_t a = 0; a < groups.accs.size(); ++a) {
    groups.accs[a]->Finalize(groups.keys.size(),
                             &out.columns[group_width + a]);
  }
  return out;
}

}  // namespace fusiondb::internal
