// Aggregation executor: grouped/scalar aggregates, per-aggregate masks
// (Section III.E semantics), DISTINCT aggregates and window aggregation.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>

#include "exec/agg_build.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::ExpectMatchesReference;
using testutil::MustExecute;
using testutil::RowAt;
using testutil::Unwrap;

/// sales(grp, amount, flag): groups a/b/c; amount NULL on every 5th row.
TablePtr SalesTable() {
  static TablePtr t = [] {
    TableBuilder b("sales", {{"grp", DataType::kString},
                             {"amount", DataType::kInt64},
                             {"flag", DataType::kInt64}});
    const char* groups[] = {"a", "a", "b", "b", "b", "c"};
    for (int64_t i = 0; i < 60; ++i) {
      Value amount = (i % 5 == 4) ? Value::Null(DataType::kInt64)
                                  : Value::Int64(i % 10);
      EXPECT_TRUE(b.AppendRow({Value::String(groups[i % 6]), amount,
                               Value::Int64(i % 2)})
                      .ok());
    }
    return Unwrap(b.Build());
  }();
  return t;
}

PlanBuilder ScanSales(PlanContext* ctx) {
  return PlanBuilder::Scan(ctx, SalesTable(), {"grp", "amount", "flag"});
}

int64_t ScalarInt(const QueryResult& r, int col = 0) {
  EXPECT_EQ(r.num_rows(), 1);
  return r.At(0, col).int_value();
}

TEST(AggregateExecTest, ScalarCountSumAvgMinMax) {
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  b.Aggregate({}, {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false},
                   {"cnt_amount", AggFunc::kCount, b.Ref("amount"), nullptr,
                    false},
                   {"total", AggFunc::kSum, b.Ref("amount"), nullptr, false},
                   {"mean", AggFunc::kAvg, b.Ref("amount"), nullptr, false},
                   {"lo", AggFunc::kMin, b.Ref("amount"), nullptr, false},
                   {"hi", AggFunc::kMax, b.Ref("amount"), nullptr, false}});
  QueryResult r = MustExecute(b.Build());
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.At(0, 0), Value::Int64(60));
  EXPECT_EQ(r.At(0, 1), Value::Int64(48));  // 12 NULL amounts skipped
  EXPECT_FALSE(r.At(0, 2).is_null());
  // AVG ignores NULLs: sum / 48.
  EXPECT_DOUBLE_EQ(r.At(0, 3).double_value(),
                   r.At(0, 2).AsDouble() / 48.0);
  EXPECT_EQ(r.At(0, 4), Value::Int64(0));
  EXPECT_EQ(r.At(0, 5), Value::Int64(8));  // amounts 9 always fall on NULLs
}

TEST(AggregateExecTest, ScalarOnEmptyInputReturnsOneRow) {
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  b.Filter(eb::Lt(b.Ref("amount"), eb::Int(-1)));
  b.Aggregate({}, {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false},
                   {"total", AggFunc::kSum, b.Ref("amount"), nullptr, false}});
  QueryResult r = MustExecute(b.Build());
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.At(0, 0), Value::Int64(0));
  EXPECT_TRUE(r.At(0, 1).is_null());  // SUM of nothing is NULL
}

TEST(AggregateExecTest, GroupedCounts) {
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  b.Aggregate({"grp"},
              {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false}});
  QueryResult r = MustExecute(b.Build());
  EXPECT_EQ(r.num_rows(), 3);
  int64_t total = 0;
  for (int64_t i = 0; i < 3; ++i) total += r.At(i, 1).int_value();
  EXPECT_EQ(total, 60);
}

TEST(AggregateExecTest, MasksSelectSubsets) {
  // The Athena (a, m) pairs: different masks over the same input — the
  // construct aggregate fusion compiles into.
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  ExprPtr even = eb::Eq(b.Ref("flag"), eb::Int(0));
  ExprPtr odd = eb::Eq(b.Ref("flag"), eb::Int(1));
  b.Aggregate({}, {{"cnt_even", AggFunc::kCountStar, nullptr, even, false},
                   {"cnt_odd", AggFunc::kCountStar, nullptr, odd, false},
                   {"cnt_all", AggFunc::kCountStar, nullptr, nullptr, false}});
  QueryResult r = MustExecute(b.Build());
  EXPECT_EQ(ScalarInt(r, 0), 30);
  EXPECT_EQ(ScalarInt(r, 1), 30);
  EXPECT_EQ(ScalarInt(r, 2), 60);
}

// Masks that agree to 6 significant digits are still different masks: each
// keeps its own slot, and each counts its own rows.
TEST(AggregateExecTest, NearEqualDoubleMasksKeepSeparateSlots) {
  TableBuilder tb("prices", {{"price", DataType::kFloat64}});
  for (double v : {0.5, 1.00000005, 1.5}) {
    ASSERT_TRUE(tb.AppendRow({Value::Float64(v)}).ok());
  }
  TablePtr prices = Unwrap(tb.Build());
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, prices, {"price"});
  ExprPtr above1 = eb::Gt(b.Ref("price"), eb::Dbl(1.0));
  ExprPtr above1e7 = eb::Gt(b.Ref("price"), eb::Dbl(1.0000001));
  b.Aggregate({}, {{"n1", AggFunc::kCountStar, nullptr, above1, false},
                   {"n1e7", AggFunc::kCountStar, nullptr, above1e7, false}});
  PlanPtr plan = b.Build();

  const auto& agg = Cast<AggregateOp>(*plan);
  internal::BoundAggs bound = Unwrap(
      internal::BindAggs(agg.aggregates(), agg.child(0)->schema()));
  ASSERT_EQ(bound.aggs.size(), 2u);
  EXPECT_NE(bound.aggs[0].mask_slot, bound.aggs[1].mask_slot);
  EXPECT_EQ(bound.mask_set.num_masks(), 2u);
  EXPECT_EQ(bound.mask_set.conjuncts.size(), 2u);

  QueryResult r = MustExecute(plan);
  EXPECT_EQ(ScalarInt(r, 0), 2);  // 1.00000005 and 1.5
  EXPECT_EQ(ScalarInt(r, 1), 1);  // 1.5 only
}

// ---------------------------------------------------------------------------
// Randomized mask oracle: the narrowing mask evaluation against the
// reference interpreter (tests/reference_eval.h), which shares no code
// with src/exec.
// ---------------------------------------------------------------------------

/// Draws chunks over an int, a double and a string column (each NULL one
/// row in six) and masks over them. Masks are conjunctions drawn from a
/// small pool, so they repeat conjuncts and share prefixes; conjuncts are
/// ranges, OR-of-ranges that overlap and may carry a NULL disjunct, string
/// comparisons, TRUE and NULL.
class MaskFuzzer {
 public:
  MaskFuzzer(uint32_t seed, ExprPtr i, ExprPtr d, ExprPtr s)
      : rng_(seed), i_(std::move(i)), d_(std::move(d)), s_(std::move(s)) {}

  /// One row of (i, d, s) values; d is a multiple of 0.25, so sums of it
  /// are exact in any order.
  std::vector<Value> RandomRow() {
    static const char* kStrings[] = {"a", "b", "c", "mm"};
    return {Chance(6) ? Value::Null(DataType::kInt64)
                      : Value::Int64(Pick(41) - 20),
            Chance(6) ? Value::Null(DataType::kFloat64)
                      : Value::Float64((Pick(81) - 40) / 4.0),
            Chance(6) ? Value::Null(DataType::kString)
                      : Value::String(kStrings[Pick(4)])};
  }

  Chunk RandomChunk(size_t rows) {
    Chunk c = Chunk::Empty(
        {DataType::kInt64, DataType::kFloat64, DataType::kString});
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row = RandomRow();
      for (size_t col = 0; col < 3; ++col) c.columns[col].AppendValue(row[col]);
    }
    return c;
  }

  std::vector<ExprPtr> ConjunctPool() {
    std::vector<ExprPtr> pool;
    for (int k = 0, n = 3 + Pick(5); k < n; ++k) pool.push_back(Conjunct(2));
    return pool;
  }

  ExprPtr Mask(const std::vector<ExprPtr>& pool) {
    std::vector<ExprPtr> parts;
    for (int k = 0, n = 1 + Pick(3); k < n; ++k) {
      parts.push_back(pool[Pick(static_cast<int>(pool.size()))]);
    }
    return parts.size() == 1 ? parts[0] : eb::And(std::move(parts));
  }

  /// A filter: an OR of 2..4 conjuncts (overlapping, maybe NULL).
  ExprPtr OrFilter() {
    std::vector<ExprPtr> kids;
    for (int k = 0, n = 2 + Pick(3); k < n; ++k) kids.push_back(Conjunct(1));
    return eb::Or(std::move(kids));
  }

  bool Chance(int one_in) { return Pick(one_in) == 0; }
  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

 private:
  ExprPtr Conjunct(int depth) {
    static const char* kStrings[] = {"a", "b", "c", "mm"};
    switch (Pick(depth > 0 ? 7 : 5)) {
      case 0: {
        int lo = Pick(41) - 20;
        return eb::Between(i_, eb::Int(lo), eb::Int(lo + Pick(20)));
      }
      case 1:
        return Chance(2) ? eb::Lt(d_, eb::Dbl((Pick(81) - 40) / 4.0))
                         : eb::Ge(d_, eb::Dbl((Pick(81) - 40) / 4.0));
      case 2:
        return Chance(2) ? eb::Eq(s_, eb::Str(kStrings[Pick(4)]))
                         : eb::Lt(s_, eb::Str(kStrings[Pick(4)]));
      case 3:
        return eb::True();
      case 4:
        return eb::NullOf(DataType::kBool);
      case 5: {
        std::vector<ExprPtr> kids;
        for (int k = 0, n = 2 + Pick(2); k < n; ++k) {
          kids.push_back(Conjunct(depth - 1));
        }
        return eb::Or(std::move(kids));
      }
      default:
        return eb::And(Conjunct(depth - 1), Conjunct(depth - 1));
    }
  }

  std::mt19937 rng_;
  ExprPtr i_, d_, s_;
};

Schema MaskSchema() {
  return Schema({{1, "i", DataType::kInt64},
                 {2, "d", DataType::kFloat64},
                 {3, "s", DataType::kString}});
}

// Every mask's selection, from every kind of base (every row, none, a
// random subset, every row as an explicit selection), must be exactly the
// dense positions of the base rows where the reference finds the mask
// TRUE — which also makes it ascending and duplicate-free.
TEST(MaskSetTest, RandomizedMasksMatchReference) {
  MaskFuzzer fuzz(20261017, eb::Col(1, DataType::kInt64),
                  eb::Col(2, DataType::kFloat64),
                  eb::Col(3, DataType::kString));
  for (int trial = 0; trial < 300; ++trial) {
    size_t rows = trial == 0 ? 0 : (trial % 40 == 0 ? 4096 : 1 + trial % 211);
    Chunk chunk = fuzz.RandomChunk(rows);
    std::vector<ExprPtr> pool = fuzz.ConjunctPool();
    std::vector<AggregateItem> items;
    for (int k = 0, n = 1 + trial % 9; k < n; ++k) {
      AggregateItem item;
      item.name = "c" + std::to_string(k);
      item.mask = k == 0 ? eb::True() : fuzz.Mask(pool);
      items.push_back(item);
    }
    internal::BoundAggs bound =
        Unwrap(internal::BindAggs(items, MaskSchema()));
    std::vector<std::vector<uint8_t>> is_true(items.size());
    for (size_t a = 0; a < items.size(); ++a) {
      if (bound.aggs[a].mask_slot < 0) continue;
      reference::RowExpr mask =
          Unwrap(reference::RowExpr::Resolve(items[a].mask, MaskSchema()));
      for (size_t r = 0; r < rows; ++r) {
        Value v = mask.Eval(RowAt(chunk, r));
        is_true[a].push_back(!v.is_null() && v.bool_value());
      }
    }
    for (int base_kind = 0; base_kind < 4; ++base_kind) {
      SelVector base;
      for (size_t r = 0; r < rows; ++r) {
        if (base_kind == 3 || (base_kind == 2 && fuzz.Pick(3) != 0)) {
          base.push_back(static_cast<uint32_t>(r));
        }
      }
      if (base_kind == 0) base = SelVector::Dense(rows);
      std::vector<SelVector> sels =
          bound.mask_set.Evaluate(chunk, base_kind == 0 ? nullptr : &base);
      ASSERT_EQ(sels.size(), bound.mask_set.num_masks());
      for (size_t a = 0; a < items.size(); ++a) {
        int slot = bound.aggs[a].mask_slot;
        if (slot < 0) continue;
        std::vector<uint32_t> expect;
        for (size_t j = 0; j < base.size(); ++j) {
          if (is_true[a][base[j]]) expect.push_back(static_cast<uint32_t>(j));
        }
        ASSERT_EQ(sels[slot].indexes(), expect)
            << items[a].mask->ToString() << " trial " << trial << " base "
            << base_kind;
      }
    }
  }
}

// End to end: an OR filter under grouped and scalar masked aggregates
// (shared conjuncts, a TRUE mask, DISTINCT) must match the reference at
// chunk sizes that mix all-pass and narrowed morsels.
TEST(AggregateExecTest, RandomizedFilteredMaskedAggregatesMatchReference) {
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MaskFuzzer rows(seed, nullptr, nullptr, nullptr);
    TableBuilder tb("t", {{"g", DataType::kString},
                          {"i", DataType::kInt64},
                          {"d", DataType::kFloat64},
                          {"s", DataType::kString}});
    for (int r = 0; r < 300; ++r) {
      std::vector<Value> row = rows.RandomRow();
      row.insert(row.begin(), rows.Chance(8) ? Value::Null(DataType::kString)
                                             : Value::String(r % 3 ? "x" : "y"));
      ASSERT_TRUE(tb.AppendRow(row).ok());
    }
    TablePtr t = Unwrap(tb.Build());
    PlanContext ctx;
    PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"g", "i", "d", "s"});
    MaskFuzzer fuzz(seed * 7919, b.Ref("i"), b.Ref("d"), b.Ref("s"));
    if (seed % 3 != 0) b.Filter(fuzz.OrFilter());
    std::vector<ExprPtr> pool = fuzz.ConjunctPool();
    std::vector<AggSpec> specs = {
        {"n", AggFunc::kCountStar, nullptr, nullptr, false}};
    for (int k = 0; k < 4; ++k) {
      ExprPtr mask = fuzz.Mask(pool);
      std::string sfx = std::to_string(k);
      specs.push_back({"n" + sfx, AggFunc::kCountStar, nullptr, mask, false});
      specs.push_back({"sum" + sfx, AggFunc::kSum, b.Ref("d"), mask, false});
      specs.push_back({"avg" + sfx, AggFunc::kAvg, b.Ref("i"), mask, false});
      specs.push_back({"min" + sfx, AggFunc::kMin, b.Ref("s"), mask, false});
      specs.push_back({"cd" + sfx, AggFunc::kCount, b.Ref("i"), mask, true});
    }
    std::vector<std::string> keys;
    if (seed % 2 == 0) keys.push_back("g");
    b.Aggregate(keys, std::move(specs));
    PlanPtr plan = b.Build();
    for (size_t chunk : {7, 64, 4096}) {
      ExpectMatchesReference(plan, MustExecute(plan, chunk));
    }
  }
}

TEST(AggregateExecTest, MaskedGroupStillProducesRow) {
  // Paper III.E: "aggregations with masks return an aggregated row even if
  // all input rows have been discarded by the mask" — group rows exist for
  // any input row, masks only empty the aggregate.
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  ExprPtr never = eb::Lt(b.Ref("amount"), eb::Int(-5));
  b.Aggregate({"grp"}, {{"s", AggFunc::kSum, b.Ref("amount"), never, false}});
  QueryResult r = MustExecute(b.Build());
  EXPECT_EQ(r.num_rows(), 3);
  for (int64_t i = 0; i < 3; ++i) EXPECT_TRUE(r.At(i, 1).is_null());
}

TEST(AggregateExecTest, DistinctAggregates) {
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  b.Aggregate({}, {{"d", AggFunc::kCount, b.Ref("amount"), nullptr, true},
                   {"ds", AggFunc::kSum, b.Ref("amount"), nullptr, true}});
  // Tiny chunks must not reset the distinct tables between chunks.
  for (size_t chunk : {4, 4096}) {
    QueryResult r = MustExecute(b.Build(), chunk);
    // i%5==4 nulls out amounts 4 and 9, leaving {0,1,2,3,5,6,7,8}.
    EXPECT_EQ(ScalarInt(r, 0), 8);
    EXPECT_EQ(r.At(0, 1), Value::Int64(0 + 1 + 2 + 3 + 5 + 6 + 7 + 8));
  }
}

TEST(AggregateExecTest, DistinctWithMask) {
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  ExprPtr small = eb::Lt(b.Ref("amount"), eb::Int(3));
  b.Aggregate({}, {{"d", AggFunc::kCount, b.Ref("amount"), small, true}});
  QueryResult r = MustExecute(b.Build());
  EXPECT_EQ(ScalarInt(r, 0), 3);  // {0, 1, 2}
}

TEST(AggregateExecTest, NullGroupKeyFormsItsOwnGroup) {
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  b.Aggregate({"amount"},
              {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false}});
  QueryResult r = MustExecute(b.Build());
  // Amounts {0,1,2,3,5,6,7,8} plus the NULL group.
  EXPECT_EQ(r.num_rows(), 9);
}

TEST(WindowExecTest, PartitionedAggregatesBroadcast) {
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  b.Window({"grp"}, {{"grp_cnt", AggFunc::kCountStar, nullptr, nullptr,
                      false},
                     {"grp_avg", AggFunc::kAvg, b.Ref("amount"), nullptr,
                      false}});
  QueryResult r = MustExecute(b.Build());
  EXPECT_EQ(r.num_rows(), 60);  // windows never change cardinality
  // Every row of group "a" carries the same count (20).
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    if (r.At(i, 0) == Value::String("a")) {
      EXPECT_EQ(r.At(i, 3), Value::Int64(20));
    }
  }
}

TEST(WindowExecTest, MaskedWindowItems) {
  // Fusion can hand windows masked aggregates (IV.A over a fused input).
  PlanContext ctx;
  PlanBuilder b = ScanSales(&ctx);
  ExprPtr even = eb::Eq(b.Ref("flag"), eb::Int(0));
  b.Window({"grp"},
           {{"even_cnt", AggFunc::kCountStar, nullptr, even, false}});
  QueryResult r = MustExecute(b.Build());
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    if (r.At(i, 0) == Value::String("a")) {
      EXPECT_EQ(r.At(i, 3), Value::Int64(10));
    }
  }
}

TEST(WindowExecTest, AgreesWithAggregateJoin) {
  // The semantic core of GroupByJoinToWindow: window(partition by g) equals
  // joining back the group-by result.
  PlanContext ctx;
  PlanBuilder w = ScanSales(&ctx);
  w.Window({"grp"}, {{"total", AggFunc::kSum, w.Ref("amount"), nullptr,
                      false}});
  w.Project({{"g", w.Ref("grp")}, {"t", w.Ref("total")}});
  QueryResult via_window = MustExecute(w.Build());

  PlanBuilder base = ScanSales(&ctx);
  PlanBuilder agg = ScanSales(&ctx);
  agg.Aggregate({"grp"}, {{"total", AggFunc::kSum, agg.Ref("amount"), nullptr,
                           false}});
  ExprPtr bg = base.Ref("grp");
  base.Join(JoinType::kInner, agg, eb::Eq(bg, agg.Ref("grp")));
  base.Project({{"g", bg}, {"t", base.Ref("total")}});
  QueryResult via_join = MustExecute(base.Build());
  EXPECT_TRUE(ResultsEquivalent(via_window, via_join));
}

// -0.0 == 0.0 under SQL equality, so every keyed operator must treat the two
// zeros as one key: one group, one distinct value and a join match across
// signs.
TEST(KeyIdentityTest, NegativeZeroIsZeroForEveryKeyedOperator) {
  PlanContext ctx;
  auto zeros = [&] {
    return PlanBuilder::Values(&ctx, {"x"}, {DataType::kFloat64},
                               {{Value::Float64(0.0)},
                                {Value::Float64(-0.0)},
                                {Value::Float64(0.0)}});
  };

  PlanBuilder grouped = zeros();
  grouped.Aggregate({"x"},
                    {{"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  QueryResult groups = MustExecute(grouped.Build());
  ExpectMatchesReference(grouped.Build(), groups);
  EXPECT_EQ(groups.num_rows(), 1);

  PlanBuilder native = zeros();
  native.Aggregate({}, {{"d", AggFunc::kCount, native.Ref("x"), nullptr,
                         true}});
  QueryResult distinct = MustExecute(native.Build());
  ExpectMatchesReference(native.Build(), distinct);
  EXPECT_EQ(ScalarInt(distinct, 0), 1);

  PlanBuilder joined = zeros();
  PlanBuilder negative = PlanBuilder::Values(
      &ctx, {"y"}, {DataType::kFloat64}, {{Value::Float64(-0.0)}});
  joined.JoinOn(JoinType::kInner, negative, {{"x", "y"}});
  QueryResult matches = MustExecute(joined.Build());
  ExpectMatchesReference(joined.Build(), matches);
  EXPECT_EQ(matches.num_rows(), 3);
}

// GROUP BY and window partitions key rows as KeyTable does: a NaN is a key
// of its own, -0.0 and 0.0 are one key, and ints compare exactly (2^53 and
// 2^53 + 1 are one double but two keys). The reference must group the same
// way for the differential checks to mean anything.
TEST(KeyIdentityTest, GroupAndPartitionKeysMatchReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;
  struct Case {
    const char* name;
    DataType type;
    std::vector<Value> keys;
    int64_t groups;
  };
  const Case cases[] = {
      {"nan",
       DataType::kFloat64,
       {Value::Float64(nan), Value::Float64(1.0), Value::Float64(2.0)},
       3},
      {"signed zeros",
       DataType::kFloat64,
       {Value::Float64(-0.0), Value::Float64(0.0)},
       1},
      {"ints above 2^53",
       DataType::kInt64,
       {Value::Int64(big), Value::Int64(big + 1)},
       2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < c.keys.size(); ++i) {
      rows.push_back({c.keys[i], Value::Int64(static_cast<int64_t>(i))});
    }
    PlanContext ctx;
    auto values = [&] {
      return PlanBuilder::Values(&ctx, {"k", "v"}, {c.type, DataType::kInt64},
                                 rows);
    };
    PlanBuilder grouped = values();
    grouped.Aggregate({"k"}, {{"n", AggFunc::kCountStar, nullptr, nullptr,
                               false},
                              {"s", AggFunc::kSum, grouped.Ref("v"), nullptr,
                               false}});
    QueryResult groups = MustExecute(grouped.Build());
    EXPECT_EQ(groups.num_rows(), c.groups);
    ExpectMatchesReference(grouped.Build(), groups);

    PlanBuilder windowed = values();
    windowed.Window({"k"},
                    {{"n", AggFunc::kCountStar, nullptr, nullptr, false}});
    ExpectMatchesReference(windowed.Build(), MustExecute(windowed.Build()));
  }
}

// ---------------------------------------------------------------------------
// Columnar accumulators: every (function, argument type) loop, its partial
// merge and its finalize, against the reference evaluator.
// ---------------------------------------------------------------------------

/// acc(k, g, i, d, dt, s, b): `k` partitions the table so parallel runs
/// split it; `g` is the grouping key; one argument column per type. A NULL
/// lands on a row with probability `null_pct` percent in every argument
/// column. Doubles are multiples of 0.25 (sums exact in any order). Every
/// 250th row (from row 10) holds 2^53 in `i` and a NaN in `d`, and every
/// 250th from row 20 holds 2^53 + 1 and -0.0: ints that one double holds,
/// a NaN that Value::Compare finds equal to every number, and a zero that
/// equals 0.0. DISTINCT keeps the two ints apart, the NaN apart from every
/// number, and -0.0 with 0.0.
TablePtr AccumulatorTable(int null_pct, uint32_t seed) {
  TableBuilder tb("acc", {{"k", DataType::kInt64},
                          {"g", DataType::kInt64},
                          {"i", DataType::kInt64},
                          {"d", DataType::kFloat64},
                          {"dt", DataType::kDate},
                          {"s", DataType::kString},
                          {"b", DataType::kBool}});
  EXPECT_TRUE(tb.PartitionBy("k", 64).ok());
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  auto null_or = [&](DataType t, Value v) {
    return pick(100) < null_pct ? Value::Null(t) : std::move(v);
  };
  static const char* kStrings[] = {"", "a", "ab", "b", "zz", "m"};
  const int64_t big = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t r = 0; r < 1500; ++r) {
    std::vector<Value> row = {
        Value::Int64(r), Value::Int64(pick(9)),
        null_or(DataType::kInt64, Value::Int64(pick(201) - 100)),
        null_or(DataType::kFloat64, Value::Float64((pick(161) - 80) / 4.0)),
        null_or(DataType::kDate, Value::Date(10000 + pick(400))),
        null_or(DataType::kString, Value::String(kStrings[pick(6)])),
        null_or(DataType::kBool, Value::Bool(pick(2) == 1))};
    if (r % 250 == 10) {
      row[2] = Value::Int64(big);
      row[3] = Value::Float64(nan);
    } else if (r % 250 == 20) {
      row[2] = Value::Int64(big + 1);
      row[3] = Value::Float64(-0.0);
    }
    EXPECT_TRUE(tb.AppendRow(row).ok());
  }
  return Unwrap(tb.Build());
}

// COUNT(*), and COUNT/MIN/MAX over every type, SUM/AVG over every numeric
// one (int64, float64, date); each unmasked, masked and DISTINCT; keyless
// and grouped; NULL-free and NULL-heavy input; serial, in tiny chunks and
// at four threads.
TEST(AccumulatorTest, EveryFunctionAndTypeMatchesReference) {
  for (int null_pct : {0, 70}) {
    TablePtr t = AccumulatorTable(null_pct, 20261019 + null_pct);
    for (bool grouped : {false, true}) {
      SCOPED_TRACE(std::to_string(null_pct) + "% NULL, " +
                   (grouped ? "grouped" : "keyless"));
      PlanContext ctx;
      PlanBuilder b =
          PlanBuilder::Scan(&ctx, t, {"g", "i", "d", "dt", "s", "b"});
      ExprPtr mask = eb::Ge(b.Ref("i"), eb::Int(-20));
      std::vector<AggSpec> specs = {
          {"n", AggFunc::kCountStar, nullptr, nullptr, false},
          {"n_m", AggFunc::kCountStar, nullptr, mask, false}};
      for (const char* col : {"i", "d", "dt", "s", "b"}) {
        std::vector<AggFunc> funcs = {AggFunc::kCount, AggFunc::kMin,
                                      AggFunc::kMax};
        if (IsNumeric(b.Ref(col)->type())) {
          funcs.push_back(AggFunc::kSum);
          funcs.push_back(AggFunc::kAvg);
        }
        for (AggFunc f : funcs) {
          std::string name = std::string(AggFuncName(f)) + "_" + col;
          specs.push_back({name, f, b.Ref(col), nullptr, false});
          specs.push_back({name + "_m", f, b.Ref(col), mask, false});
          specs.push_back({name + "_d", f, b.Ref(col), nullptr, true});
          specs.push_back({name + "_dm", f, b.Ref(col), mask, true});
        }
      }
      b.Aggregate(grouped ? std::vector<std::string>{"g"}
                          : std::vector<std::string>{},
                  std::move(specs));
      PlanPtr plan = b.Build();
      for (size_t chunk : {size_t{5}, size_t{4096}}) {
        SCOPED_TRACE("serial, chunk " + std::to_string(chunk));
        ExpectMatchesReference(plan, MustExecute(plan, chunk));
      }
      SCOPED_TRACE("4 threads");
      ExpectMatchesReference(
          plan,
          Unwrap(ExecutePlan(plan, {.chunk_size = 64, .parallelism = 4})));
    }
  }
}

// Window partitions accumulate through the same loops.
TEST(AccumulatorTest, WindowItemsMatchReference) {
  TablePtr t = AccumulatorTable(40, 7);
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"g", "i", "d", "s"});
  ExprPtr mask = eb::Lt(b.Ref("d"), eb::Dbl(5.0));
  b.Window({"g"}, {{"n", AggFunc::kCountStar, nullptr, mask, false},
                   {"sum_i", AggFunc::kSum, b.Ref("i"), nullptr, false},
                   {"avg_d", AggFunc::kAvg, b.Ref("d"), mask, false},
                   {"min_s", AggFunc::kMin, b.Ref("s"), nullptr, false},
                   {"max_i", AggFunc::kMax, b.Ref("i"), mask, false}});
  PlanPtr plan = b.Build();
  ExpectMatchesReference(plan, MustExecute(plan));
}

// Items over equivalent arguments share one argument slot, so the sink
// evaluates each distinct argument once per morsel.
TEST(AccumulatorTest, EquivalentArgumentsShareOneSlot) {
  Schema schema({{1, "x", DataType::kInt64}, {2, "y", DataType::kInt64}});
  ExprPtr x = eb::Col(1, DataType::kInt64);
  ExprPtr y = eb::Col(2, DataType::kInt64);
  std::vector<AggregateItem> items = {
      {10, "s", AggFunc::kSum, x, nullptr, false},
      {11, "a", AggFunc::kAvg, x, eb::Gt(y, eb::Int(0)), false},
      {12, "c", AggFunc::kCount, eb::Col(1, DataType::kInt64), nullptr, true},
      {13, "n", AggFunc::kCountStar, nullptr, nullptr, false},
      {14, "lo", AggFunc::kMin, eb::Add(x, y), nullptr, false},
      {15, "hi", AggFunc::kMax, eb::Add(y, x), nullptr, false}};
  internal::BoundAggs bound = Unwrap(internal::BindAggs(items, schema));
  ASSERT_EQ(bound.args.size(), 2u);
  EXPECT_EQ(bound.args[0].column, 0);
  EXPECT_EQ(bound.args[1].column, -1);
  std::vector<int> slots;
  for (const internal::BoundAgg& agg : bound.aggs) {
    slots.push_back(agg.arg_slot);
  }
  EXPECT_EQ(slots, (std::vector<int>{0, 0, 0, -1, 1, 1}));
}

/// The single row of a scalar aggregate of `plan`, run serially in one
/// chunk so rows arrive in table order.
std::vector<Value> ScalarRow(const PlanPtr& plan) {
  QueryResult r = MustExecute(plan);
  EXPECT_EQ(r.num_rows(), 1);
  std::vector<Value> row;
  for (int c = 0; c < static_cast<int>(r.schema().num_columns()); ++c) {
    row.push_back(r.At(0, c));
  }
  return row;
}

uint64_t Bits(double v) {
  uint64_t w;
  std::memcpy(&w, &v, sizeof(w));
  return w;
}

// MIN/MAX keep Value::Compare's order: ints compare as doubles, so ints
// above 2^53 that round to one double tie, and the first seen stays.
TEST(AccumulatorTest, MinMaxOverLargeIntsKeepsTheFirstOfEqualDoubles) {
  const int64_t big = int64_t{1} << 53;  // big and big + 1 are one double
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Values(
      &ctx, {"x"}, {DataType::kInt64},
      {{Value::Int64(big + 1)}, {Value::Int64(big)}, {Value::Int64(big + 1)}});
  b.Aggregate({}, {{"lo", AggFunc::kMin, b.Ref("x"), nullptr, false},
                   {"hi", AggFunc::kMax, b.Ref("x"), nullptr, false}});
  PlanPtr plan = b.Build();
  std::vector<Value> row = ScalarRow(plan);
  EXPECT_EQ(row[0].int_value(), big + 1);
  EXPECT_EQ(row[1].int_value(), big + 1);
  ExpectMatchesReference(plan, MustExecute(plan));
}

// A NaN compares equal to every double and -0.0 equals 0.0: whichever
// comes first stays the MIN and the MAX.
TEST(AccumulatorTest, MinMaxOverNaNAndNegativeZeroKeepsTheFirstSeen) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    std::vector<double> values;
    double lo, hi;  // expected, compared bit for bit
  };
  const Case cases[] = {
      {{nan, 1.0, -1.0}, nan, nan},
      {{1.0, nan, -1.0}, -1.0, 1.0},
      {{-0.0, 0.0}, -0.0, -0.0},
      {{0.0, -0.0}, 0.0, 0.0},
  };
  for (const Case& c : cases) {
    PlanContext ctx;
    std::vector<std::vector<Value>> rows;
    for (double v : c.values) rows.push_back({Value::Float64(v)});
    PlanBuilder b =
        PlanBuilder::Values(&ctx, {"x"}, {DataType::kFloat64}, rows);
    b.Aggregate({}, {{"lo", AggFunc::kMin, b.Ref("x"), nullptr, false},
                     {"hi", AggFunc::kMax, b.Ref("x"), nullptr, false}});
    std::vector<Value> row = ScalarRow(b.Build());
    EXPECT_EQ(Bits(row[0].double_value()), Bits(c.lo)) << c.values[0];
    EXPECT_EQ(Bits(row[1].double_value()), Bits(c.hi)) << c.values[0];
  }
}

// The reference fails where the engine fails: SUM over two INT64_MAX rows
// is an execution error in both.
TEST(AccumulatorTest, IntSumOverflowFailsEngineAndReference) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Values(
      &ctx, {"x"}, {DataType::kInt64},
      {{Value::Int64(INT64_MAX)}, {Value::Int64(INT64_MAX)}});
  b.Aggregate({}, {{"total", AggFunc::kSum, b.Ref("x"), nullptr, false}});
  PlanPtr plan = b.Build();
  Result<QueryResult> engine = ExecutePlan(plan, {});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kExecutionError);
  Result<std::vector<reference::Row>> reference = reference::Evaluate(plan);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(reference.status().code(), StatusCode::kExecutionError);
}

// Parallel partials merge in table order, so ties keep the serial run's
// first value. With a NULL first and a NaN last, dealing morsels to four
// partials by stride would hand both to the first partial, whose NaN the
// merge would then keep.
TEST(AccumulatorTest, ParallelMinMaxKeepsTheSerialFirstSeen) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TableBuilder tb("ties", {{"k", DataType::kInt64}, {"x", DataType::kFloat64}});
  ASSERT_TRUE(tb.PartitionBy("k", 1).ok());  // one row per morsel
  const Value xs[] = {Value::Null(DataType::kFloat64), Value::Float64(1.0),
                      Value::Float64(1.0), Value::Float64(1.0),
                      Value::Float64(nan)};
  for (int64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(tb.AppendRow({Value::Int64(k), xs[k]}).ok());
  }
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, Unwrap(tb.Build()), {"x"});
  b.Aggregate({}, {{"lo", AggFunc::kMin, b.Ref("x"), nullptr, false},
                   {"hi", AggFunc::kMax, b.Ref("x"), nullptr, false}});
  PlanPtr plan = b.Build();
  for (size_t threads : {1, 4}) {
    QueryResult r = Unwrap(
        ExecutePlan(plan, {.chunk_size = 1, .parallelism = threads}));
    EXPECT_EQ(Bits(r.At(0, 0).double_value()), Bits(1.0)) << threads;
    EXPECT_EQ(Bits(r.At(0, 1).double_value()), Bits(1.0)) << threads;
  }
}

// SUM over int64 fails the query, naming the aggregate, when its running
// sum leaves int64 — within one morsel serially, and in the partial merge
// when each worker holds one INT64_MAX. AVG keeps a double sum and does
// not overflow.
TEST(AccumulatorTest, IntSumOverflowIsAnExecutionError) {
  TableBuilder tb("big", {{"k", DataType::kInt64},
                          {"g", DataType::kInt64},
                          {"x", DataType::kInt64}});
  ASSERT_TRUE(tb.PartitionBy("k", 1).ok());
  for (int64_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(tb.AppendRow({Value::Int64(r), Value::Int64(0),
                              Value::Int64(INT64_MAX)})
                    .ok());
  }
  TablePtr t = Unwrap(tb.Build());
  for (bool grouped : {false, true}) {
    for (bool distinct : {false, true}) {
      SCOPED_TRACE(std::string(grouped ? "grouped" : "keyless") +
                   (distinct ? ", DISTINCT" : ""));
      PlanContext ctx;
      PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"k", "g", "x"});
      // DISTINCT over x - k: four distinct values near INT64_MAX.
      ExprPtr arg = distinct ? eb::Sub(b.Ref("x"), b.Ref("k")) : b.Ref("x");
      b.Aggregate(grouped ? std::vector<std::string>{"g"}
                          : std::vector<std::string>{},
                  {{"mean", AggFunc::kAvg, arg, nullptr, distinct},
                   {"total", AggFunc::kSum, arg, nullptr, distinct}});
      PlanPtr plan = b.Build();
      for (size_t threads : {1, 4}) {
        for (size_t chunk : {1, 4096}) {
          Result<QueryResult> r = ExecutePlan(
              plan, {.chunk_size = chunk, .parallelism = threads});
          ASSERT_FALSE(r.ok()) << threads << " threads, chunk " << chunk;
          EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
          EXPECT_NE(r.status().message().find("'total'"), std::string::npos)
              << r.status().ToString();
        }
      }
    }
  }
  // One INT64_MAX fits.
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"k", "x"});
  b.Filter(eb::Eq(b.Ref("k"), eb::Int(2)));
  b.Aggregate({}, {{"total", AggFunc::kSum, b.Ref("x"), nullptr, false}});
  for (size_t threads : {1, 4}) {
    QueryResult r = Unwrap(ExecutePlan(b.Build(), {.parallelism = threads}));
    EXPECT_EQ(r.At(0, 0), Value::Int64(INT64_MAX));
  }
}

}  // namespace
}  // namespace fusiondb
