// Fuse() over aggregations (Section III.E): mask tightening, aggregate
// reuse through the mapping, compensating COUNT(*) guards for non-scalar
// group-bys, and DISTINCT aggregates fusing as masked items (the paper's
// III.F case) — all validated by executing the reconstructions.
#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::ExpectMatchesReference;
using testutil::FuseAndCheck;
using testutil::MustExecute;
using testutil::Reconstruct;
using testutil::SharedTpcds;
using testutil::Unwrap;

PlanBuilder Items(PlanContext* ctx) {
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  return PlanBuilder::Scan(
      ctx, item, {"i_item_sk", "i_brand_id", "i_category_id", "i_color",
                  "i_size", "i_current_price"});
}

TEST(FuseAggregateTest, PaperExampleFilterVsMask) {
  // G1 = GroupBy{a}, x := SUM(b) over Filter(c = 1)(T)
  // G2 = GroupBy{a}, y := AVG(b) FILTER (d = 1) over T
  // Fusing yields masked aggregates plus a compensating count for G1.
  PlanContext ctx;
  PlanBuilder g1 = Items(&ctx);
  g1.Filter(eb::Eq(g1.Ref("i_color"), eb::Str("red")));
  g1.Aggregate({"i_category_id"},
               {{"x", AggFunc::kSum, g1.Ref("i_brand_id"), nullptr, false}});
  PlanBuilder g2 = Items(&ctx);
  g2.Aggregate({"i_category_id"},
               {{"y", AggFunc::kAvg, g2.Ref("i_brand_id"),
                 eb::Eq(g2.Ref("i_size"), eb::Str("medium")), false}});
  FuseResult fused = FuseAndCheck(&ctx, g1.Build(), g2.Build());
  // G1 needs a comp-count guard (its side filtered); G2 read everything.
  EXPECT_FALSE(IsTrueLiteral(fused.left_filter));
  EXPECT_TRUE(IsTrueLiteral(fused.right_filter));
  const auto& agg = Cast<AggregateOp>(*fused.plan);
  // x (masked), y (masked), plus the compensating count for the left side.
  EXPECT_EQ(agg.aggregates().size(), 3u);
  EXPECT_EQ(agg.aggregates()[2].func, AggFunc::kCountStar);
  EXPECT_EQ(CountTableScans(fused.plan, "item"), 1);
}

TEST(FuseAggregateTest, IdenticalAggregatesReused) {
  PlanContext ctx;
  auto make = [&]() {
    PlanBuilder g = Items(&ctx);
    g.Aggregate({"i_category_id"},
                {{"mx", AggFunc::kMax, g.Ref("i_brand_id"), nullptr, false}});
    return g.Build();
  };
  PlanPtr p1 = make();
  PlanPtr p2 = make();
  FuseResult fused = FuseAndCheck(&ctx, p1, p2);
  EXPECT_TRUE(fused.Exact());
  const auto& agg = Cast<AggregateOp>(*fused.plan);
  // The second MAX maps onto the first; nothing is duplicated.
  EXPECT_EQ(agg.aggregates().size(), 1u);
  ColumnId mx2 = p2->schema().column(1).id;
  EXPECT_EQ(ApplyMap(fused.mapping, mx2), p1->schema().column(1).id);
}

TEST(FuseAggregateTest, GroupingMismatchFails) {
  PlanContext ctx;
  PlanBuilder g1 = Items(&ctx);
  g1.Aggregate({"i_category_id"},
               {{"c", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanBuilder g2 = Items(&ctx);
  g2.Aggregate({"i_color"},
               {{"c", AggFunc::kCountStar, nullptr, nullptr, false}});
  Fuser fuser(&ctx);
  EXPECT_FALSE(fuser.Fuse(g1.Build(), g2.Build()).has_value());
}

TEST(FuseAggregateTest, ScalarAggregatesNeedNoCompensation) {
  // Scalar aggregates always emit one row, so even with non-trivial L/R the
  // compensating filters stay TRUE (the V.B merge relies on this).
  PlanContext ctx;
  PlanBuilder g1 = Items(&ctx);
  g1.Filter(eb::Gt(g1.Ref("i_brand_id"), eb::Int(800)));
  g1.Aggregate({}, {{"c1", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanBuilder g2 = Items(&ctx);
  g2.Filter(eb::Lt(g2.Ref("i_brand_id"), eb::Int(100)));
  g2.Aggregate({}, {{"c2", AggFunc::kCountStar, nullptr, nullptr, false}});
  FuseResult fused = FuseAndCheck(&ctx, g1.Build(), g2.Build());
  EXPECT_TRUE(fused.Exact()) << "scalar compensations must be TRUE";
  const auto& agg = Cast<AggregateOp>(*fused.plan);
  ASSERT_EQ(agg.aggregates().size(), 2u);
  // Both counts carry their side's filter as a mask.
  EXPECT_NE(agg.aggregates()[0].mask, nullptr);
  EXPECT_NE(agg.aggregates()[1].mask, nullptr);
}

TEST(FuseAggregateTest, GroupDroppedWhenSideEmpty) {
  // The compensating count semantics: a category whose rows all fail one
  // side's filter must vanish from that side's reconstruction. Validated
  // end-to-end by FuseAndCheck; here we additionally pin the guard shape.
  PlanContext ctx;
  PlanBuilder g1 = Items(&ctx);
  g1.Filter(eb::Eq(g1.Ref("i_color"), eb::Str("red")));
  g1.Aggregate({"i_category_id"},
               {{"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanBuilder g2 = Items(&ctx);
  g2.Filter(eb::Eq(g2.Ref("i_color"), eb::Str("blue")));
  g2.Aggregate({"i_category_id"},
               {{"m", AggFunc::kCountStar, nullptr, nullptr, false}});
  FuseResult fused = FuseAndCheck(&ctx, g1.Build(), g2.Build());
  // comp guards have the shape count > 0.
  EXPECT_EQ(fused.left_filter->kind(), ExprKind::kCompare);
  EXPECT_EQ(fused.right_filter->kind(), ExprKind::kCompare);
}

TEST(FuseAggregateTest, DistinctFlagsMustMatchToReuse) {
  PlanContext ctx;
  PlanBuilder g1 = Items(&ctx);
  g1.Aggregate({}, {{"d", AggFunc::kCount, g1.Ref("i_brand_id"), nullptr,
                     /*distinct=*/true}});
  PlanBuilder g2 = Items(&ctx);
  g2.Aggregate({}, {{"p", AggFunc::kCount, g2.Ref("i_brand_id"), nullptr,
                     /*distinct=*/false}});
  FuseResult fused = FuseAndCheck(&ctx, g1.Build(), g2.Build());
  const auto& agg = Cast<AggregateOp>(*fused.plan);
  // Same function and argument but different distinct-ness: two aggregates.
  EXPECT_EQ(agg.aggregates().size(), 2u);
}

TEST(FuseAggregateTest, DistinctAggregatesOverBucketsFuse) {
  // The Q28 shape: two scalar COUNT(DISTINCT i_category_id) over different
  // i_brand_id buckets fuse exactly into one scan and one Aggregate whose
  // two DISTINCT items are masked by their buckets (Section III.F's goal,
  // reached through III.E). Each side's compensation reproduces the
  // reference evaluator's result for its original plan.
  PlanContext ctx;
  auto make = [&](int64_t lo, int64_t hi) {
    PlanBuilder b = Items(&ctx);
    b.Filter(eb::Between(b.Ref("i_brand_id"), eb::Int(lo), eb::Int(hi)));
    b.Aggregate({}, {{"cd", AggFunc::kCount, b.Ref("i_category_id"), nullptr,
                      /*distinct=*/true}});
    return b.Build();
  };
  PlanPtr p1 = make(1, 400);
  PlanPtr p2 = make(300, 900);
  FuseResult fused = FuseAndCheck(&ctx, p1, p2);
  EXPECT_TRUE(fused.Exact());  // scalar aggregates
  EXPECT_EQ(CountTableScans(fused.plan, "item"), 1);
  ASSERT_EQ(CountOps(fused.plan, OpKind::kAggregate), 1);
  const auto& agg = Cast<AggregateOp>(*fused.plan);
  ASSERT_EQ(agg.aggregates().size(), 2u);
  for (const AggregateItem& item : agg.aggregates()) {
    EXPECT_TRUE(item.distinct);
    ASSERT_NE(item.mask, nullptr);
    EXPECT_FALSE(IsTrueLiteral(item.mask));
  }
  ExpectMatchesReference(p1, MustExecute(Reconstruct(fused, p1, false)));
  ExpectMatchesReference(p2, MustExecute(Reconstruct(fused, p2, true)));
}

}  // namespace
}  // namespace fusiondb
