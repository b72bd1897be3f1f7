// Whole-optimizer properties: schema stability, idempotence, configuration
// behaviour, and the paper-expected plan shapes for the studied queries.
#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::SharedTpcds;
using testutil::Unwrap;

PlanPtr BuildQuery(const std::string& name, PlanContext* ctx) {
  tpcds::TpcdsQuery q = Unwrap(tpcds::QueryByName(name));
  return Unwrap(q.build(SharedTpcds(), ctx));
}

TEST(OptimizerTest, PreservesOutputSchemaExactly) {
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    PlanContext ctx;
    PlanPtr plan = Unwrap(q.build(SharedTpcds(), &ctx));
    for (const OptimizerOptions& options :
         {OptimizerOptions::Baseline(), OptimizerOptions::Fused()}) {
      PlanPtr optimized = Unwrap(Optimizer(options).Optimize(plan, &ctx));
      ASSERT_EQ(optimized->schema().num_columns(),
                plan->schema().num_columns())
          << q.name;
      for (size_t i = 0; i < plan->schema().num_columns(); ++i) {
        EXPECT_EQ(optimized->schema().column(i).id,
                  plan->schema().column(i).id)
            << q.name << " column " << i;
        EXPECT_EQ(optimized->schema().column(i).type,
                  plan->schema().column(i).type);
      }
    }
  }
}

TEST(OptimizerTest, Idempotent) {
  for (const char* name : {"q65", "q09", "q23", "q95", "q03"}) {
    PlanContext ctx;
    PlanPtr plan = BuildQuery(name, &ctx);
    Optimizer optimizer(OptimizerOptions::Fused());
    PlanPtr once = Unwrap(optimizer.Optimize(plan, &ctx));
    PlanPtr twice = Unwrap(optimizer.Optimize(once, &ctx));
    // A second run must not change structure (operator census identical).
    EXPECT_EQ(CountAllOps(once), CountAllOps(twice)) << name;
    EXPECT_TRUE(
        ResultsEquivalent(MustExecute(once), MustExecute(twice)))
        << name;
  }
}

TEST(OptimizerTest, PaperPlanShapes) {
  // The Section V deep-dive shapes: what appears and what disappears.
  PlanContext ctx;
  Optimizer fused(OptimizerOptions::Fused());

  // Q01/Q65: the duplicated aggregation becomes a Window.
  for (const char* name : {"q01", "q30", "q65", "q65v"}) {
    PlanPtr p = Unwrap(fused.Optimize(BuildQuery(name, &ctx), &ctx));
    EXPECT_EQ(CountOps(p, OpKind::kWindow), 1) << name;
  }
  // Q09: one scan of store_sales carrying all 15 aggregates.
  PlanPtr q09 = Unwrap(fused.Optimize(BuildQuery("q09", &ctx), &ctx));
  EXPECT_EQ(CountTableScans(q09, "store_sales"), 1);
  // Q23: one instance of each CTE and of date_dim.
  PlanPtr q23 = Unwrap(fused.Optimize(BuildQuery("q23", &ctx), &ctx));
  EXPECT_EQ(CountTableScans(q23, "store_sales"), 2);  // two distinct CTEs
  EXPECT_EQ(CountTableScans(q23, "date_dim"), 2);     // CTE + fact filter
  EXPECT_EQ(CountOps(q23, OpKind::kUnionAll), 1);
  // Q95: the ws_wh self-join evaluated once (2 web_sales scans inside the
  // fused ws_wh + 1 driving scan = 3, vs 5 in the baseline).
  PlanPtr q95b = Unwrap(Optimizer(OptimizerOptions::Baseline())
                            .Optimize(BuildQuery("q95", &ctx), &ctx));
  PlanPtr q95f = Unwrap(fused.Optimize(BuildQuery("q95", &ctx), &ctx));
  EXPECT_EQ(CountTableScans(q95b, "web_sales"), 5);
  EXPECT_EQ(CountTableScans(q95f, "web_sales"), 3);
}

TEST(OptimizerTest, BaselineAppliesNoFusionRules) {
  PlanContext ctx;
  PlanPtr plan = BuildQuery("q65", &ctx);
  PlanPtr baseline =
      Unwrap(Optimizer(OptimizerOptions::Baseline()).Optimize(plan, &ctx));
  EXPECT_EQ(CountOps(baseline, OpKind::kWindow), 0);
  EXPECT_EQ(CountTableScans(baseline, "store_sales"), 2);
}

TEST(OptimizerTest, IndividualRuleToggles) {
  PlanContext ctx;
  OptimizerOptions no_window = OptimizerOptions::Fused();
  no_window.enable_group_by_join_to_window = false;
  PlanPtr q65 = Unwrap(Optimizer(no_window).Optimize(
      BuildQuery("q65", &ctx), &ctx));
  EXPECT_EQ(CountOps(q65, OpKind::kWindow), 0);

  OptimizerOptions no_union = OptimizerOptions::Fused();
  no_union.enable_union_all_on_join = false;
  PlanPtr q23 = Unwrap(Optimizer(no_union).Optimize(
      BuildQuery("q23", &ctx), &ctx));
  EXPECT_EQ(CountTableScans(q23, "store_sales"), 4);  // both CTEs duplicated
}

TEST(OptimizerTest, PartitionPruningSurvivesFusion) {
  // The fused Q65 plan must still prune date partitions... the date filter
  // sits on date_dim (not the fact), so check on a direct fact filter.
  PlanContext ctx;
  TablePtr ss = Unwrap(SharedTpcds().GetTable("store_sales"));
  auto make = [&]() {
    PlanBuilder b = PlanBuilder::Scan(&ctx, ss,
                                      {"ss_sold_date_sk", "ss_quantity"});
    b.Filter(eb::Gt(b.Ref("ss_sold_date_sk"), eb::Int(2452500)));
    b.Aggregate({}, {{"c", AggFunc::kCountStar, nullptr, nullptr, false}});
    return b;
  };
  PlanBuilder q = make();
  q.CrossJoin(make());
  PlanPtr fused = Unwrap(
      Optimizer(OptimizerOptions::Fused()).Optimize(q.Build(), &ctx));
  QueryResult r = MustExecute(fused);
  EXPECT_GT(r.metrics().partitions_pruned, 0);
  EXPECT_EQ(CountTableScans(fused, "store_sales"), 1);
}

}  // namespace
}  // namespace fusiondb
