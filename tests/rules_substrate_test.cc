// Substrate rules: simplification/merging, filter pushdown & partition
// pruning handoff, decorrelation, semi-join -> distinct join, distinct
// pushdown, and column pruning.
#include <gtest/gtest.h>

#include "optimizer/prune_columns.h"
#include "optimizer/rules.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::SharedTpcds;
using testutil::Unwrap;

/// Narrows `plan` to `schema`'s columns so result comparisons are not
/// confused by superset schemas rule rewrites may leave behind.
PlanPtr Narrow(const PlanPtr& plan, const Schema& schema) {
  std::vector<NamedExpr> exprs;
  for (const ColumnInfo& c : schema.columns()) {
    exprs.push_back({c.id, c.name, Expr::MakeColumnRef(c.id, c.type)});
  }
  return std::make_shared<ProjectOp>(plan, std::move(exprs));
}

PlanBuilder Sales(PlanContext* ctx) {
  TablePtr ss = Unwrap(SharedTpcds().GetTable("store_sales"));
  return PlanBuilder::Scan(
      ctx, ss, {"ss_sold_date_sk", "ss_store_sk", "ss_item_sk", "ss_quantity",
                "ss_list_price"});
}

TEST(MergeFiltersTest, StacksCollapse) {
  PlanContext ctx;
  PlanBuilder b = Sales(&ctx);
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(10)));
  b.Filter(eb::Lt(b.Ref("ss_quantity"), eb::Int(90)));
  MergeFiltersRule rule;
  PlanPtr merged = Unwrap(rule.Apply(b.Build(), &ctx));
  EXPECT_EQ(CountOps(merged, OpKind::kFilter), 1);
  const auto& f = Cast<FilterOp>(*merged);
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(f.predicate(), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 2u);
}

TEST(MergeProjectsTest, InlinesDefinitions) {
  PlanContext ctx;
  PlanBuilder b = Sales(&ctx);
  b.Project({{"x", eb::Add(b.Ref("ss_quantity"), eb::Int(1))}});
  b.Project({{"y", eb::Mul(b.Ref("x"), eb::Int(2))}});
  MergeProjectsRule rule;
  PlanPtr merged = Unwrap(rule.Apply(b.Build(), &ctx));
  EXPECT_EQ(CountOps(merged, OpKind::kProject), 1);
  // y := (q + 1) * 2.
  QueryResult r = MustExecute(merged);
  QueryResult expected = MustExecute(b.Build());
  EXPECT_TRUE(ResultsEquivalent(r, expected));
}

TEST(PushFilterIntoScanTest, HandsPredicateForPruning) {
  PlanContext ctx;
  PlanBuilder b = Sales(&ctx);
  b.Filter(eb::Gt(b.Ref("ss_sold_date_sk"), eb::Int(2452000)));
  PushFilterIntoScanRule rule;
  PlanPtr pushed = Unwrap(rule.Apply(b.Build(), &ctx));
  ASSERT_EQ(pushed->kind(), OpKind::kFilter);
  const auto& scan = Cast<ScanOp>(*pushed->child(0));
  ASSERT_NE(scan.pruning_filter(), nullptr);
  // Idempotent.
  EXPECT_EQ(Unwrap(rule.Apply(pushed, &ctx)), pushed);
  // And pruning actually skips partitions at execution.
  QueryResult pruned = MustExecute(pushed);
  EXPECT_GT(pruned.metrics().partitions_pruned, 0);
}

TEST(FilterPushdownTest, SplitsAcrossInnerJoin) {
  PlanContext ctx;
  PlanBuilder l = Sales(&ctx);
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  PlanBuilder r = PlanBuilder::Scan(&ctx, item, {"i_item_sk", "i_brand_id"});
  ExprPtr lq = l.Ref("ss_quantity");
  ExprPtr rb = r.Ref("i_brand_id");
  l.JoinOn(JoinType::kInner, r, {{"ss_item_sk", "i_item_sk"}});
  l.Filter(eb::And({eb::Gt(lq, eb::Int(10)), eb::Lt(rb, eb::Int(500)),
                    eb::Gt(eb::Add(lq, rb), eb::Int(0))}));
  FilterPushdownRule rule;
  PlanPtr pushed = Unwrap(rule.Apply(l.Build(), &ctx));
  // Left- and right-only conjuncts moved below the join; the mixed one
  // stays on top.
  ASSERT_EQ(pushed->kind(), OpKind::kFilter);
  ASSERT_EQ(pushed->child(0)->kind(), OpKind::kJoin);
  const auto& join = Cast<JoinOp>(*pushed->child(0));
  EXPECT_EQ(join.left()->kind(), OpKind::kFilter);
  EXPECT_EQ(join.right()->kind(), OpKind::kFilter);
  QueryResult before = MustExecute(l.Build());
  QueryResult after = MustExecute(pushed);
  EXPECT_TRUE(ResultsEquivalent(before, after));
}

TEST(DecorrelateTest, ApplyBecomesJoinAggregate) {
  PlanContext ctx;
  PlanBuilder outer = Sales(&ctx);
  PlanBuilder inner = Sales(&ctx);
  ColumnId corr = inner.Col("ss_store_sk").id;
  PlanBuilder sub = inner;
  sub.Aggregate({}, {{"avg_p", AggFunc::kAvg, inner.Ref("ss_list_price"),
                      nullptr, false}});
  outer.Apply(sub, {{"ss_store_sk", corr}});
  outer.Filter(eb::Gt(outer.Ref("ss_list_price"), outer.Ref("avg_p")));
  PlanPtr plan = outer.Build();
  // Apply cannot execute directly...
  EXPECT_FALSE(ExecutePlan(plan).ok());
  // ...but the optimizer decorrelates it into Join + grouped Aggregate.
  PlanPtr optimized =
      Unwrap(Optimizer(OptimizerOptions::Baseline()).Optimize(plan, &ctx));
  EXPECT_EQ(CountOps(optimized, OpKind::kApply), 0);
  EXPECT_GE(CountOps(optimized, OpKind::kJoin), 1);
  QueryResult r = MustExecute(optimized);
  EXPECT_GT(r.num_rows(), 0);
  // Cross-check against the hand-decorrelated form.
  PlanBuilder manual_outer = Sales(&ctx);
  PlanBuilder manual_inner = Sales(&ctx);
  PlanBuilder magg = manual_inner;
  magg.Aggregate({"ss_store_sk"},
                 {{"avg_p", AggFunc::kAvg, manual_inner.Ref("ss_list_price"),
                   nullptr, false}});
  ExprPtr mo_store = manual_outer.Ref("ss_store_sk");
  ExprPtr mo_price = manual_outer.Ref("ss_list_price");
  manual_outer.Join(JoinType::kInner, magg,
                    eb::Eq(mo_store, magg.Ref("ss_store_sk")));
  manual_outer.Filter(eb::Gt(mo_price, manual_outer.Ref("avg_p")));
  // Compare the shared column subset (ids differ, so compare row counts of
  // a stable projection).
  QueryResult manual = MustExecute(manual_outer.Build());
  EXPECT_EQ(r.num_rows(), manual.num_rows());
}

TEST(SemiJoinToDistinctJoinTest, PreservesSemantics) {
  PlanContext ctx;
  PlanBuilder l = Sales(&ctx);
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  PlanBuilder r = PlanBuilder::Scan(&ctx, item, {"i_item_sk", "i_category"});
  r.Filter(eb::Eq(r.Ref("i_category"), eb::Str("Music")));
  l.Join(JoinType::kSemi, r, eb::Eq(l.Ref("ss_item_sk"), r.Ref("i_item_sk")));
  PlanPtr plan = l.Build();
  SemiJoinToDistinctJoinRule rule;
  PlanPtr rewritten = Unwrap(rule.Apply(plan, &ctx));
  ASSERT_NE(rewritten, plan);
  EXPECT_EQ(CountOps(rewritten, OpKind::kAggregate), 1);
  QueryResult before = MustExecute(plan);
  QueryResult after = MustExecute(Narrow(rewritten, plan->schema()));
  EXPECT_TRUE(ResultsEquivalent(before, after));
}

TEST(PushDistinctBelowJoinTest, SplitsDistinctOverKeyJoin) {
  PlanContext ctx;
  TablePtr wr = Unwrap(SharedTpcds().GetTable("web_returns"));
  TablePtr ws = Unwrap(SharedTpcds().GetTable("web_sales"));
  PlanBuilder a = PlanBuilder::Scan(&ctx, ws, {"ws_order_number"});
  PlanBuilder b = PlanBuilder::Scan(&ctx, wr, {"wr_order_number"});
  a.JoinOn(JoinType::kInner, b, {{"ws_order_number", "wr_order_number"}});
  a.Aggregate({"wr_order_number"}, {});
  PlanPtr plan = a.Build();
  PushDistinctBelowJoinRule rule;
  PlanPtr rewritten = Unwrap(rule.Apply(plan, &ctx));
  ASSERT_NE(rewritten, plan);
  // Distinct pushed to both sides.
  EXPECT_EQ(CountOps(rewritten, OpKind::kAggregate), 2);
  QueryResult before = MustExecute(plan);
  QueryResult after = MustExecute(Narrow(rewritten, plan->schema()));
  EXPECT_TRUE(ResultsEquivalent(before, after));
}

TEST(PruneColumnsTest, NarrowsScansToUsage) {
  PlanContext ctx;
  PlanBuilder b = Sales(&ctx);  // 5 columns
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(50)));
  b.Select({"ss_item_sk"});
  PlanPtr built = b.Build();
  PlanPtr pruned = Unwrap(PruneColumns(built, built->schema()));
  std::function<const ScanOp*(const PlanPtr&)> find_scan =
      [&](const PlanPtr& p) -> const ScanOp* {
    if (p->kind() == OpKind::kScan) return &Cast<ScanOp>(*p);
    for (const PlanPtr& c : p->children()) {
      const ScanOp* s = find_scan(c);
      if (s != nullptr) return s;
    }
    return nullptr;
  };
  const ScanOp* scan = find_scan(pruned);
  ASSERT_NE(scan, nullptr);
  // Only ss_item_sk (output) and ss_quantity (filter) survive.
  EXPECT_EQ(scan->schema().num_columns(), 2u);
  QueryResult before = MustExecute(b.Build());
  QueryResult after = MustExecute(pruned);
  EXPECT_TRUE(ResultsEquivalent(before, after));
}

TEST(PruneColumnsTest, CountStarKeepsNarrowestColumn) {
  PlanContext ctx;
  PlanBuilder b = Sales(&ctx);
  b.Aggregate({}, {{"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr built = b.Build();
  PlanPtr pruned = Unwrap(PruneColumns(built, built->schema()));
  QueryResult r = MustExecute(pruned);
  QueryResult expected = MustExecute(b.Build());
  EXPECT_TRUE(ResultsEquivalent(r, expected));
  EXPECT_LT(r.metrics().bytes_scanned, expected.metrics().bytes_scanned);
}

TEST(SimplifyRuleTest, TrueFilterRemoved) {
  PlanContext ctx;
  PlanBuilder b = Sales(&ctx);
  b.Filter(eb::Or(eb::True(), eb::Gt(b.Ref("ss_quantity"), eb::Int(5))));
  SimplifyExpressionsRule rule;
  PlanPtr simplified = Unwrap(rule.Apply(b.Build(), &ctx));
  EXPECT_EQ(simplified->kind(), OpKind::kScan);
}

}  // namespace
}  // namespace fusiondb
