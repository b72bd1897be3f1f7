// The cost subsystem: plan fingerprints (determinism + sensitivity),
// catalog-seeded cardinality estimates, the StatsFeedback measured overlay,
// and the adaptive fuse-vs-spool decision end to end.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "optimizer/spool_rule.h"
#include "plan/spool.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::SharedTpcds;
using testutil::Unwrap;

PlanBuilder Sales(PlanContext* ctx) {
  TablePtr ss = Unwrap(SharedTpcds().GetTable("store_sales"));
  return PlanBuilder::Scan(
      ctx, ss, {"ss_store_sk", "ss_item_sk", "ss_quantity", "ss_list_price"});
}

/// The duplicated-CTE fixture: filter + grouped aggregate over store_sales.
PlanBuilder SalesCte(PlanContext* ctx) {
  PlanBuilder b = Sales(ctx);
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(50)));
  b.Aggregate({"ss_store_sk"},
              {{"t", AggFunc::kSum, b.Ref("ss_list_price"), nullptr, false}});
  return b;
}

/// Two instances of the CTE cross-joined: duplicates the Section IV fusion
/// rules leave alone, so the spool pass is the only rewrite that can share
/// them — exactly the adaptive decision's territory.
PlanPtr DuplicatedCtePlan(PlanContext* ctx) {
  PlanBuilder a = SalesCte(ctx);
  PlanBuilder b = SalesCte(ctx);
  a.CrossJoin(b);
  return a.Build();
}

// --- fingerprints ----------------------------------------------------------

/// Asserts that `a` and `b` are (`same`) or are not the same computation
/// up to renumbering, by fingerprint and by PlanEquivalent alike.
void ExpectSameIdentity(const PlanPtr& a, const PlanPtr& b, bool same) {
  CanonicalPlan ca = Canonicalize(a);
  CanonicalPlan cb = Canonicalize(b);
  EXPECT_EQ(ca.fingerprint == cb.fingerprint, same);
  EXPECT_EQ(PlanEquivalent(ca.plan, cb.plan), same);
  EXPECT_EQ(ca.fingerprint, PlanFingerprint(a));
}

TEST(PlanFingerprintTest, DeterministicAcrossIdRenumbering) {
  // Every TPC-DS query under every mode, built and optimized in two
  // contexts whose ColumnId ranges differ (the second burns ids first):
  // fingerprints must agree anyway, else feedback from one run could never
  // match the next run's plan. Across the whole sweep, equal fingerprints
  // must mean PlanEquivalent canonical forms and vice versa.
  const Catalog& catalog = SharedTpcds();
  const std::pair<const char*, OptimizerOptions> modes[] = {
      {"baseline", OptimizerOptions::Baseline()},
      {"fused", OptimizerOptions::Fused()},
      {"spooling", OptimizerOptions::Spooling()},
      {"adaptive", OptimizerOptions::Adaptive(nullptr)},
  };
  std::vector<CanonicalPlan> sweep;
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    for (const auto& [mode, options] : modes) {
      SCOPED_TRACE(q.name + " / " + mode);
      PlanContext ctx1;
      PlanContext ctx2;
      ctx2.NextIds(17);
      PlanPtr p1 = Unwrap(
          Optimizer(options).Optimize(Unwrap(q.build(catalog, &ctx1)), &ctx1));
      PlanPtr p2 = Unwrap(
          Optimizer(options).Optimize(Unwrap(q.build(catalog, &ctx2)), &ctx2));
      ASSERT_NE(p1->schema().column(0).id, p2->schema().column(0).id)
          << "fixture should renumber ids, or the test proves nothing";
      ExpectSameIdentity(p1, p2, /*same=*/true);
      sweep.push_back(Canonicalize(p1));
      sweep.push_back(Canonicalize(p2));
    }
  }
  for (size_t i = 0; i < sweep.size(); ++i) {
    for (size_t j = i + 1; j < sweep.size(); ++j) {
      EXPECT_EQ(sweep[i].fingerprint == sweep[j].fingerprint,
                PlanEquivalent(sweep[i].plan, sweep[j].plan))
          << "plans " << i << " and " << j;
    }
  }
}

TEST(PlanFingerprintTest, SensitiveToPlanChanges) {
  PlanContext ctx;
  uint64_t base = PlanFingerprint(SalesCte(&ctx).Build());

  // Different filter constant.
  PlanBuilder c1 = Sales(&ctx);
  c1.Filter(eb::Gt(c1.Ref("ss_quantity"), eb::Int(51)));
  c1.Aggregate({"ss_store_sk"},
               {{"t", AggFunc::kSum, c1.Ref("ss_list_price"), nullptr, false}});
  EXPECT_NE(PlanFingerprint(c1.Build()), base);

  // Different aggregate function.
  PlanBuilder c2 = Sales(&ctx);
  c2.Filter(eb::Gt(c2.Ref("ss_quantity"), eb::Int(50)));
  c2.Aggregate({"ss_store_sk"},
               {{"t", AggFunc::kMin, c2.Ref("ss_list_price"), nullptr, false}});
  EXPECT_NE(PlanFingerprint(c2.Build()), base);

  // Missing operator (no filter).
  PlanBuilder c3 = Sales(&ctx);
  c3.Aggregate({"ss_store_sk"},
               {{"t", AggFunc::kSum, c3.Ref("ss_list_price"), nullptr, false}});
  EXPECT_NE(PlanFingerprint(c3.Build()), base);

  // Same operator census over a different base table.
  TablePtr ws = Unwrap(SharedTpcds().GetTable("web_sales"));
  PlanBuilder c4 = PlanBuilder::Scan(
      &ctx, ws, {"ws_warehouse_sk", "ws_item_sk", "ws_quantity",
                 "ws_list_price"});
  c4.Filter(eb::Gt(c4.Ref("ws_quantity"), eb::Int(50)));
  c4.Aggregate({"ws_warehouse_sk"},
               {{"t", AggFunc::kSum, c4.Ref("ws_list_price"), nullptr, false}});
  EXPECT_NE(PlanFingerprint(c4.Build()), base);

  // A filter over `sales`, with its predicate written by `predicate`.
  auto filtered = [&ctx](ExprPtr (*predicate)(const PlanBuilder&)) {
    PlanBuilder b = Sales(&ctx);
    b.Filter(predicate(b));
    return b.Build();
  };

  // Permuted AND operands are one conjunction.
  ExpectSameIdentity(filtered([](const PlanBuilder& b) {
                       return eb::And(eb::Gt(b.Ref("ss_quantity"), eb::Int(5)),
                                      eb::Lt(b.Ref("ss_item_sk"), eb::Int(9)));
                     }),
                     filtered([](const PlanBuilder& b) {
                       return eb::And(eb::Lt(b.Ref("ss_item_sk"), eb::Int(9)),
                                      eb::Gt(b.Ref("ss_quantity"), eb::Int(5)));
                     }),
                     /*same=*/true);

  // `a < 5` is `5 > a`.
  ExpectSameIdentity(filtered([](const PlanBuilder& b) {
                       return eb::Lt(b.Ref("ss_quantity"), eb::Int(5));
                     }),
                     filtered([](const PlanBuilder& b) {
                       return eb::Gt(eb::Int(5), b.Ref("ss_quantity"));
                     }),
                     /*same=*/true);

  // 0.0 and -0.0 are different literals.
  ExpectSameIdentity(filtered([](const PlanBuilder& b) {
                       return eb::Gt(b.Ref("ss_list_price"), eb::Dbl(0.0));
                     }),
                     filtered([](const PlanBuilder& b) {
                       return eb::Gt(b.Ref("ss_list_price"), eb::Dbl(-0.0));
                     }),
                     /*same=*/false);

  // Spool ids are allocation order, not structure.
  PlanPtr cte = SalesCte(&ctx).Build();
  ExpectSameIdentity(std::make_shared<SpoolOp>(1, cte),
                     std::make_shared<SpoolOp>(7, cte), /*same=*/true);

  // An Apply's inner side on its own references an outer column it does
  // not define; that reference still canonicalizes, so two builds in
  // different contexts agree.
  auto inner_side = [](PlanContext* c) {
    PlanBuilder outer = Sales(c);
    PlanBuilder inner = Sales(c);
    inner.Filter(eb::Eq(inner.Ref("ss_item_sk"),
                        eb::Col(outer.Col("ss_item_sk"))));
    ColumnId correlated = inner.Col("ss_store_sk").id;
    inner.Aggregate({}, {{"avg_price", AggFunc::kAvg,
                          inner.Ref("ss_list_price"), nullptr, false}});
    outer.Apply(inner, {{"ss_store_sk", correlated}});
    return Cast<ApplyOp>(*outer.Build()).subquery();
  };
  PlanContext other;
  other.NextIds(17);
  PlanPtr s1 = inner_side(&ctx);
  PlanPtr s2 = inner_side(&other);
  ASSERT_NE(s1->schema().column(0).id, s2->schema().column(0).id);
  ExpectSameIdentity(s1, s2, /*same=*/true);
}

// --- cardinality estimates -------------------------------------------------

TEST(CardinalityEstimatorTest, SeededFromCatalog) {
  PlanContext ctx;
  CardinalityEstimator est;  // no feedback: catalog priors only
  TablePtr ss = Unwrap(SharedTpcds().GetTable("store_sales"));

  PlanPtr scan = Sales(&ctx).Build();
  CardEstimate scan_est = est.Estimate(scan);
  EXPECT_EQ(scan_est.rows, static_cast<double>(ss->num_rows()));
  EXPECT_FALSE(scan_est.measured);

  PlanBuilder filtered = Sales(&ctx);
  filtered.Filter(eb::Gt(filtered.Ref("ss_quantity"), eb::Int(50)));
  CardEstimate filter_est = est.Estimate(filtered.Build());
  EXPECT_LT(filter_est.rows, scan_est.rows);
  EXPECT_GT(filter_est.rows, 0.0);

  PlanBuilder scalar = Sales(&ctx);
  scalar.Aggregate({}, {{"c", AggFunc::kCountStar, nullptr, nullptr, false}});
  EXPECT_EQ(est.Estimate(scalar.Build()).rows, 1.0);
}

TEST(CardinalityEstimatorTest, FeedbackOverlaysMeasurement) {
  PlanContext ctx;
  PlanPtr scan = Sales(&ctx).Build();

  StatsFeedback feedback;
  feedback.Record(PlanFingerprint(scan), 12345);
  CardinalityEstimator est(&feedback);
  CardEstimate e = est.Estimate(scan);
  EXPECT_EQ(e.rows, 12345.0);
  EXPECT_TRUE(e.measured);
  // A derived estimate over a measured child is flagged measured too.
  PlanBuilder filtered = PlanBuilder::From(&ctx, scan);
  filtered.Filter(eb::Gt(filtered.Ref("ss_quantity"), eb::Int(50)));
  EXPECT_TRUE(est.Estimate(filtered.Build()).measured);
}

TEST(StatsFeedbackTest, HarvestRecordsExecutedCardinalities) {
  PlanContext ctx;
  PlanBuilder b = SalesCte(&ctx);
  PlanPtr plan = b.Build();
  QueryResult result = MustExecute(plan);
  StatsFeedback feedback;
  EXPECT_GT(feedback.Harvest(plan, result.operator_stats()), 0u);

  // The root subtree's measured cardinality is the query's actual output.
  auto measured = feedback.Lookup(PlanFingerprint(plan));
  ASSERT_TRUE(measured.has_value());
  EXPECT_EQ(*measured, result.num_rows());

  // And the overlaid estimate now reports the measurement, replacing the
  // sqrt-heuristic prior.
  CardinalityEstimator est(&feedback);
  CardEstimate e = est.Estimate(plan);
  EXPECT_TRUE(e.measured);
  EXPECT_EQ(e.rows, static_cast<double>(result.num_rows()));
}

// --- adaptive fuse-vs-spool ------------------------------------------------

/// Records a forced cardinality for the fixture's *scan* subtree, the
/// driver of the whole CTE's cost: small → re-execution is cheaper than
/// the spool's fixed setup; large → materializing once wins.
StatsFeedback ForcedScanFeedback(int64_t rows) {
  PlanContext ctx;
  StatsFeedback feedback;
  feedback.Record(PlanFingerprint(Sales(&ctx).Build()), rows);
  return feedback;
}

TEST(AdaptiveSpoolTest, SmallCardinalityFuses) {
  PlanContext ctx;
  PlanPtr plan = DuplicatedCtePlan(&ctx);
  StatsFeedback feedback = ForcedScanFeedback(10);
  CardinalityEstimator est(&feedback);
  CostModel model(&est);

  SpoolDecision d = model.DecideSpool(SalesCte(&ctx).Build(), 2);
  EXPECT_FALSE(d.spool);
  EXPECT_TRUE(d.measured);
  EXPECT_LT(d.reexec_cost, d.spool_cost);

  PlanPtr rewritten = Unwrap(SpoolCommonSubexpressions(plan, &ctx, &model));
  EXPECT_EQ(CountOps(rewritten, OpKind::kSpool), 0);
  EXPECT_TRUE(ResultsEquivalent(MustExecute(plan), MustExecute(rewritten)));
}

TEST(AdaptiveSpoolTest, LargeCardinalitySpools) {
  PlanContext ctx;
  PlanPtr plan = DuplicatedCtePlan(&ctx);
  StatsFeedback feedback = ForcedScanFeedback(5'000'000);
  CardinalityEstimator est(&feedback);
  CostModel model(&est);

  SpoolDecision d = model.DecideSpool(SalesCte(&ctx).Build(), 2);
  EXPECT_TRUE(d.spool);
  EXPECT_TRUE(d.measured);
  EXPECT_LT(d.spool_cost, d.reexec_cost);

  PlanPtr rewritten = Unwrap(SpoolCommonSubexpressions(plan, &ctx, &model));
  EXPECT_EQ(CountOps(rewritten, OpKind::kSpool), 2);
  EXPECT_TRUE(ResultsEquivalent(MustExecute(plan), MustExecute(rewritten)));
}

TEST(AdaptiveSpoolTest, StaticPolicyIgnoresCost) {
  // The kAlways policy (null cost model) spools the duplicates regardless
  // of how small they are — the behavior adaptive mode improves on.
  PlanContext ctx;
  PlanPtr plan = DuplicatedCtePlan(&ctx);
  PlanPtr rewritten = Unwrap(SpoolCommonSubexpressions(plan, &ctx));
  EXPECT_EQ(CountOps(rewritten, OpKind::kSpool), 2);
}

TEST(AdaptiveSpoolTest, EndToEndFeedbackLoop) {
  // The full loop as run_query --mode=adaptive drives it: optimize against
  // catalog priors, execute, harvest measured cardinalities, re-optimize —
  // the second pass's cost decisions must be measurement-backed, and every
  // configuration must return identical results.
  PlanContext ctx;
  PlanPtr plan = DuplicatedCtePlan(&ctx);

  OptimizerTrace first_trace;
  ctx.set_trace(&first_trace);
  PlanPtr first = Unwrap(
      Optimizer(OptimizerOptions::Adaptive(nullptr)).Optimize(plan, &ctx));
  ctx.set_trace(nullptr);
  ASSERT_FALSE(first_trace.cost_decisions().empty());
  EXPECT_FALSE(first_trace.cost_decisions()[0].measured);

  QueryResult first_result = MustExecute(first);
  StatsFeedback feedback;
  ASSERT_GT(feedback.Harvest(first, first_result.operator_stats()), 0u);

  OptimizerTrace second_trace;
  ctx.set_trace(&second_trace);
  PlanPtr second = Unwrap(
      Optimizer(OptimizerOptions::Adaptive(&feedback)).Optimize(plan, &ctx));
  ctx.set_trace(nullptr);
  ASSERT_FALSE(second_trace.cost_decisions().empty());
  const CostDecision& d = second_trace.cost_decisions()[0];
  EXPECT_TRUE(d.measured) << "second run must price measured cardinalities";
  EXPECT_EQ(d.consumers, 2);
  EXPECT_GT(d.reexec_cost_ns, 0.0);
  EXPECT_GT(d.spool_cost_ns, 0.0);
  // The estimate visibly changed between runs (priors vs measurement).
  EXPECT_NE(first_trace.cost_decisions()[0].est_rows, d.est_rows);

  // Whatever each pass decided, results are identical to the baseline.
  QueryResult base = MustExecute(
      Unwrap(Optimizer(OptimizerOptions::Baseline()).Optimize(plan, &ctx)));
  EXPECT_TRUE(ResultsEquivalent(base, first_result));
  EXPECT_TRUE(ResultsEquivalent(base, MustExecute(second)));
}

TEST(AdaptiveSpoolTest, CostDecisionsExportedInProfileJson) {
  // The profile JSON is how decisions leave the process (run_query
  // --profile); each CostDecision must appear in the trace's
  // cost_decisions array with its fingerprint and verdict.
  PlanContext ctx;
  PlanPtr plan = DuplicatedCtePlan(&ctx);
  OptimizerTrace trace;
  ctx.set_trace(&trace);
  PlanPtr optimized = Unwrap(
      Optimizer(OptimizerOptions::Adaptive(nullptr)).Optimize(plan, &ctx));
  ctx.set_trace(nullptr);
  ASSERT_FALSE(trace.cost_decisions().empty());

  QueryResult result = MustExecute(optimized);
  QueryProfile profile =
      MakeQueryProfile("cte", "adaptive", optimized, result, &trace);
  std::string json = ProfileToJson(profile);
  EXPECT_NE(json.find("\"cost_decisions\":"), std::string::npos);
  const CostDecision& d = trace.cost_decisions()[0];
  EXPECT_NE(json.find("\"fingerprint\":\"" +
                      FingerprintToString(d.fingerprint) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"spooled\":"), std::string::npos);
  EXPECT_NE(json.find("\"reexec_cost_ns\":"), std::string::npos);
}

TEST(AdaptiveSpoolTest, AdaptiveConfigMatchesBaselineOnTpcds) {
  // Adaptive mode is a pure performance policy: every applicable TPC-DS
  // query returns baseline-identical results under it, with and without
  // feedback from a prior run.
  const Catalog& catalog = SharedTpcds();
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (!q.fusion_applicable) continue;
    PlanContext ctx;
    PlanPtr plan = Unwrap(q.build(catalog, &ctx));
    QueryResult base = MustExecute(
        Unwrap(Optimizer(OptimizerOptions::Baseline()).Optimize(plan, &ctx)));
    PlanPtr first = Unwrap(
        Optimizer(OptimizerOptions::Adaptive(nullptr)).Optimize(plan, &ctx));
    QueryResult first_result = MustExecute(first);
    EXPECT_TRUE(ResultsEquivalent(base, first_result)) << q.name;
    StatsFeedback feedback;
    feedback.Harvest(first, first_result.operator_stats());
    PlanPtr second = Unwrap(
        Optimizer(OptimizerOptions::Adaptive(&feedback)).Optimize(plan, &ctx));
    EXPECT_TRUE(ResultsEquivalent(base, MustExecute(second))) << q.name;
  }
}

}  // namespace
}  // namespace fusiondb
