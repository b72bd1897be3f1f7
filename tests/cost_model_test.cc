// The cost subsystem: plan fingerprints (determinism + sensitivity),
// catalog-seeded cardinality estimates, and the server's share-vs-solo
// decision from the cost model to profile JSON.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

/// The CTE fixture: filter + grouped aggregate over store_sales.
PlanBuilder SalesCte(PlanContext* ctx) {
  PlanBuilder b = Sales(ctx);
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(50)));
  b.Aggregate({"ss_store_sk"},
              {{"t", AggFunc::kSum, b.Ref("ss_list_price"), nullptr, false}});
  return b;
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
  // fingerprints must agree anyway, else the server could not recognize
  // two sessions' separately bound plans as one computation. Across the
  // whole sweep, equal fingerprints
  // must mean PlanEquivalent canonical forms and vice versa.
  const Catalog& catalog = SharedTpcds();
  const std::pair<const char*, OptimizerOptions> modes[] = {
      {"baseline", OptimizerOptions::Baseline()},
      {"fused", OptimizerOptions::Fused()},
      {"spooling", OptimizerOptions::Spooling()},
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
  CardinalityEstimator est;
  TablePtr ss = Unwrap(SharedTpcds().GetTable("store_sales"));

  PlanPtr scan = Sales(&ctx).Build();
  double scan_rows = est.Estimate(scan);
  EXPECT_EQ(scan_rows, static_cast<double>(ss->num_rows()));

  PlanBuilder filtered = Sales(&ctx);
  filtered.Filter(eb::Gt(filtered.Ref("ss_quantity"), eb::Int(50)));
  double filter_rows = est.Estimate(filtered.Build());
  EXPECT_LT(filter_rows, scan_rows);
  EXPECT_GT(filter_rows, 0.0);

  PlanBuilder scalar = Sales(&ctx);
  scalar.Aggregate({}, {{"c", AggFunc::kCountStar, nullptr, nullptr, false}});
  EXPECT_EQ(est.Estimate(scalar.Build()), 1.0);
}

// --- share vs solo -----------------------------------------------------------

TEST(CostModelTest, CostDecisionsExportedInProfileJson) {
  // The profile JSON is how decisions leave the process (run_query
  // --profile); a shared batch's CostDecision must appear in the trace's
  // cost_decisions array with its fingerprint and verdict.
  Engine engine(SharedTpcds());
  OptimizerTrace trace;
  ServerOptions options;
  options.trace = &trace;
  SessionManager& manager = *Unwrap(engine.StartServer(options));
  std::vector<PreparedQuery> prepared;
  std::vector<PlanPtr> plans;
  for (int i = 0; i < 2; ++i) {
    prepared.push_back(Unwrap(engine.Prepare(
        [](const Catalog&, PlanContext* c) -> Result<PlanPtr> {
          return SalesCte(c).Build();
        })));
    plans.push_back(prepared.back().plan());
  }
  std::vector<SessionPtr> sessions = manager.SubmitBatch(plans);
  for (const SessionPtr& s : sessions) ASSERT_TRUE(s->Wait().ok());
  engine.StopServer();
  ASSERT_EQ(trace.cost_decisions().size(), 1u);
  const CostDecision& d = trace.cost_decisions()[0];
  EXPECT_TRUE(d.shared);
  EXPECT_EQ(d.consumers, 2);
  ASSERT_TRUE(sessions[0]->shared());

  QueryProfile profile =
      MakeQueryProfile("cte", "fused", sessions[0]->executed_plan(),
                       *sessions[0]->Wait(), &trace);
  std::string json = ProfileToJson(profile);
  EXPECT_NE(json.find("\"cost_decisions\":"), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\":\"" +
                      FingerprintToString(d.fingerprint) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"shared\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"solo_cost_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"shared_cost_ns\":"), std::string::npos);
}

}  // namespace
}  // namespace fusiondb
