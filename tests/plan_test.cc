// Logical plan construction: PlanBuilder, schema propagation,
// CloneWithChildren, the plan printer and structural helpers; plan identity
// (fingerprint determinism under renumbering and sensitivity to change).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "plan/spool.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

PlanBuilder ScanItems(PlanContext* ctx) {
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  return PlanBuilder::Scan(ctx, item,
                           {"i_item_sk", "i_brand_id", "i_category"});
}

TEST(PlanBuilderTest, ScanMintsFreshIds) {
  PlanContext ctx;
  PlanBuilder a = ScanItems(&ctx);
  PlanBuilder b = ScanItems(&ctx);
  // Two instances of the same table get disjoint column identities —
  // Athena's convention, which fusion relies on.
  for (const ColumnInfo& ca : a.schema().columns()) {
    EXPECT_FALSE(b.schema().Contains(ca.id));
  }
  EXPECT_EQ(a.Build()->kind(), OpKind::kScan);
  EXPECT_EQ(Cast<ScanOp>(*a.Build()).table()->name(), "item");
}

TEST(PlanBuilderTest, FilterProjectSchemas) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  ColumnId sk = b.Col("i_item_sk").id;
  b.Filter(eb::Gt(b.Ref("i_item_sk"), eb::Int(10)));
  EXPECT_EQ(b.schema().num_columns(), 3u);  // filters pass through
  b.Project({{"doubled", eb::Mul(b.Ref("i_item_sk"), eb::Int(2))}});
  EXPECT_EQ(b.schema().num_columns(), 1u);
  EXPECT_EQ(b.schema().column(0).name, "doubled");
  EXPECT_FALSE(b.schema().Contains(sk));
}

TEST(PlanBuilderTest, SelectKeepsIds) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  ColumnId sk = b.Col("i_item_sk").id;
  b.Select({"i_item_sk"});
  EXPECT_EQ(b.schema().num_columns(), 1u);
  EXPECT_EQ(b.schema().column(0).id, sk);
}

TEST(PlanBuilderTest, JoinSchemasByType) {
  PlanContext ctx;
  PlanBuilder l = ScanItems(&ctx);
  PlanBuilder r = ScanItems(&ctx);
  size_t lw = l.schema().num_columns();
  PlanBuilder inner = l;
  inner.JoinOn(JoinType::kInner, r, {{"i_item_sk", "i_item_sk"}});
  EXPECT_EQ(inner.schema().num_columns(), 2 * lw);
  PlanBuilder semi = ScanItems(&ctx);
  PlanBuilder r2 = ScanItems(&ctx);
  semi.Join(JoinType::kSemi, r2,
            eb::Eq(semi.Ref("i_item_sk"), r2.Ref("i_item_sk")));
  EXPECT_EQ(semi.schema().num_columns(), lw);
}

TEST(PlanBuilderTest, AggregateSchema) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  ColumnId cat = b.Col("i_category").id;
  b.Aggregate({"i_category"},
              {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false},
               {"max_brand", AggFunc::kMax, b.Ref("i_brand_id"), nullptr,
                false}});
  ASSERT_EQ(b.schema().num_columns(), 3u);
  EXPECT_EQ(b.schema().column(0).id, cat);  // group cols keep identity
  EXPECT_EQ(b.schema().column(1).type, DataType::kInt64);
  const auto& agg = Cast<AggregateOp>(*b.Build());
  EXPECT_FALSE(agg.IsScalar());
  EXPECT_EQ(agg.aggregates()[0].result_type(), DataType::kInt64);
}

TEST(PlanBuilderTest, AggResultTypes) {
  EXPECT_EQ(AggResultType(AggFunc::kAvg, DataType::kInt64),
            DataType::kFloat64);
  EXPECT_EQ(AggResultType(AggFunc::kSum, DataType::kInt64), DataType::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kSum, DataType::kFloat64),
            DataType::kFloat64);
  EXPECT_EQ(AggResultType(AggFunc::kMin, DataType::kString),
            DataType::kString);
  EXPECT_EQ(AggResultType(AggFunc::kCount, DataType::kString),
            DataType::kInt64);
}

TEST(PlanBuilderTest, WindowAppendsColumns) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  b.Window({"i_category"}, {{"avg_brand", AggFunc::kAvg, b.Ref("i_brand_id"),
                             nullptr, false}});
  EXPECT_EQ(b.schema().num_columns(), 4u);
  EXPECT_EQ(b.schema().column(3).type, DataType::kFloat64);
}

TEST(PlanBuilderTest, UnionAllPositional) {
  PlanContext ctx;
  PlanBuilder a = ScanItems(&ctx);
  a.Select({"i_item_sk"});
  PlanBuilder b = ScanItems(&ctx);
  b.Select({"i_item_sk"});
  PlanBuilder u = PlanBuilder::UnionAll(&ctx, {a, b});
  EXPECT_EQ(u.schema().num_columns(), 1u);
  const auto& op = Cast<UnionAllOp>(*u.Build());
  EXPECT_EQ(op.num_children(), 2u);
  EXPECT_EQ(op.input_columns()[0][0], a.schema().column(0).id);
}

TEST(PlanTest, CloneWithChildrenRecomputesSchema) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  ExprPtr pred = eb::Gt(b.Ref("i_brand_id"), eb::Int(3));
  PlanPtr filter = std::make_shared<FilterOp>(b.Build(), pred);
  // Re-parent the filter over a narrower scan that still has the column.
  PlanBuilder narrow = PlanBuilder::From(
      &ctx, b.Build());
  PlanPtr clone = filter->CloneWithChildren({narrow.Build()});
  EXPECT_EQ(clone->kind(), OpKind::kFilter);
  EXPECT_EQ(Cast<FilterOp>(*clone).predicate(), pred);
}

TEST(PlanPrinterTest, RendersAndCounts) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  b.Filter(eb::Gt(b.Ref("i_brand_id"), eb::Int(10)));
  b.Aggregate({"i_category"},
              {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false}});
  b.Sort({{"cnt", false}});
  b.Limit(5);
  PlanPtr plan = b.Build();
  std::string text = PlanToString(plan);
  EXPECT_NE(text.find("Scan(item)"), std::string::npos);
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
  EXPECT_NE(text.find("Limit 5"), std::string::npos);
  EXPECT_EQ(CountOps(plan, OpKind::kFilter), 1);
  EXPECT_EQ(CountTableScans(plan, "item"), 1);
  EXPECT_EQ(CountTableScans(plan, "store"), 0);
  EXPECT_EQ(CountAllOps(plan), 5);
}

TEST(PlanTest, ValuesAndSingleRow) {
  PlanContext ctx;
  PlanBuilder v = PlanBuilder::Values(
      &ctx, {"tag"}, {DataType::kInt64},
      {{Value::Int64(1)}, {Value::Int64(2)}});
  EXPECT_EQ(Cast<ValuesOp>(*v.Build()).rows().size(), 2u);
  v.EnforceSingleRow();
  EXPECT_EQ(v.Build()->kind(), OpKind::kEnforceSingleRow);
}

TEST(PlanTest, ApplySchemaAppendsScalar) {
  PlanContext ctx;
  PlanBuilder outer = ScanItems(&ctx);
  PlanBuilder inner = ScanItems(&ctx);
  ColumnId corr = inner.Col("i_category").id;
  PlanBuilder sub = inner;
  sub.Aggregate({}, {{"avg_b", AggFunc::kAvg, inner.Ref("i_brand_id"),
                      nullptr, false}});
  outer.Apply(sub, {{"i_category", corr}});
  EXPECT_EQ(outer.schema().num_columns(), 4u);
  EXPECT_EQ(outer.schema().column(3).name, "avg_b");
  const auto& apply = Cast<ApplyOp>(*outer.Build());
  EXPECT_EQ(apply.correlation().size(), 1u);
}

// --- plan identity -----------------------------------------------------------

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

}  // namespace
}  // namespace fusiondb
