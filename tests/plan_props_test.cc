// The semantic analysis tier (DESIGN.md §8): per-operator property
// derivation (keys, domains, row bounds), the expression-level implication
// checker, contradiction detection, and the SemanticVerifier's translation
// validation — every [semantic-*] tag has a hand-built plan that trips it
// and a minimally different one that passes. Also covers a consumer:
// JoinOnKeys firing from derived keys.
#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::SharedTpcds;
using testutil::Unwrap;

PlanBuilder Items(PlanContext* ctx) {
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  return PlanBuilder::Scan(ctx, item, {"i_item_sk", "i_brand_id"});
}

PlanBuilder Sales(PlanContext* ctx) {
  TablePtr ss = Unwrap(SharedTpcds().GetTable("store_sales"));
  return PlanBuilder::Scan(ctx, ss, {"ss_sold_date_sk", "ss_item_sk"});
}

/// Asserts `st` failed with the given [semantic-*] tag in its message.
void ExpectTag(const Status& st, const char* tag) {
  ASSERT_FALSE(st.ok()) << "expected [" << tag << "] violation";
  EXPECT_NE(st.message().find(std::string("[") + tag + "]"),
            std::string::npos)
      << "expected tag [" << tag << "] in: " << st.ToString();
}

// --- derivation: scans -----------------------------------------------------

TEST(PlanPropsTest, ScanPrimaryKeyIsKey) {
  PlanContext ctx;
  PlanPtr scan = Items(&ctx).Build();
  PropertyDerivation d;
  const PlanProps& p = d.Derive(scan);
  EXPECT_TRUE(p.HasKey({scan->schema().column(0).id}))
      << "i_item_sk is item's primary key";
  EXPECT_FALSE(p.HasKey({scan->schema().column(1).id}));
  int64_t n = Unwrap(SharedTpcds().GetTable("item"))->num_rows();
  EXPECT_EQ(p.rows.min, n);
  EXPECT_EQ(p.rows.max, n);
}

TEST(PlanPropsTest, ScanWithoutKeyColumnHasNoKey) {
  PlanContext ctx;
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  PlanPtr scan = PlanBuilder::Scan(&ctx, item, {"i_brand_id"}).Build();
  PropertyDerivation d;
  EXPECT_TRUE(d.Derive(scan).keys.empty())
      << "the primary key column is not scanned";
}

TEST(PlanPropsTest, ScanPartitionColumnGetsHullDomain) {
  PlanContext ctx;
  PlanPtr scan = Sales(&ctx).Build();
  PropertyDerivation d;
  const PlanProps& p = d.Derive(scan);
  ColumnId date = scan->schema().column(0).id;
  auto it = p.domains.find(date);
  ASSERT_NE(it, p.domains.end())
      << "partitioned fact table must bound its partition column";
  EXPECT_TRUE(it->second.lo.has);
  EXPECT_TRUE(it->second.hi.has);
  // The non-partition column has no catalog-derived bounds.
  EXPECT_EQ(p.domains.count(scan->schema().column(1).id), 0u);
}

// --- derivation: relational operators --------------------------------------

TEST(PlanPropsTest, FilterTightensDomains) {
  PlanContext ctx;
  PlanBuilder b = Items(&ctx);
  ColumnId brand = b.Col("i_brand_id").id;
  b.Filter(eb::Gt(b.Ref("i_brand_id"), eb::Int(5)));
  PropertyDerivation d;
  const PlanProps& p = d.Derive(b.Build());
  auto it = p.domains.find(brand);
  ASSERT_NE(it, p.domains.end());
  EXPECT_FALSE(it->second.nullable) << "x > 5 proves x is not NULL";
  ASSERT_TRUE(it->second.lo.has);
  EXPECT_TRUE(it->second.lo.strict);
  EXPECT_EQ(it->second.lo.value.Compare(Value::Int64(5)), 0);
}

TEST(PlanPropsTest, GroupByColumnsKeyTheAggregate) {
  PlanContext ctx;
  PlanBuilder b = Items(&ctx);
  b.Aggregate({"i_brand_id"},
              {{"s", AggFunc::kSum, b.Ref("i_item_sk"), nullptr, false}});
  PlanPtr plan = b.Build();
  PropertyDerivation d;
  const PlanProps& p = d.Derive(plan);
  ColumnId brand = plan->schema().column(0).id;
  EXPECT_TRUE(p.HasKey({brand}));
  // FD closure: the group columns determine the aggregate outputs, so the
  // full output column set also covers the key.
  EXPECT_TRUE(p.HasKey({brand, plan->schema().column(1).id}));
}

TEST(PlanPropsTest, ScalarAggregateIsSingleRow) {
  PlanContext ctx;
  PlanBuilder b = Items(&ctx);
  b.Aggregate({}, {{"s", AggFunc::kSum, b.Ref("i_brand_id"), nullptr, false}});
  PropertyDerivation d;
  const PlanProps& p = d.Derive(b.Build());
  EXPECT_EQ(p.rows.max, 1);
  EXPECT_TRUE(p.HasKey({})) << "a single-row relation has the empty key";
}

TEST(PlanPropsTest, InnerJoinUnionsKeys) {
  PlanContext ctx;
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  TablePtr store = Unwrap(SharedTpcds().GetTable("store"));
  PlanBuilder a = PlanBuilder::Scan(&ctx, item, {"i_item_sk"});
  PlanBuilder b = PlanBuilder::Scan(&ctx, store, {"s_store_sk"});
  ColumnId ik = a.Col("i_item_sk").id;
  ColumnId sk = b.Col("s_store_sk").id;
  a.JoinOn(JoinType::kInner, b, {{"i_item_sk", "s_store_sk"}});
  PropertyDerivation d;
  EXPECT_TRUE(d.Derive(a.Build()).HasKey({ik, sk}))
      << "PK x PK join: the union of the sides' keys keys the join";
}

TEST(PlanPropsTest, LeftJoinRightColumnsStayNullable) {
  PlanContext ctx;
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  TablePtr store = Unwrap(SharedTpcds().GetTable("store"));
  PlanBuilder a = PlanBuilder::Scan(&ctx, item, {"i_item_sk"});
  PlanBuilder b = PlanBuilder::Scan(&ctx, store, {"s_store_sk"});
  ColumnId sk = b.Col("s_store_sk").id;
  a.JoinOn(JoinType::kLeft, b, {{"i_item_sk", "s_store_sk"}});
  PropertyDerivation d;
  const PlanProps& p = d.Derive(a.Build());
  auto it = p.domains.find(sk);
  if (it != p.domains.end()) {
    EXPECT_TRUE(it->second.nullable)
        << "left-join padding can NULL the right side";
  }
}

TEST(PlanPropsTest, ValuesRowBoundsAndDomains) {
  PlanContext ctx;
  PlanPtr v = PlanBuilder::Values(&ctx, {"x"}, {DataType::kInt64},
                                  {{Value::Int64(3)}, {Value::Int64(7)}})
                  .Build();
  PropertyDerivation d;
  const PlanProps& p = d.Derive(v);
  EXPECT_EQ(p.rows.min, 2);
  EXPECT_EQ(p.rows.max, 2);
  auto it = p.domains.find(v->schema().column(0).id);
  ASSERT_NE(it, p.domains.end());
  EXPECT_FALSE(it->second.nullable);
  EXPECT_EQ(it->second.lo.value.Compare(Value::Int64(3)), 0);
  EXPECT_EQ(it->second.hi.value.Compare(Value::Int64(7)), 0);
}

// --- derivation: memoization and renumbering stability ----------------------

TEST(PlanPropsTest, SharedSubtreeDerivedOnce) {
  PlanContext ctx;
  PlanBuilder b = Items(&ctx);
  ExprPtr brand = b.Ref("i_brand_id");
  PlanPtr scan = b.Build();
  PlanPtr f1 = std::make_shared<FilterOp>(scan, eb::Gt(brand, eb::Int(5)));
  PlanPtr f2 = std::make_shared<FilterOp>(scan, eb::Lt(brand, eb::Int(100)));
  PropertyDerivation d;
  d.Derive(f1);
  d.Derive(f2);
  EXPECT_EQ(d.nodes_derived(), 3) << "the shared scan must be derived once";
  d.Derive(f1);  // memo hit, no growth
  EXPECT_EQ(d.nodes_derived(), 3);
  EXPECT_NE(d.Lookup(scan.get()), nullptr);
  EXPECT_EQ(d.Lookup(nullptr), nullptr);
}

TEST(PlanPropsTest, PropertiesStableUnderRenumbering) {
  PlanContext ctx;
  PlanBuilder b = Items(&ctx);
  ColumnId key = b.Col("i_item_sk").id;
  b.Filter(eb::Gt(b.Ref("i_brand_id"), eb::Int(5)));
  PlanPtr plan = b.Build();

  PlanContext other;
  other.NextId();  // shift the id space so renumbering actually renumbers
  RenumberedPlan ren = RenumberPlan(plan, &other);
  ASSERT_NE(ApplyMap(ren.mapping, key), key) << "fixture must renumber";

  PropertyDerivation d;
  const PlanProps& p0 = d.Derive(plan);
  const PlanProps& p1 = d.Derive(ren.plan);
  EXPECT_TRUE(p0.HasKey({key}));
  EXPECT_TRUE(p1.HasKey({ApplyMap(ren.mapping, key)}));
  EXPECT_EQ(p0.rows.min, p1.rows.min);
  EXPECT_EQ(p0.rows.max, p1.rows.max);
  EXPECT_EQ(p0.keys.size(), p1.keys.size());
  EXPECT_EQ(p0.domains.size(), p1.domains.size());
}

// --- expression-level checkers ---------------------------------------------

TEST(PlanPropsTest, ImpliesBasics) {
  ExprPtr x = eb::Col(1, DataType::kInt64);
  EXPECT_TRUE(Implies(eb::Gt(x, eb::Int(10)), eb::Gt(x, eb::Int(5))));
  EXPECT_FALSE(Implies(eb::Gt(x, eb::Int(5)), eb::Gt(x, eb::Int(10))));
  EXPECT_TRUE(Implies(eb::Eq(x, eb::Int(7)),
                      eb::And(eb::Ge(x, eb::Int(5)), eb::Le(x, eb::Int(10)))));
  EXPECT_TRUE(Implies(eb::Gt(x, eb::Int(5)), eb::IsNotNull(x)))
      << "a satisfied comparison proves non-NULL";
  // Vacuous and unprovable edges.
  EXPECT_TRUE(Implies(eb::Gt(x, eb::Int(5)), nullptr));
  EXPECT_TRUE(Implies(eb::Gt(x, eb::Int(5)), eb::True()));
  EXPECT_FALSE(Implies(nullptr, eb::Gt(x, eb::Int(5))));
}

TEST(PlanPropsTest, ImpliesUsesAmbientDomains) {
  ExprPtr x = eb::Col(1, DataType::kInt64);
  DomainMap ambient;
  ColumnDomain d;
  d.nullable = false;
  d.lo = {true, false, Value::Int64(1)};
  d.hi = {true, false, Value::Int64(10)};
  ambient[1] = d;
  // TRUE premise: only the ambient facts can prove the conclusion.
  EXPECT_TRUE(Implies(nullptr, eb::IsNotNull(x), &ambient));
  EXPECT_TRUE(Implies(nullptr, eb::Le(x, eb::Int(20)), &ambient));
  EXPECT_FALSE(Implies(nullptr, eb::Le(x, eb::Int(5)), &ambient));
}

TEST(PlanPropsTest, TightenAndDropImpliedConjuncts) {
  ExprPtr x = eb::Col(1, DataType::kInt64);
  ExprPtr y = eb::Col(2, DataType::kInt64);
  DomainMap domains;
  TightenDomains(eb::Gt(x, eb::Int(5)), &domains);
  ASSERT_EQ(domains.count(1), 1u);
  EXPECT_FALSE(domains[1].nullable);
  EXPECT_TRUE(domains[1].lo.has && domains[1].lo.strict);

  DomainMap ambient;
  ColumnDomain d;
  d.nullable = false;
  d.lo = {true, false, Value::Int64(1)};
  d.hi = {true, false, Value::Int64(10)};
  ambient[1] = d;
  std::vector<ExprPtr> conjuncts = {eb::IsNotNull(x), eb::Le(x, eb::Int(20)),
                                    eb::Gt(y, eb::Int(0))};
  std::vector<ExprPtr> kept = DropImpliedConjuncts(conjuncts, ambient);
  ASSERT_EQ(kept.size(), 1u) << "two conjuncts are implied by the domain";
  EXPECT_EQ(kept[0].get(), conjuncts[2].get()) << "order/identity preserved";
}

TEST(PlanPropsTest, OrHullsEveryColumnAllBranchesConstrain) {
  ExprPtr x = eb::Col(1, DataType::kInt64);
  ExprPtr y = eb::Col(2, DataType::kInt64);
  ExprPtr z = eb::Col(3, DataType::kInt64);
  // (x in [1,5] AND y = 2 AND z > 0) OR (x in [3,9] AND y = 7): every row
  // satisfies a branch, so x in [1,9] and y in [2,7]; z is constrained by
  // one branch only and stays unknown.
  DomainMap domains;
  TightenDomains(
      eb::Or(eb::And({eb::Between(x, eb::Int(1), eb::Int(5)),
                      eb::Eq(y, eb::Int(2)), eb::Gt(z, eb::Int(0))}),
             eb::And(eb::Between(x, eb::Int(3), eb::Int(9)),
                     eb::Eq(y, eb::Int(7)))),
      &domains);
  ASSERT_EQ(domains.count(1), 1u);
  ASSERT_EQ(domains.count(2), 1u);
  EXPECT_EQ(domains.count(3), 0u);
  EXPECT_FALSE(domains[1].nullable);
  EXPECT_EQ(domains[1].lo.value, Value::Int64(1));
  EXPECT_EQ(domains[1].hi.value, Value::Int64(9));
  EXPECT_EQ(domains[2].lo.value, Value::Int64(2));
  EXPECT_EQ(domains[2].hi.value, Value::Int64(7));
  // A branch that constrains no common column leaves nothing.
  domains.clear();
  TightenDomains(eb::Or(eb::Eq(x, eb::Int(1)), eb::Eq(y, eb::Int(2))),
                 &domains);
  EXPECT_TRUE(domains.empty());
}

TEST(PlanPropsTest, PropsToStringMentionsKeysAndRows) {
  PlanContext ctx;
  PropertyDerivation d;
  std::string s = PropsToString(d.Derive(Items(&ctx).Build()));
  EXPECT_NE(s.find("keys="), std::string::npos) << s;
  EXPECT_NE(s.find("rows="), std::string::npos) << s;
}

// --- contradiction detection (the IV.D UnionAll shortcut) -----------------

namespace contradiction {

using namespace eb;  // NOLINT

ExprPtr C(ColumnId id) { return Col(id, DataType::kInt64); }

TEST(ContradictionTest, DisjointRanges) {
  // The IV.D shortcut case: BETWEEN buckets that cannot overlap.
  ExprPtr both = And(Between(C(1), Int(1), Int(20)),
                     Between(C(1), Int(21), Int(40)));
  EXPECT_TRUE(IsContradiction(both));
  ExprPtr overlap = And(Between(C(1), Int(1), Int(20)),
                        Between(C(1), Int(15), Int(40)));
  EXPECT_FALSE(IsContradiction(overlap));
}

TEST(ContradictionTest, ConflictingEqualities) {
  EXPECT_TRUE(IsContradiction(And(Eq(C(1), Int(3)), Eq(C(1), Int(4)))));
  EXPECT_FALSE(IsContradiction(And(Eq(C(1), Int(3)), Eq(C(2), Int(4)))));
  ExprPtr s = Col(9, DataType::kString);
  EXPECT_TRUE(IsContradiction(And(Eq(s, Str("a")), Eq(s, Str("b")))));
  EXPECT_FALSE(IsContradiction(And(Eq(s, Str("a")), Eq(s, Str("a")))));
}

TEST(ContradictionTest, NegatedConjunct) {
  ExprPtr p = Gt(C(1), Int(5));
  EXPECT_TRUE(IsContradiction(And(p, Not(p))));
}

TEST(ContradictionTest, EqualityOutsideRange) {
  EXPECT_TRUE(IsContradiction(And(Eq(C(1), Int(100)), Lt(C(1), Int(10)))));
  EXPECT_TRUE(IsContradiction(And(Gt(C(1), Int(5)), Lt(C(1), Int(5)))));
  EXPECT_FALSE(IsContradiction(And(Ge(C(1), Int(5)), Le(C(1), Int(5)))));
}

TEST(ContradictionTest, ConservativeOnOpaquePredicates) {
  // Unprovable contradictions must return false, never a wrong true.
  EXPECT_FALSE(IsContradiction(Gt(C(1), C(2))));
  EXPECT_FALSE(IsContradiction(And(Gt(C(1), C(2)), Lt(C(1), C(2)))));
}

TEST(ContradictionTest, ComparisonWithNull) {
  // col = NULL is never TRUE, whatever the other conjuncts say.
  EXPECT_TRUE(IsContradiction(
      And(Eq(C(1), NullOf(DataType::kInt64)), Gt(C(2), Int(0)))));
  EXPECT_TRUE(IsContradiction(
      And(Gt(C(2), Int(0)), Lt(NullOf(DataType::kInt64), C(1)))));
}

TEST(ContradictionTest, DisjointStringRanges) {
  ExprPtr s = Col(9, DataType::kString);
  EXPECT_TRUE(IsContradiction(And(Lt(s, Str("a")), Gt(s, Str("b")))));
  EXPECT_FALSE(IsContradiction(And(Gt(s, Str("a")), Lt(s, Str("b")))));
}

}  // namespace contradiction

// --- semantic verifier: one negative test per tag ---------------------------

TEST(SemanticVerifierTest, AcceptsValidPlans) {
  PlanContext ctx;
  PlanBuilder b = Items(&ctx);
  b.Filter(eb::Gt(b.Ref("i_brand_id"), eb::Int(5)));
  b.Aggregate({"i_brand_id"},
              {{"s", AggFunc::kSum, b.Ref("i_item_sk"), nullptr, false}});
  SemanticVerifier v;
  FUSIONDB_EXPECT_OK(v.Verify(b.Build(), "test"));
  EXPECT_EQ(v.plans_verified(), 1);
}

TEST(SemanticVerifierTest, RejectsImpossibleEnforceSingleRow) {
  PlanContext ctx;
  PlanBuilder two = PlanBuilder::Values(&ctx, {"x"}, {DataType::kInt64},
                                        {{Value::Int64(1)}, {Value::Int64(2)}});
  two.EnforceSingleRow();
  SemanticVerifier v;
  ExpectTag(v.Verify(two.Build(), "test"), "semantic-single-row-impossible");

  PlanBuilder one = PlanBuilder::Values(&ctx, {"x"}, {DataType::kInt64},
                                        {{Value::Int64(1)}});
  one.EnforceSingleRow();
  FUSIONDB_EXPECT_OK(SemanticVerifier().Verify(one.Build(), "test"));
}

TEST(SemanticVerifierTest, RejectsUnprovableKeyObligation) {
  PlanContext ctx;
  PlanPtr scan = Items(&ctx).Build();
  ColumnId item_sk = scan->schema().column(0).id;
  ColumnId brand = scan->schema().column(1).id;

  SemanticLedger ledger;
  ledger.AddKey(scan, {brand}, "test-rule");
  SemanticVerifier v;
  ExpectTag(v.CheckObligations(&ledger, "test"), "semantic-key-obligation");
  EXPECT_EQ(v.obligations_checked(), 1);
  EXPECT_TRUE(ledger.empty()) << "obligations are drained even on failure";

  ledger.AddKey(scan, {item_sk}, "test-rule");
  FUSIONDB_EXPECT_OK(v.CheckObligations(&ledger, "test"));
  // A null ledger is a no-op.
  FUSIONDB_EXPECT_OK(v.CheckObligations(nullptr, "test"));
}

TEST(SemanticVerifierTest, RejectsUnprovableFilterImplication) {
  PlanContext ctx;
  PlanBuilder b = Items(&ctx);
  ExprPtr brand = b.Ref("i_brand_id");
  PlanPtr scan = b.Build();

  // The replace-instead-of-conjoin bug: a rule kept x > 5 claiming it
  // stands in for the dropped x > 10. It does not.
  SemanticLedger ledger;
  ledger.AddImplication(scan, eb::Gt(brand, eb::Int(5)),
                        eb::Gt(brand, eb::Int(10)), "test-rule");
  SemanticVerifier v;
  ExpectTag(v.CheckObligations(&ledger, "test"),
            "semantic-filter-implication");

  // The sound direction verifies.
  ledger.AddImplication(scan, eb::Gt(brand, eb::Int(10)),
                        eb::Gt(brand, eb::Int(5)), "test-rule");
  FUSIONDB_EXPECT_OK(v.CheckObligations(&ledger, "test"));
}

TEST(SemanticVerifierTest, RejectsBrokenCrossPlanConsumer) {
  PlanContext ctx;
  PlanPtr fused = Items(&ctx).Build();
  const Schema& schema = fused->schema();
  SemanticVerifier v;

  // Well-formed: identity mapping, no compensating filter.
  FUSIONDB_EXPECT_OK(v.VerifyConsumer(fused, nullptr, {}, schema, "test"));

  // Non-boolean compensating filter.
  ExpectTag(v.VerifyConsumer(fused, eb::Col(schema.column(1)), {}, schema,
                             "test"),
            "semantic-consumer-filter");

  // Mapping routes a member column to a column the fused plan lacks.
  ColumnMap broken;
  broken[schema.column(0).id] = 999999;
  ExpectTag(v.VerifyConsumer(fused, nullptr, broken, schema, "test"),
            "semantic-consumer-filter");
}

// --- consumers of the derived properties ------------------------------------

TEST(JoinOnKeysDerivedTest, CollapsesPrimaryKeySelfJoin) {
  PlanContext ctx;
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  PlanBuilder a = PlanBuilder::Scan(&ctx, item, {"i_item_sk", "i_brand_id"});
  PlanBuilder b =
      PlanBuilder::Scan(&ctx, item, {"i_item_sk", "i_manufact_id"});
  a.JoinOn(JoinType::kInner, b, {{"i_item_sk", "i_item_sk"}});
  PlanPtr plan = a.Build();
  QueryResult baseline = MustExecute(plan);

  // No Aggregate below either side: only the scan's derived primary key
  // justifies this collapse. Run with a ledger attached so the firing's
  // key obligation is recorded and re-proved.
  SemanticLedger ledger;
  ctx.set_semantics(&ledger);
  Optimizer optimizer{OptimizerOptions::Fused()};
  PlanPtr optimized = Unwrap(optimizer.Optimize(plan, &ctx));
  ctx.set_semantics(nullptr);
  EXPECT_EQ(CountTableScans(optimized, "item"), 1)
      << PlanToString(optimized);
  EXPECT_TRUE(ResultsEquivalent(baseline, MustExecute(optimized)));
}

// --- end to end: every TPC-DS query under every mode, semantics on ----------

TEST(SemanticSweepTest, AllQueriesAllModesVerify) {
  const Catalog& catalog = SharedTpcds();
  struct ModeCase {
    const char* name;
    OptimizerOptions options;
  };
  const ModeCase modes[] = {
      {"baseline", OptimizerOptions::Baseline()},
      {"fused", OptimizerOptions::Fused()},
      {"spooling", OptimizerOptions::Spooling()},
  };
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    for (const ModeCase& mode : modes) {
      PlanContext ctx;
      SemanticLedger ledger;
      ctx.set_semantics(&ledger);  // activates the semantic tier
      PlanPtr plan = Unwrap(q.build(catalog, &ctx));
      Optimizer optimizer{mode.options};
      Result<PlanPtr> optimized = optimizer.Optimize(plan, &ctx);
      ASSERT_TRUE(optimized.ok())
          << q.name << " under " << mode.name << ": "
          << optimized.status().ToString();
      EXPECT_TRUE(ledger.empty())
          << q.name << " under " << mode.name
          << ": the optimizer must drain every recorded obligation";
    }
  }
}

}  // namespace
}  // namespace fusiondb
