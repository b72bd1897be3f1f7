// TPC-DS substrate: generator determinism, schema/cardinality sanity,
// partitioning, and that every benchmark query builds and returns sensible
// results.
#include <array>
#include <map>

#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::SharedTpcds;
using testutil::Unwrap;

TEST(TpcdsDatagenTest, AllTablesPresent) {
  const Catalog& catalog = SharedTpcds();
  for (const char* name :
       {"date_dim", "time_dim", "item", "store", "customer",
        "customer_address", "household_demographics", "reason", "web_site",
        "warehouse", "store_sales", "store_returns", "web_sales",
        "web_returns", "catalog_sales"}) {
    EXPECT_TRUE(catalog.GetTable(name).ok()) << name;
  }
}

TEST(TpcdsDatagenTest, RowCountsScale) {
  const Catalog& small = SharedTpcds(0.003);
  const Catalog& large = SharedTpcds(0.01);
  int64_t small_ss = Unwrap(small.GetTable("store_sales"))->num_rows();
  int64_t large_ss = Unwrap(large.GetTable("store_sales"))->num_rows();
  EXPECT_GT(large_ss, small_ss);
  // Facts scale linearly; dates are calendar-fixed.
  EXPECT_EQ(Unwrap(small.GetTable("date_dim"))->num_rows(),
            Unwrap(large.GetTable("date_dim"))->num_rows());
}

TEST(TpcdsDatagenTest, Deterministic) {
  Catalog a;
  Catalog b;
  tpcds::TpcdsOptions options;
  options.scale = 0.003;
  ASSERT_TRUE(tpcds::BuildTpcdsCatalog(options, &a).ok());
  ASSERT_TRUE(tpcds::BuildTpcdsCatalog(options, &b).ok());
  PlanContext ctx;
  PlanPtr pa = ScanOp::Make(&ctx, Unwrap(a.GetTable("store_sales")),
                            {"ss_item_sk", "ss_sales_price"});
  PlanPtr pb = ScanOp::Make(&ctx, Unwrap(b.GetTable("store_sales")),
                            {"ss_item_sk", "ss_sales_price"});
  EXPECT_TRUE(ResultsEquivalent(MustExecute(pa), MustExecute(pb)));
}

TEST(TpcdsDatagenTest, FactTablesDatePartitioned) {
  const Catalog& catalog = SharedTpcds();
  for (const char* fact : {"store_sales", "store_returns", "web_sales",
                           "web_returns", "catalog_sales"}) {
    TablePtr t = Unwrap(catalog.GetTable(fact));
    EXPECT_GE(t->partitions().size(), 50u)
        << fact << " should be partitioned monthly over ~6 years";
    EXPECT_GE(t->partition_column(), 0) << fact;
  }
  // Dimensions are a single partition.
  EXPECT_EQ(Unwrap(catalog.GetTable("item"))->partitions().size(), 1u);
}

TEST(TpcdsDatagenTest, DateDimMonthSeqMatchesPaperLiterals) {
  // The paper's Q65 filter is d_month_seq BETWEEN 1212 AND 1223 — that must
  // select exactly the twelve months of 2001.
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, Unwrap(catalog.GetTable("date_dim")),
                                    {"d_year", "d_month_seq"});
  b.Filter(eb::Between(b.Ref("d_month_seq"), eb::Int(1212), eb::Int(1223)));
  b.Aggregate({"d_year"},
              {{"days", AggFunc::kCountStar, nullptr, nullptr, false}});
  QueryResult r = MustExecute(b.Build());
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.At(0, 0), Value::Int64(2001));
  EXPECT_EQ(r.At(0, 1), Value::Int64(365));
}

TEST(TpcdsDatagenTest, ForeignKeysLandInDimensions) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder ss = PlanBuilder::Scan(&ctx, Unwrap(catalog.GetTable(
                                               "store_sales")),
                                     {"ss_item_sk"});
  PlanBuilder item = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("item")), {"i_item_sk"});
  ss.JoinOn(JoinType::kInner, item, {{"ss_item_sk", "i_item_sk"}});
  ss.Aggregate({}, {{"matched", AggFunc::kCountStar, nullptr, nullptr,
                     false}});
  QueryResult joined = MustExecute(ss.Build());
  int64_t total = Unwrap(catalog.GetTable("store_sales"))->num_rows();
  // ss_item_sk has no NULLs and always lands in item.
  EXPECT_EQ(joined.At(0, 0), Value::Int64(total));
}

TEST(TpcdsQueriesTest, RegistryLookup) {
  EXPECT_EQ(tpcds::Queries().size(), 18u);
  EXPECT_TRUE(tpcds::QueryByName("q65").ok());
  EXPECT_FALSE(tpcds::QueryByName("q999").ok());
  int applicable = 0;
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    applicable += q.fusion_applicable ? 1 : 0;
  }
  EXPECT_EQ(applicable, 9);
}

// Paper Section V.C: fusing Q23's two CTE instances halves the working
// memory of its hash operators (peak hash bytes).
TEST(TpcdsQueriesTest, Q23FusionCutsPeakHashMemory) {
  const Catalog& catalog = SharedTpcds();
  tpcds::TpcdsQuery q = Unwrap(tpcds::QueryByName("q23"));
  PlanContext ctx;
  PlanPtr plan = Unwrap(q.build(catalog, &ctx));
  QueryResult baseline = MustExecute(
      Unwrap(Optimizer(OptimizerOptions::Baseline()).Optimize(plan, &ctx)));
  QueryResult fused = MustExecute(
      Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx)));
  ASSERT_TRUE(ResultsEquivalent(baseline, fused));
  int64_t base_bytes = baseline.metrics().peak_hash_bytes;
  int64_t fused_bytes = fused.metrics().peak_hash_bytes;
  ASSERT_GT(base_bytes, 0);
  EXPECT_LE(fused_bytes * 10, base_bytes * 6)
      << "fused " << fused_bytes << " vs baseline " << base_bytes;
}

// Runtime join filters change only the bytes a run decodes, never the
// static bytes the plans' own pruning admits: for every query and mode at
// scale 0.01, ExecMetrics::StaticBytes equals the bytes_scanned the engine
// reported before runtime filters existed (the same figures
// `FUSIONDB_BENCH_SCALE=0.01 tpcds_overall` printed for baseline and fused),
// and ScanBytes, which reads them off the plan without running it, agrees
// (spooled subtrees counted once, as the executor runs them).
TEST(TpcdsScanBytesTest, StaticBytesPinnedAcrossModes) {
  // Per query: baseline, fused, spooling.
  const std::map<std::string, std::array<int64_t, 3>> kStaticBytes = {
      {"q01", {90869, 50015, 50015}},
      {"q09", {2882275, 504273, 2882275}},
      {"q23", {1177941, 746474, 746474}},
      {"q28", {4429776, 738296, 4429776}},
      {"q30", {57757, 39333, 39333}},
      {"q65", {760156, 396863, 396863}},
      {"q65v", {760156, 396863, 396863}},
      {"q88", {1444264, 180533, 214553}},
      {"q95", {265244, 219094, 219094}},
      {"q03", {360634, 360634, 360634}},
      {"q07", {928795, 928795, 928795}},
      {"q19", {427947, 427947, 427947}},
      {"q26", {320837, 320837, 320837}},
      {"q42", {350067, 350067, 350067}},
      {"q52", {357025, 357025, 357025}},
      {"q55", {360634, 360634, 360634}},
      {"q96", {170813, 170813, 170813}},
      {"q99", {79916, 79916, 79916}},
  };
  const Catalog& catalog = SharedTpcds(0.01);
  const OptimizerOptions modes[] = {OptimizerOptions::Baseline(),
                                     OptimizerOptions::Fused(),
                                     OptimizerOptions::Spooling()};
  int64_t runtime_pruned = 0;
  ASSERT_EQ(kStaticBytes.size(), tpcds::Queries().size());
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    auto pinned = kStaticBytes.find(q.name);
    ASSERT_NE(pinned, kStaticBytes.end()) << q.name;
    for (size_t m = 0; m < 3; ++m) {
      SCOPED_TRACE(q.name + " mode " + std::to_string(m));
      PlanContext ctx;
      PlanPtr plan = Unwrap(q.build(catalog, &ctx));
      PlanPtr optimized = Unwrap(Optimizer(modes[m]).Optimize(plan, &ctx));
      const ExecMetrics metrics = MustExecute(optimized).metrics();
      EXPECT_EQ(metrics.StaticBytes(), pinned->second[m]);
      EXPECT_EQ(ScanBytes(optimized), metrics.StaticBytes());
      EXPECT_LE(metrics.bytes_scanned, metrics.StaticBytes());
      runtime_pruned += metrics.runtime_pruned_bytes;
    }
  }
  EXPECT_GT(runtime_pruned, 0) << "no runtime join filter pruned anything";
}

class TpcdsQueryBuildTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(TpcdsQueryBuildTest, BuildsOptimizesAndReturnsRows) {
  const Catalog& catalog = SharedTpcds();
  tpcds::TpcdsQuery q = Unwrap(tpcds::QueryByName(GetParam()));
  PlanContext ctx;
  PlanPtr plan = Unwrap(q.build(catalog, &ctx));
  PlanPtr optimized =
      Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
  QueryResult r = MustExecute(optimized);
  // Every benchmark query must produce at least one row at test scale —
  // otherwise the comparison exercises nothing.
  EXPECT_GT(r.num_rows(), 0) << GetParam();
}

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) names.push_back(q.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, TpcdsQueryBuildTest,
                         ::testing::ValuesIn(AllNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace fusiondb
