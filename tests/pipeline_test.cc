// Compiled pipelines (src/exec/pipeline.h), the executor's only path for
// Scan, Filter, Project and Aggregate. The oracle is the independent
// row-at-a-time reference evaluator (tests/reference_eval.h), which shares
// no code with src/exec. Coverage: a fixed-seed fuzz over randomized
// scan→filter→project(→aggregate) chains, the fused-chain shapes of
// bench/pipeline_micro, the full TPC-DS sweep under all four optimizer
// modes, parallelism invariance of rows and metrics (the `parallel` ctest
// label; run under TSan via -DFUSIONDB_SANITIZE=thread + `ctest -L
// parallel`), chains fed by a join, and the EXPLAIN ANALYZE /
// service-counter surfaces.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::ExpectMatchesReference;
using testutil::SharedTpcds;
using testutil::Unwrap;

/// Executes `plan` at `parallelism` and checks it against the reference
/// evaluator. Returns the run for callers that inspect its records.
QueryResult ExecuteAndCheck(const PlanPtr& plan, size_t parallelism = 1) {
  QueryResult result =
      Unwrap(ExecutePlan(plan, {.parallelism = parallelism}));
  ExpectMatchesReference(plan, result);
  return result;
}

/// Asserts two runs of one plan report identical metrics.
void ExpectSameMetrics(const QueryResult& a, const QueryResult& b,
                       const std::string& what) {
  EXPECT_EQ(a.metrics().bytes_scanned, b.metrics().bytes_scanned) << what;
  EXPECT_EQ(a.metrics().rows_scanned, b.metrics().rows_scanned) << what;
  EXPECT_EQ(a.metrics().partitions_scanned, b.metrics().partitions_scanned)
      << what;
  EXPECT_EQ(a.metrics().partitions_pruned, b.metrics().partitions_pruned)
      << what;
  EXPECT_EQ(a.metrics().rows_produced, b.metrics().rows_produced) << what;
  EXPECT_EQ(a.metrics().peak_hash_bytes, b.metrics().peak_hash_bytes) << what;
}

// ---------------------------------------------------------------------------
// Differential fuzz: randomized chains, fixed seed.
// ---------------------------------------------------------------------------

struct FuzzColumn {
  const char* name;
  bool is_float;
  int64_t lo;  // plausible literal range for predicates
  int64_t hi;
};

struct FuzzTable {
  const char* name;
  std::vector<FuzzColumn> columns;
};

const std::vector<FuzzTable>& FuzzTables() {
  static const std::vector<FuzzTable>& tables = *new std::vector<FuzzTable>{
      {"store_sales",
       {{"ss_store_sk", false, 0, 10},
        {"ss_item_sk", false, 0, 2000},
        {"ss_quantity", false, 0, 100},
        {"ss_list_price", true, 0, 100},
        {"ss_sales_price", true, 0, 100}}},
      {"item",
       {{"i_item_sk", false, 0, 2000},
        {"i_brand_id", false, 0, 1000},
        {"i_category_id", false, 0, 10}}},
      {"date_dim",
       {{"d_date_sk", false, 2450000, 2460000},
        {"d_year", false, 1998, 2003},
        {"d_month_seq", false, 1170, 1260}}},
  };
  return tables;
}

ExprPtr RandomPredicate(std::mt19937* rng, PlanBuilder* b,
                        const FuzzColumn& col) {
  auto pick = [&](int64_t n) {
    return static_cast<int64_t>((*rng)() % static_cast<uint64_t>(n));
  };
  int64_t span = col.hi - col.lo;
  int64_t lo = col.lo + pick(span + 1);
  ExprPtr ref = b->Ref(col.name);
  ExprPtr lit = col.is_float ? eb::Dbl(static_cast<double>(lo) + 0.5)
                             : eb::Int(lo);
  switch (pick(4)) {
    case 0:
      return eb::Gt(std::move(ref), std::move(lit));
    case 1:
      return eb::Le(std::move(ref), std::move(lit));
    case 2:
      return eb::IsNotNull(std::move(ref));
    default: {
      int64_t hi = lo + pick(span + 1);
      ExprPtr hi_lit = col.is_float ? eb::Dbl(static_cast<double>(hi) + 0.5)
                                    : eb::Int(hi);
      return eb::Between(std::move(ref), std::move(lit), std::move(hi_lit));
    }
  }
}

TEST(PipelineFuzzTest, RandomChainsMatchReference) {
  const Catalog& catalog = SharedTpcds(0.003);
  std::mt19937 rng(20260807);  // fixed seed: failures must reproduce
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };

  for (int iter = 0; iter < 80; ++iter) {
    const FuzzTable& table = FuzzTables()[pick(FuzzTables().size())];
    std::vector<std::string> cols;
    for (const FuzzColumn& c : table.columns) cols.push_back(c.name);
    PlanContext ctx;
    PlanBuilder b = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable(table.name)), cols);

    // 1-2 filters, chained (exercises the NarrowFilter composition).
    size_t num_filters = 1 + pick(2);
    int chain_ops = 1 + static_cast<int>(num_filters);  // scan + filters
    for (size_t f = 0; f < num_filters; ++f) {
      b.Filter(RandomPredicate(&rng, &b, table.columns[pick(cols.size())]));
    }

    // Half the chains re-project through arithmetic (exercises EvalSel on
    // composed expressions); the rest keep the scan layout (exercises the
    // identity fast path).
    bool projected = pick(2) == 0;
    if (projected) {
      const FuzzColumn& a = table.columns[pick(cols.size())];
      const FuzzColumn& c = table.columns[pick(cols.size())];
      b.Project({{"derived", eb::Add(b.Ref(a.name), b.Ref(c.name))},
                 {"kept", b.Ref(table.columns[0].name)}});
      ++chain_ops;
    }

    // A third of the chains end in an aggregate sink — scalar or grouped,
    // with an occasional mask.
    if (pick(3) == 0) {
      const char* arg = projected ? "derived" : table.columns.back().name;
      ExprPtr mask = nullptr;
      if (!projected && pick(2) == 0) {
        mask = RandomPredicate(&rng, &b, table.columns[pick(cols.size())]);
      }
      std::vector<AggSpec> specs;
      specs.push_back({"s", AggFunc::kSum, b.Ref(arg), mask, false});
      specs.push_back({"n", AggFunc::kCountStar, nullptr, nullptr, false});
      if (pick(2) == 0) {
        b.Aggregate({}, std::move(specs));  // scalar
      } else {
        const char* key = projected ? "kept" : table.columns[0].name;
        b.Aggregate({key}, std::move(specs));
      }
      ++chain_ops;
    }

    QueryResult result = ExecuteAndCheck(b.Build());
    // The whole chain, scan included, runs as one pipeline.
    ASSERT_EQ(result.pipelines().size(), 1u) << "iter " << iter;
    EXPECT_EQ(result.pipelines()[0].ops_fused, chain_ops)
        << "iter " << iter << ": " << PlanToString(b.Build());
  }
}

// ---------------------------------------------------------------------------
// The fused-chain shapes bench/pipeline_micro times, executed as built.
// ---------------------------------------------------------------------------

const std::vector<std::string>& WideColumns() {
  static const std::vector<std::string>& cols = *new std::vector<std::string>{
      "ss_sold_date_sk", "ss_item_sk",     "ss_customer_sk", "ss_store_sk",
      "ss_quantity",     "ss_list_price",  "ss_sales_price", "ss_net_profit"};
  return cols;
}

struct MicroChain {
  const char* name;
  int ops_fused;
  std::function<void(PlanBuilder*)> build;  // applied to a store_sales scan
  std::vector<std::string> columns;
};

std::vector<MicroChain> MicroChains() {
  return {
      {"scan_filter", 2,
       [](PlanBuilder* b) {
         b->Filter(eb::Gt(b->Ref("ss_list_price"), eb::Dbl(20.0)));
       },
       WideColumns()},
      {"scan_filter_chain", 4,
       [](PlanBuilder* b) {
         b->Filter(eb::Between(b->Ref("ss_quantity"), eb::Int(2), eb::Int(95)));
         b->Filter(eb::Gt(b->Ref("ss_list_price"), eb::Dbl(10.0)));
         b->Filter(eb::IsNotNull(b->Ref("ss_net_profit")));
       },
       WideColumns()},
      {"scan_filter_project", 3,
       [](PlanBuilder* b) {
         b->Filter(eb::Gt(b->Ref("ss_quantity"), eb::Int(5)));
         b->Project({{"discount", eb::Sub(b->Ref("ss_list_price"),
                                          b->Ref("ss_sales_price"))},
                     {"date", b->Ref("ss_sold_date_sk")},
                     {"item", b->Ref("ss_item_sk")},
                     {"customer", b->Ref("ss_customer_sk")},
                     {"store", b->Ref("ss_store_sk")},
                     {"qty", b->Ref("ss_quantity")},
                     {"profit", b->Ref("ss_net_profit")}});
       },
       WideColumns()},
      {"scan_pipeline_deep", 5,
       [](PlanBuilder* b) {
         b->Filter(eb::Between(b->Ref("ss_quantity"), eb::Int(2), eb::Int(95)));
         b->Filter(eb::Gt(b->Ref("ss_list_price"), eb::Dbl(10.0)));
         b->Project({{"margin", eb::Sub(b->Ref("ss_sales_price"),
                                        b->Ref("ss_net_profit"))},
                     {"qty", b->Ref("ss_quantity")}});
         b->Aggregate({}, {{"total_margin", AggFunc::kSum, b->Ref("margin"),
                            nullptr, false},
                           {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
       },
       WideColumns()},
      {"scan_filter_scalar_agg", 4,
       [](PlanBuilder* b) {
         b->Filter(eb::Between(b->Ref("ss_quantity"), eb::Int(2), eb::Int(95)));
         b->Filter(eb::Gt(b->Ref("ss_list_price"), eb::Dbl(10.0)));
         b->Aggregate({}, {{"total", AggFunc::kSum, b->Ref("ss_sales_price"),
                            nullptr, false},
                           {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
       },
       {"ss_quantity", "ss_list_price", "ss_sales_price"}},
      {"scan_filter_group_agg", 3,
       [](PlanBuilder* b) {
         b->Filter(eb::Between(b->Ref("ss_quantity"), eb::Int(1), eb::Int(90)));
         b->Aggregate({"ss_store_sk"},
                      {{"revenue", AggFunc::kSum, b->Ref("ss_sales_price"),
                        nullptr, false}});
       },
       {"ss_store_sk", "ss_quantity", "ss_sales_price"}},
      {"scan_masked_agg", 2,
       [](PlanBuilder* b) {
         std::vector<AggSpec> specs;
         for (int i = 0; i < 2; ++i) {
           specs.push_back({"s" + std::to_string(i), AggFunc::kSum,
                            b->Ref("ss_list_price"),
                            eb::Between(b->Ref("ss_quantity"), eb::Int(i * 40),
                                        eb::Int(i * 40 + 45)),
                            false});
         }
         b->Aggregate({"ss_store_sk"}, std::move(specs));
       },
       {"ss_store_sk", "ss_quantity", "ss_list_price"}},
  };
}

TEST(PipelineMicroTest, FusedChainShapesMatchReference) {
  const Catalog& catalog = SharedTpcds();
  for (const MicroChain& chain : MicroChains()) {
    SCOPED_TRACE(chain.name);
    PlanContext ctx;
    PlanBuilder b = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable("store_sales")), chain.columns);
    chain.build(&b);
    PlanPtr plan = b.Build();
    QueryResult serial = ExecuteAndCheck(plan, 1);
    QueryResult wide = ExecuteAndCheck(plan, 4);
    ExpectSameMetrics(serial, wide, chain.name);
    ASSERT_EQ(serial.pipelines().size(), 1u);
    EXPECT_EQ(serial.pipelines()[0].ops_fused, chain.ops_fused);
  }
}

// ---------------------------------------------------------------------------
// Full TPC-DS sweep, all three optimizer modes.
// ---------------------------------------------------------------------------

class PipelineTpcdsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineTpcdsTest, SweepAllModes) {
  const Catalog& catalog = SharedTpcds();
  for (const std::string& mode :
       {std::string("baseline"), std::string("fused"),
        std::string("spooling")}) {
    tpcds::TpcdsQuery q = Unwrap(tpcds::QueryByName(GetParam()));
    PlanContext ctx;
    PlanPtr plan = Unwrap(q.build(catalog, &ctx));
    OptimizerOptions opt = mode == "baseline" ? OptimizerOptions::Baseline()
                           : mode == "spooling"
                               ? OptimizerOptions::Spooling()
                               : OptimizerOptions::Fused();
    PlanPtr optimized = Unwrap(Optimizer(opt).Optimize(plan, &ctx));
    SCOPED_TRACE(GetParam() + " / " + mode);
    ExecuteAndCheck(optimized);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PipelineTpcdsTest, ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
                             names.push_back(q.name);
                           }
                           return names;
                         }()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Parallelism invariance (`parallel` label; TSan-covered).
// ---------------------------------------------------------------------------

TEST(PipelineParallelTest, ThreadCountInvariant) {
  const Catalog& catalog = SharedTpcds();
  // The fusion-applicable queries have the deepest compiled chains; the
  // full sweep's serial coverage above already spans the rest.
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (!q.fusion_applicable) continue;
    PlanContext ctx;
    PlanPtr plan = Unwrap(q.build(catalog, &ctx));
    PlanPtr optimized =
        Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
    SCOPED_TRACE(q.name);
    QueryResult serial = ExecuteAndCheck(optimized, 1);
    QueryResult wide = ExecuteAndCheck(optimized, 4);
    EXPECT_TRUE(ResultsEqualOrdered(serial, wide)) << q.name;
    ExpectSameMetrics(serial, wide, q.name);
  }
}

TEST(PipelineParallelTest, CompiledAggregateParallelMatchesSerial) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_store_sk", "ss_quantity", "ss_sales_price"});
  b.Filter(eb::Between(b.Ref("ss_quantity"), eb::Int(5), eb::Int(80)));
  b.Aggregate({"ss_store_sk"},
              {{"revenue", AggFunc::kSum, b.Ref("ss_sales_price"),
                eb::Gt(b.Ref("ss_quantity"), eb::Int(40)), false},
               {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = b.Build();
  QueryResult serial = ExecuteAndCheck(plan, 1);
  QueryResult wide = ExecuteAndCheck(plan, 4);
  // No Sort root pins the group order, and hash-map merge order legitimately
  // differs across thread counts (exec_parallel_test makes the same
  // concession); the rows and every metric must not.
  EXPECT_TRUE(ResultsEquivalent(serial, wide));
  ExpectSameMetrics(serial, wide, "grouped aggregate");
}

TEST(PipelineParallelTest, JoinFedAggregateParallelMatchesSerial) {
  // A child-fed aggregate sink: chunks from the join are buffered on the
  // driver, then filtered, prepared and accumulated inside the workers.
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder ss = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_item_sk", "ss_quantity", "ss_sales_price"});
  PlanBuilder item = PlanBuilder::Scan(&ctx, Unwrap(catalog.GetTable("item")),
                                       {"i_item_sk", "i_category_id"});
  ss.JoinOn(JoinType::kInner, item, {{"ss_item_sk", "i_item_sk"}});
  ss.Filter(eb::Gt(ss.Ref("ss_quantity"), eb::Int(20)));
  ss.Aggregate({"i_category_id"},
               {{"revenue", AggFunc::kSum, ss.Ref("ss_sales_price"),
                 eb::Lt(ss.Ref("ss_quantity"), eb::Int(70)), false},
                {"items", AggFunc::kCount, ss.Ref("ss_item_sk"), nullptr,
                 true},
                {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = ss.Build();
  QueryResult serial = ExecuteAndCheck(plan, 1);
  QueryResult wide = ExecuteAndCheck(plan, 4);
  EXPECT_TRUE(ResultsEquivalent(serial, wide));
  ExpectSameMetrics(serial, wide, "join-fed aggregate");
}

TEST(PipelineParallelTest, MaskedDistinctAggregatesMergeAcrossWorkers) {
  // Eight partitions, one morsel each, dealt round-robin to four workers;
  // every (group, value) pair recurs in every partition, so each worker's
  // partial sees every pair and the merge must count each pair once.
  TableBuilder tb("pairs", {{"p", DataType::kInt64},
                            {"g", DataType::kString},
                            {"k", DataType::kInt64},
                            {"x", DataType::kFloat64}});
  ASSERT_TRUE(tb.PartitionBy("p", 1).ok());
  const double xs[] = {-0.0, 0.0, 1.5, 2.5, 4.0};
  for (int64_t p = 0; p < 8; ++p) {
    for (int64_t g = 0; g < 3; ++g) {
      for (int64_t v = 0; v < 5; ++v) {
        Value k = v == 4 ? Value::Null(DataType::kInt64) : Value::Int64(v * g);
        ASSERT_TRUE(tb.AppendRow({Value::Int64(p),
                                  Value::String(std::string(1, 'a' + g)), k,
                                  Value::Float64(xs[(v + g) % 5])})
                        .ok());
      }
    }
  }
  TablePtr pairs = Unwrap(tb.Build());
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, pairs, {"p", "g", "k", "x"});
  b.Aggregate({"g"},
              {{"kinds", AggFunc::kCount, b.Ref("k"),
                eb::Lt(b.Ref("p"), eb::Int(6)), true},
               {"spread", AggFunc::kSum, b.Ref("x"),
                eb::Ge(b.Ref("p"), eb::Int(2)), true},
               {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = b.Build();
  QueryResult serial = ExecuteAndCheck(plan, 1);
  QueryResult wide = ExecuteAndCheck(plan, 4);
  EXPECT_EQ(serial.metrics().partitions_scanned, 8);
  EXPECT_TRUE(ResultsEquivalent(serial, wide));
  ExpectSameMetrics(serial, wide, "masked distinct aggregates");
}

// ---------------------------------------------------------------------------
// Pipeline records and observability.
// ---------------------------------------------------------------------------

TEST(PipelineRecordTest, CompiledChainRecordsOpsFused) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_quantity", "ss_sales_price"});
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(10)));
  b.Aggregate({}, {{"total", AggFunc::kSum, b.Ref("ss_sales_price"), nullptr,
                    false}});
  QueryResult r = Unwrap(ExecutePlan(b.Build()));
  ASSERT_EQ(r.pipelines().size(), 1u);
  const PipelineRecord& rec = r.pipelines()[0];
  EXPECT_TRUE(rec.compiled());
  EXPECT_EQ(rec.root_kind, "Aggregate");
  EXPECT_EQ(rec.ops_fused, 3);  // aggregate + filter + scan
  EXPECT_EQ(rec.root_op_id, 0);
}

TEST(PipelineRecordTest, JoinFedChainCompiles) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder ss = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_item_sk", "ss_quantity"});
  PlanBuilder item = PlanBuilder::Scan(&ctx, Unwrap(catalog.GetTable("item")),
                                       {"i_item_sk"});
  ss.JoinOn(JoinType::kInner, item, {{"ss_item_sk", "i_item_sk"}});
  // A chain whose source is the join: it compiles over the join's output
  // chunks, and each bare scan below the join is a pipeline of its own.
  ss.Filter(eb::Gt(ss.Ref("ss_quantity"), eb::Int(90)));
  ss.Project({{"qty", ss.Ref("ss_quantity")}});
  PlanPtr plan = ss.Build();
  QueryResult r = ExecuteAndCheck(plan);
  ASSERT_EQ(r.pipelines().size(), 3u);
  // Preorder of roots: Project(op0) > Filter(op1) > Join(op2) > scans.
  EXPECT_EQ(r.pipelines()[0].root_kind, "Project");
  EXPECT_EQ(r.pipelines()[0].root_op_id, 0);
  EXPECT_EQ(r.pipelines()[0].ops_fused, 2);  // project + filter
  EXPECT_EQ(r.pipelines()[1].root_kind, "Scan");
  EXPECT_EQ(r.pipelines()[1].root_op_id, 3);
  EXPECT_EQ(r.pipelines()[1].ops_fused, 1);
  EXPECT_EQ(r.pipelines()[2].root_kind, "Scan");
  EXPECT_EQ(r.pipelines()[2].root_op_id, 4);
  ASSERT_EQ(r.operator_stats().size(), 5u);
  EXPECT_EQ(r.operator_stats()[1].kind, "Filter");
  EXPECT_EQ(r.operator_stats()[1].pipeline, 0);
  EXPECT_EQ(r.operator_stats()[2].kind, "Join");
  EXPECT_EQ(r.operator_stats()[2].pipeline, -1);
  EXPECT_GT(r.operator_stats()[3].bytes_scanned, 0);
}

TEST(PipelineObsTest, ExplainAnalyzeAnnotatesPipelines) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_quantity", "ss_sales_price"});
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(10)));
  PlanPtr plan = b.Build();
  QueryResult r = Unwrap(ExecutePlan(plan));
  std::string text = ExplainAnalyze(plan, r);
  EXPECT_NE(text.find("pipeline=0"), std::string::npos) << text;
  EXPECT_NE(text.find("pipelines:"), std::string::npos) << text;
  EXPECT_NE(text.find("ops_fused=2"), std::string::npos) << text;

  QueryProfile profile = MakeQueryProfile("chain", "fused", plan, r);
  std::string json = ProfileToJson(profile);
  EXPECT_NE(json.find("\"pipelines\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ops_fused\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pipeline\":0"), std::string::npos) << json;
}

TEST(PipelineObsTest, ServiceCountersRecordOutcomes) {
  const Catalog& catalog = SharedTpcds();
  MetricsRegistry registry;
  {
    PlanContext ctx;
    PlanBuilder b = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable("item")), {"i_item_sk"});
    b.Filter(eb::Gt(b.Ref("i_item_sk"), eb::Int(0)));
    Unwrap(ExecutePlan(b.Build(), {.metrics = &registry}));
  }
  {
    PlanContext ctx;
    PlanBuilder ss = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable("store_sales")), {"ss_item_sk"});
    PlanBuilder item = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable("item")), {"i_item_sk"});
    ss.JoinOn(JoinType::kInner, item, {{"ss_item_sk", "i_item_sk"}});
    ss.Filter(eb::Gt(ss.Ref("ss_item_sk"), eb::Int(0)));
    Unwrap(ExecutePlan(ss.Build(), {.metrics = &registry}));
  }
  MetricsSnapshot snap = registry.Snapshot();
  // One filter pipeline over the item scan; then the join-fed filter plus
  // the two bare scans below the join.
  EXPECT_EQ(snap.Counter("fusiondb_exec_pipelines_compiled_total"), 4);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.find("fallback"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace fusiondb
