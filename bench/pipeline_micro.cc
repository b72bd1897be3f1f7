// Fused-chain micro-benchmarks for the compiled-pipeline executor
// (src/exec/pipeline.h): each measurement is a non-blocking
// scan→filter→project(→aggregate) chain — exactly the shapes the bind-time
// compiler fuses into one push loop per morsel. Diff two runs' reports
// with tools/bench_diff.py to see what an executor change did to them
// (EXPERIMENTS.md).
//
// Plans execute as built, without the optimizer: this bench isolates the
// executor on a given operator chain, and the simplifier would fold the
// stacked-filter chains into one conjunct — erasing the multi-operator
// shape (filter→project→aggregate runs) that optimized TPC-DS plans still
// hand the executor. Whole-plan effects are tpcds_overall's job. The same
// seven shapes are checked against the reference evaluator by
// tests/pipeline_test.cc.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace fusiondb;         // NOLINT
using namespace fusiondb::bench;  // NOLINT

namespace {

struct Chain {
  std::string name;
  // Report config label: "chain" entries are the multi-boundary shapes the
  // compiler exists for; "floor" entries are single-boundary or
  // sink-dominated shapes whose cost is mostly decode or the sink.
  std::string config;
  std::function<PlanPtr(const Catalog&, PlanContext*)> build;
};

// The wide column set the filter/project chains carry. Fusion's savings is
// the intermediate materialization it skips — an operator-at-a-time filter
// re-gathers every column of its chunk — so the chains scan the realistic
// wide projection an analytic query keeps, not a minimal two-column one.
// (The aggregate chains stay narrow: column pruning legitimately strips an
// aggregation's scan down to the referenced columns.)
const std::vector<std::string>& WideColumns() {
  static const std::vector<std::string> cols = {
      "ss_sold_date_sk",  "ss_item_sk",     "ss_customer_sk",
      "ss_store_sk",      "ss_quantity",    "ss_list_price",
      "ss_sales_price",   "ss_net_profit"};
  return cols;
}

std::vector<Chain> Chains() {
  return {
      // Single boundary: the loop gathers once at emission — an honest
      // floor.
      {"scan_filter", "floor",
       [](const Catalog& c, PlanContext* ctx) {
         TablePtr t = Unwrap(c.GetTable("store_sales"));
         PlanBuilder b = PlanBuilder::Scan(ctx, t, WideColumns());
         b.Filter(eb::Gt(b.Ref("ss_list_price"), eb::Dbl(20.0)));
         return b.Build();
       }},
      // Three stacked filters, each passing most rows: the compiled loop
      // narrows one SelVector and gathers once.
      {"scan_filter_chain", "chain",
       [](const Catalog& c, PlanContext* ctx) {
         TablePtr t = Unwrap(c.GetTable("store_sales"));
         PlanBuilder b = PlanBuilder::Scan(ctx, t, WideColumns());
         b.Filter(eb::Between(b.Ref("ss_quantity"), eb::Int(2), eb::Int(95)));
         b.Filter(eb::Gt(b.Ref("ss_list_price"), eb::Dbl(10.0)));
         b.Filter(eb::IsNotNull(b.Ref("ss_net_profit")));
         return b.Build();
       }},
      {"scan_filter_project", "chain",
       [](const Catalog& c, PlanContext* ctx) {
         TablePtr t = Unwrap(c.GetTable("store_sales"));
         PlanBuilder b = PlanBuilder::Scan(ctx, t, WideColumns());
         b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(5)));
         b.Project({{"discount", eb::Sub(b.Ref("ss_list_price"),
                                         b.Ref("ss_sales_price"))},
                    {"date", b.Ref("ss_sold_date_sk")},
                    {"item", b.Ref("ss_item_sk")},
                    {"customer", b.Ref("ss_customer_sk")},
                    {"store", b.Ref("ss_store_sk")},
                    {"qty", b.Ref("ss_quantity")},
                    {"profit", b.Ref("ss_net_profit")}});
         return b.Build();
       }},
      // The full fused shape: two filters, a projection computing a derived
      // measure, and a scalar aggregate over it — four operator boundaries
      // collapsed into one loop.
      {"scan_pipeline_deep", "chain",
       [](const Catalog& c, PlanContext* ctx) {
         TablePtr t = Unwrap(c.GetTable("store_sales"));
         PlanBuilder b = PlanBuilder::Scan(ctx, t, WideColumns());
         b.Filter(eb::Between(b.Ref("ss_quantity"), eb::Int(2), eb::Int(95)));
         b.Filter(eb::Gt(b.Ref("ss_list_price"), eb::Dbl(10.0)));
         b.Project({{"margin", eb::Sub(b.Ref("ss_sales_price"),
                                       b.Ref("ss_net_profit"))},
                    {"qty", b.Ref("ss_quantity")}});
         b.Aggregate({}, {{"total_margin", AggFunc::kSum, b.Ref("margin"),
                           nullptr, false},
                          {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
         return b.Build();
       }},
      {"scan_filter_scalar_agg", "chain",
       [](const Catalog& c, PlanContext* ctx) {
         TablePtr t = Unwrap(c.GetTable("store_sales"));
         PlanBuilder b = PlanBuilder::Scan(
             ctx, t, {"ss_quantity", "ss_list_price", "ss_sales_price"});
         b.Filter(eb::Between(b.Ref("ss_quantity"), eb::Int(2), eb::Int(95)));
         b.Filter(eb::Gt(b.Ref("ss_list_price"), eb::Dbl(10.0)));
         b.Aggregate({}, {{"total", AggFunc::kSum, b.Ref("ss_sales_price"),
                           nullptr, false},
                          {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
         return b.Build();
       }},
      {"scan_filter_group_agg", "floor",
       [](const Catalog& c, PlanContext* ctx) {
         TablePtr t = Unwrap(c.GetTable("store_sales"));
         PlanBuilder b = PlanBuilder::Scan(
             ctx, t, {"ss_store_sk", "ss_quantity", "ss_sales_price"});
         b.Filter(eb::Between(b.Ref("ss_quantity"), eb::Int(1), eb::Int(90)));
         b.Aggregate({"ss_store_sk"},
                     {{"revenue", AggFunc::kSum, b.Ref("ss_sales_price"),
                       nullptr, false}});
         return b.Build();
       }},
      // Mask evaluation (agg_build) dominates — the other floor entry.
      {"scan_masked_agg", "floor",
       [](const Catalog& c, PlanContext* ctx) {
         TablePtr t = Unwrap(c.GetTable("store_sales"));
         PlanBuilder b = PlanBuilder::Scan(
             ctx, t, {"ss_store_sk", "ss_quantity", "ss_list_price"});
         std::vector<AggSpec> specs;
         for (int i = 0; i < 2; ++i) {
           specs.push_back({"s" + std::to_string(i), AggFunc::kSum,
                            b.Ref("ss_list_price"),
                            eb::Between(b.Ref("ss_quantity"), eb::Int(i * 40),
                                        eb::Int(i * 40 + 45)),
                            false});
         }
         b.Aggregate({"ss_store_sk"}, std::move(specs));
         return b.Build();
       }},
  };
}

/// Times ExecutePlan directly (no optimizer pass — see the header comment);
/// latency is the median of BenchRepeats() runs, matching RunPlan's
/// discipline and env knobs.
RunStats TimePlan(const PlanPtr& plan) {
  RunStats stats;
  std::vector<double> times;
  int repeats = BenchRepeats();
  for (int i = 0; i < repeats; ++i) {
    QueryResult result = Unwrap(
        ExecutePlan(plan, {.profile = BenchProfileEnabled(),
                           .metrics = BenchMetricsRegistry()}));
    times.push_back(result.wall_ms());
    stats.bytes_scanned = result.metrics().bytes_scanned;
    stats.peak_hash_bytes = result.metrics().peak_hash_bytes;
    stats.rows = result.num_rows();
  }
  std::sort(times.begin(), times.end());
  stats.latency_ms = times[times.size() / 2];
  return stats;
}

}  // namespace

int main() {
  const Catalog& catalog = BenchCatalog();
  BenchReport report("pipeline_micro");
  std::printf("\nFused-chain micro-bench\n\n");
  std::printf("%-24s %12s %12s %8s\n", "chain", "wall (ms)", "bytes", "rows");

  for (const Chain& chain : Chains()) {
    PlanContext ctx;
    PlanPtr plan = chain.build(catalog, &ctx);
    RunStats stats = TimePlan(plan);
    std::printf("%-24s %12.3f %12lld %8lld\n", chain.name.c_str(),
                stats.latency_ms, static_cast<long long>(stats.bytes_scanned),
                static_cast<long long>(stats.rows));
    // bench_diff's --config filter can select one population by label.
    report.Add({chain.name, chain.config, stats.latency_ms, stats.bytes_scanned,
                0, 1});
  }
  report.Write();
  return 0;
}
