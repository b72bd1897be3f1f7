// Micro-benchmarks (google-benchmark) for the execution substrate: page
// decode, filter and aggregation throughput — the quantities that make the
// bytes-scanned metric track latency in this engine.
#include <benchmark/benchmark.h>

#include "bench_gbench.h"
#include "bench_util.h"

using namespace fusiondb;         // NOLINT
using namespace fusiondb::bench;  // NOLINT

namespace {

void BM_ScanDecode(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanPtr plan = ScanOp::Make(&ctx, t, {"ss_quantity", "ss_list_price"});
  int64_t bytes = 0;
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    bytes = r.metrics().bytes_scanned;
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_ScanDecode);

void BM_FilterThroughput(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"ss_quantity", "ss_list_price"});
  b.Filter(eb::And(eb::Between(b.Ref("ss_quantity"), eb::Int(10), eb::Int(60)),
                   eb::Gt(b.Ref("ss_list_price"), eb::Dbl(50.0))));
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_FilterThroughput);

void BM_MaskedAggregation(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  int num_masks = static_cast<int>(state.range(0));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"ss_store_sk", "ss_quantity",
                                              "ss_list_price"});
  std::vector<AggSpec> specs;
  for (int i = 0; i < num_masks; ++i) {
    specs.push_back(
        {"s" + std::to_string(i), AggFunc::kSum, b.Ref("ss_list_price"),
         eb::Between(b.Ref("ss_quantity"), eb::Int(i * 5), eb::Int(i * 5 + 20)),
         false});
  }
  b.Aggregate({"ss_store_sk"}, std::move(specs));
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_MaskedAggregation)->Arg(1)->Arg(4)->Arg(16);

void BM_HashJoin(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr ss = Unwrap(catalog.GetTable("store_sales"));
  TablePtr item = Unwrap(catalog.GetTable("item"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, ss, {"ss_item_sk", "ss_quantity"});
  PlanBuilder i = PlanBuilder::Scan(&ctx, item, {"i_item_sk", "i_brand_id"});
  b.JoinOn(JoinType::kInner, i, {{"ss_item_sk", "i_item_sk"}});
  b.Aggregate({}, {{"total", AggFunc::kSum, b.Ref("ss_quantity"), nullptr,
                    false}});
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * ss->num_rows());
}
BENCHMARK(BM_HashJoin);

// The q95 ws_wh shape: web_sales self-joined on ws_order_number, keeping the
// pairs shipped from different warehouses — a non-equi residual evaluated
// over every bucket pair.
void BM_HashJoinResidual(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr ws = Unwrap(catalog.GetTable("web_sales"));
  PlanContext ctx;
  PlanBuilder a =
      PlanBuilder::Scan(&ctx, ws, {"ws_order_number", "ws_warehouse_sk"});
  PlanBuilder b =
      PlanBuilder::Scan(&ctx, ws, {"ws_order_number", "ws_warehouse_sk"});
  ExprPtr cond =
      eb::And(eb::Eq(a.Ref("ws_order_number"), b.Ref("ws_order_number")),
              eb::Ne(a.Ref("ws_warehouse_sk"), b.Ref("ws_warehouse_sk")));
  a.Join(JoinType::kInner, b, cond);
  a.Aggregate({}, {{"pairs", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = a.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * ws->num_rows());
}
BENCHMARK(BM_HashJoinResidual);

void BM_MarkDistinct(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"ss_quantity", "ss_list_price"});
  b.MarkDistinct("marker", {"ss_list_price"});
  b.Aggregate({}, {{"d", AggFunc::kCountStar, nullptr, b.Ref("marker"),
                    false}});
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_MarkDistinct);

void BM_WindowAggregation(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"ss_store_sk", "ss_list_price"});
  b.Window({"ss_store_sk"}, {{"avg_price", AggFunc::kAvg,
                              b.Ref("ss_list_price"), nullptr, false}});
  b.Aggregate({}, {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_WindowAggregation);

}  // namespace

int main(int argc, char** argv) {
  return RunGbenchWithReport("exec_micro", argc, argv);
}
