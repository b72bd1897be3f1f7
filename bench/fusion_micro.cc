// Micro-benchmarks (google-benchmark) for the optimizer-side machinery:
// the Fuse primitive over plans of increasing depth, expression
// simplification, whole-query optimization time — the compile-time
// overhead the paper's rules add to the engine — and how that time scales
// with the number of scalar subqueries JoinOnKeys folds.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_gbench.h"
#include "bench_util.h"

using namespace fusiondb;         // NOLINT
using namespace fusiondb::bench;  // NOLINT

namespace {

/// A filter/project chain of the given depth over a store_sales scan.
PlanBuilder DeepChain(const Catalog& catalog, PlanContext* ctx, int depth) {
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanBuilder b = PlanBuilder::Scan(
      ctx, t, {"ss_quantity", "ss_list_price", "ss_net_profit"});
  for (int i = 0; i < depth; ++i) {
    b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(i)));
    b.ProjectPlus({{"d" + std::to_string(i),
                    eb::Add(b.Ref("ss_quantity"), eb::Int(i))}});
  }
  return b;
}

void BM_FuseDeepPlans(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PlanContext ctx;
    PlanBuilder p1 = DeepChain(catalog, &ctx, depth);
    PlanBuilder p2 = DeepChain(catalog, &ctx, depth);
    Fuser fuser(&ctx);
    auto fused = fuser.Fuse(p1.Build(), p2.Build());
    benchmark::DoNotOptimize(fused);
    if (!fused.has_value()) state.SkipWithError("fusion failed");
  }
}
BENCHMARK(BM_FuseDeepPlans)->Arg(2)->Arg(8)->Arg(32);

void BM_FuseAggregates(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  int aggs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PlanContext ctx;
    auto make = [&]() {
      TablePtr t = Unwrap(catalog.GetTable("store_sales"));
      PlanBuilder b =
          PlanBuilder::Scan(&ctx, t, {"ss_store_sk", "ss_list_price"});
      std::vector<AggSpec> specs;
      for (int i = 0; i < aggs; ++i) {
        specs.push_back({"a" + std::to_string(i), AggFunc::kSum,
                         b.Ref("ss_list_price"),
                         eb::Gt(b.Ref("ss_list_price"), eb::Dbl(i * 1.0)),
                         false});
      }
      b.Aggregate({"ss_store_sk"}, std::move(specs));
      return b;
    };
    PlanBuilder g1 = make();
    PlanBuilder g2 = make();
    Fuser fuser(&ctx);
    auto fused = fuser.Fuse(g1.Build(), g2.Build());
    benchmark::DoNotOptimize(fused);
  }
}
BENCHMARK(BM_FuseAggregates)->Arg(1)->Arg(8)->Arg(32);

void BM_OptimizeQuery(benchmark::State& state, const char* name,
                      bool fused_rules) {
  const Catalog& catalog = BenchCatalog();
  tpcds::TpcdsQuery query = Unwrap(tpcds::QueryByName(name));
  for (auto _ : state) {
    PlanContext ctx;
    PlanPtr plan = Unwrap(query.build(catalog, &ctx));
    Optimizer optimizer(fused_rules ? OptimizerOptions::Fused()
                                    : OptimizerOptions::Baseline());
    auto optimized = optimizer.Optimize(plan, &ctx);
    benchmark::DoNotOptimize(optimized);
    if (!optimized.ok()) state.SkipWithError("optimize failed");
  }
}
BENCHMARK_CAPTURE(BM_OptimizeQuery, q09_baseline, "q09", false);
BENCHMARK_CAPTURE(BM_OptimizeQuery, q09_fused, "q09", true);
BENCHMARK_CAPTURE(BM_OptimizeQuery, q23_baseline, "q23", false);
BENCHMARK_CAPTURE(BM_OptimizeQuery, q23_fused, "q23", true);
BENCHMARK_CAPTURE(BM_OptimizeQuery, q28_baseline, "q28", false);
BENCHMARK_CAPTURE(BM_OptimizeQuery, q28_fused, "q28", true);
BENCHMARK_CAPTURE(BM_OptimizeQuery, q88_baseline, "q88", false);
BENCHMARK_CAPTURE(BM_OptimizeQuery, q88_fused, "q88", true);
BENCHMARK_CAPTURE(BM_OptimizeQuery, q95_fused, "q95", true);

/// Plan identity (PlanFingerprint) of one fused TPC-DS plan: the hash every
/// session the server admits to a batch and every shared group pays for.
void BM_PlanFingerprint(benchmark::State& state, const char* name) {
  const Catalog& catalog = BenchCatalog();
  tpcds::TpcdsQuery query = Unwrap(tpcds::QueryByName(name));
  PlanContext ctx;
  PlanPtr plan = Unwrap(Optimizer(OptimizerOptions::Fused())
                            .Optimize(Unwrap(query.build(catalog, &ctx)), &ctx));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlanFingerprint(plan));
  }
}
BENCHMARK_CAPTURE(BM_PlanFingerprint, q09_fused, "q09");
BENCHMARK_CAPTURE(BM_PlanFingerprint, q28_fused, "q28");
BENCHMARK_CAPTURE(BM_PlanFingerprint, q88_fused, "q88");

/// Q09's shape at k buckets: k scalar-aggregate subqueries over store_sales,
/// each with its own quantity bucket, cross-joined. JoinOnKeys folds them
/// pairwise into one aggregate whose masks are the bucket predicates, so
/// the per-bucket optimize time shows whether the folds stay linear.
void BM_OptimizeScalarBuckets(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  int k = static_cast<int>(state.range(0));
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  for (auto _ : state) {
    PlanContext ctx;
    std::optional<PlanBuilder> q;
    for (int i = 0; i < k; ++i) {
      PlanBuilder s = PlanBuilder::Scan(&ctx, t, {"ss_quantity", "ss_net_profit"});
      s.Filter(eb::Between(s.Ref("ss_quantity"), eb::Int(1 + 5 * i),
                           eb::Int(5 * (i + 1))));
      s.Aggregate({}, {{"profit" + std::to_string(i), AggFunc::kSum,
                        s.Ref("ss_net_profit"), nullptr, false}});
      if (q.has_value()) {
        q->CrossJoin(s);
      } else {
        q = std::move(s);
      }
    }
    Optimizer optimizer(OptimizerOptions::Fused());
    auto optimized = optimizer.Optimize(q->Build(), &ctx);
    benchmark::DoNotOptimize(optimized);
    if (!optimized.ok()) state.SkipWithError("optimize failed");
  }
  // Seconds per bucket: flat across k means the folds cost O(k) in total.
  state.counters["per_bucket"] = benchmark::Counter(
      k, benchmark::Counter::kIsIterationInvariantRate |
             benchmark::Counter::kInvert);
}
BENCHMARK(BM_OptimizeScalarBuckets)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_Simplify(benchmark::State& state) {
  PlanContext ctx;
  ExprPtr col = eb::Col(1, DataType::kInt64);
  std::vector<ExprPtr> buckets;
  for (int i = 0; i < 8; ++i) {
    buckets.push_back(eb::Between(col, eb::Int(i * 10), eb::Int(i * 10 + 9)));
  }
  // The mask-chain shape fusion produces: b0 AND (b0 OR b1) AND ...
  std::vector<ExprPtr> conjuncts{buckets[0]};
  std::vector<ExprPtr> ors;
  for (int i = 0; i < 8; ++i) {
    ors.push_back(buckets[i]);
    conjuncts.push_back(eb::Or(ors));
  }
  ExprPtr chain = eb::And(conjuncts);
  for (auto _ : state) {
    ExprPtr simplified = Simplify(chain);
    benchmark::DoNotOptimize(simplified);
  }
}
BENCHMARK(BM_Simplify);

}  // namespace

int main(int argc, char** argv) {
  return RunGbenchWithReport("fusion_micro", argc, argv);
}
