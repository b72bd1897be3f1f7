// Micro-benchmarks (google-benchmark) for the execution substrate: page
// decode, filter, aggregation, join and hash-key throughput — the
// quantities that make the bytes-scanned metric track latency in this
// engine.
#include <benchmark/benchmark.h>

#include <random>

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

// Fused Q28's shape: k buckets, each a quantity range AND a three-way OR of
// price ranges, with a scalar AVG and COUNT per bucket. Each bucket's mask
// narrows conjunct by conjunct, so its OR only visits the bucket's rows.
void BM_BucketMasks(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, t, {"ss_quantity", "ss_list_price", "ss_coupon_amt",
                "ss_wholesale_cost"});
  std::vector<AggSpec> specs;
  for (int i = 0; i < state.range(0); ++i) {
    double lp = 10.0 * i + 8.0;
    double cp = 100.0 * i + 40.0;
    double wc = 10.0 * i + 5.0;
    ExprPtr mask = eb::And(
        eb::Between(b.Ref("ss_quantity"), eb::Int(i * 5), eb::Int(i * 5 + 5)),
        eb::Or({eb::Between(b.Ref("ss_list_price"), eb::Dbl(lp),
                            eb::Dbl(lp + 100.0)),
                eb::Between(b.Ref("ss_coupon_amt"), eb::Dbl(cp),
                            eb::Dbl(cp + 1000.0)),
                eb::Between(b.Ref("ss_wholesale_cost"), eb::Dbl(wc),
                            eb::Dbl(wc + 80.0))}));
    std::string sfx = std::to_string(i);
    specs.push_back(
        {"avg" + sfx, AggFunc::kAvg, b.Ref("ss_list_price"), mask, false});
    specs.push_back(
        {"cnt" + sfx, AggFunc::kCount, b.Ref("ss_list_price"), mask, false});
  }
  b.Aggregate({}, std::move(specs));
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_BucketMasks)->Arg(2)->Arg(6)->Arg(16);

// A k-way disjunction of overlapping price ranges as a filter, under a
// scalar COUNT(*).
void BM_OrFilter(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, t, {"ss_list_price", "ss_coupon_amt", "ss_wholesale_cost"});
  const char* cols[] = {"ss_list_price", "ss_coupon_amt", "ss_wholesale_cost"};
  std::vector<ExprPtr> disjuncts;
  for (int i = 0; i < state.range(0); ++i) {
    double lo = 15.0 * i;
    disjuncts.push_back(
        eb::Between(b.Ref(cols[i % 3]), eb::Dbl(lo), eb::Dbl(lo + 20.0)));
  }
  b.Filter(eb::Or(std::move(disjuncts)));
  b.Aggregate({}, {{"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_OrFilter)->Arg(2)->Arg(4)->Arg(8);

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

// BM_HashJoin's join with the build side filtered to the items of one
// brand in ten (brands are uniform over 1..1000): the kept ids scatter
// over about ten times their count, more than twice the key table's
// slots, so the probe hashes instead of reading a direct-address index.
void BM_HashJoinSparse(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr ss = Unwrap(catalog.GetTable("store_sales"));
  TablePtr item = Unwrap(catalog.GetTable("item"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, ss, {"ss_item_sk", "ss_quantity"});
  PlanBuilder i = PlanBuilder::Scan(&ctx, item, {"i_item_sk", "i_brand_id"});
  i.Filter(eb::Le(i.Ref("i_brand_id"), eb::Int(100)));
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
BENCHMARK(BM_HashJoinSparse);

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

// A native scalar COUNT(DISTINCT): the aggregate's DISTINCT table keys on
// the argument alone.
void BM_CountDistinct(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"ss_quantity", "ss_list_price"});
  b.Aggregate({}, {{"d", AggFunc::kCount, b.Ref("ss_list_price"), nullptr,
                    true}});
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_CountDistinct);

// Fused Q28 (Section V.B): one scalar aggregate under the OR of six bucket
// filters, each bucket an AVG, a COUNT and a COUNT(DISTINCT) of
// ss_list_price under its bucket's mask — 18 masked items over one
// argument, six of them with their own DISTINCT table.
void BM_FusedBucketAggregate(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, t, {"ss_quantity", "ss_list_price", "ss_coupon_amt",
                "ss_wholesale_cost"});
  std::vector<ExprPtr> buckets;
  for (int i = 0; i < 6; ++i) {
    double lp = 10.0 * i + 8.0;
    double cp = 100.0 * i + 40.0;
    double wc = 10.0 * i + 5.0;
    buckets.push_back(eb::And(
        eb::Between(b.Ref("ss_quantity"), eb::Int(i * 5), eb::Int(i * 5 + 5)),
        eb::Or({eb::Between(b.Ref("ss_list_price"), eb::Dbl(lp),
                            eb::Dbl(lp + 100.0)),
                eb::Between(b.Ref("ss_coupon_amt"), eb::Dbl(cp),
                            eb::Dbl(cp + 1000.0)),
                eb::Between(b.Ref("ss_wholesale_cost"), eb::Dbl(wc),
                            eb::Dbl(wc + 80.0))})));
  }
  b.Filter(eb::Or(buckets));
  std::vector<AggSpec> specs;
  for (int i = 0; i < 6; ++i) {
    std::string sfx = std::to_string(i + 1);
    ExprPtr price = b.Ref("ss_list_price");
    specs.push_back({"lp_avg" + sfx, AggFunc::kAvg, price, buckets[i], false});
    specs.push_back(
        {"lp_cnt" + sfx, AggFunc::kCount, price, buckets[i], false});
    specs.push_back(
        {"lp_cntd" + sfx, AggFunc::kCount, price, buckets[i], true});
  }
  b.Aggregate({}, std::move(specs));
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_FusedBucketAggregate);

// The dashboard's Q65 revenue subquery (Section V.A): store_sales of one
// twelve-month window (2000's, as a range of ss_sold_date_sk) grouped by
// (store, item), about one new group per two rows (24,038 rows and 12,830
// groups at scale 0.05).
void BM_GroupByNewKeys(benchmark::State& state) {
  const Catalog& catalog = BenchCatalog();
  TablePtr t = Unwrap(catalog.GetTable("store_sales"));
  TablePtr dates = Unwrap(catalog.GetTable("date_dim"));
  PlanContext ctx;
  PlanBuilder window =
      PlanBuilder::Scan(&ctx, dates, {"d_date_sk", "d_month_seq"});
  window.Filter(
      eb::Between(window.Ref("d_month_seq"), eb::Int(1200), eb::Int(1211)));
  window.Aggregate({}, {{"lo", AggFunc::kMin, window.Ref("d_date_sk"),
                         nullptr, false},
                        {"hi", AggFunc::kMax, window.Ref("d_date_sk"),
                         nullptr, false}});
  QueryResult range = Unwrap(ExecutePlan(window.Build()));
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, t,
      {"ss_sold_date_sk", "ss_store_sk", "ss_item_sk", "ss_sales_price"});
  b.Filter(eb::Between(b.Ref("ss_sold_date_sk"),
                       eb::Int(range.At(0, 0).int_value()),
                       eb::Int(range.At(0, 1).int_value())));
  b.Aggregate({"ss_store_sk", "ss_item_sk"},
              {{"revenue", AggFunc::kSum, b.Ref("ss_sales_price"), nullptr,
                false}});
  PlanPtr plan = b.Build();
  int64_t groups = 0;
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    groups = r.num_rows();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_GroupByNewKeys);

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

// --- Skewed keys --------------------------------------------------------
//
// A synthetic order-line table whose keys follow TPC-C's non-uniform
// NURand(A, x, y) = (((rand[0, A] | rand[x, y]) + C) mod (y - x + 1)) + x
// (TPC-C 2.1.6): a few keys are very hot, most are rare. Columns: a
// customer id (A = 1023 over 1..3000), an item id (A = 8191 over
// 1..100000), the customer's last name built from NURand(255, 0, 999) as
// TPC-C builds C_LAST, and a price.

constexpr int64_t kSkewedRows = 200000;

int64_t NuRand(std::mt19937* rng, int64_t a, int64_t x, int64_t y, int64_t c) {
  auto draw = [rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
  };
  return (((draw(0, a) | draw(x, y)) + c) % (y - x + 1)) + x;
}

std::string LastName(int64_t num) {
  static const char* const kSyllables[] = {"BAR", "OUGHT", "ABLE", "PRI",
                                           "PRES", "ESE", "ANTI", "CALLY",
                                           "ATION", "EING"};
  return std::string(kSyllables[num / 100]) + kSyllables[(num / 10) % 10] +
         kSyllables[num % 10];
}

const TablePtr& SkewedOrderLines() {
  static const TablePtr table = [] {
    TableBuilder b("order_line", {{"ol_c_id", DataType::kInt64},
                                  {"ol_i_id", DataType::kInt64},
                                  {"ol_c_last", DataType::kString},
                                  {"ol_amount", DataType::kFloat64}});
    std::mt19937 rng(20261017);
    for (int64_t r = 0; r < kSkewedRows; ++r) {
      int64_t c_id = NuRand(&rng, 1023, 1, 3000, 259);
      int64_t i_id = NuRand(&rng, 8191, 1, 100000, 7911);
      std::string last = LastName(NuRand(&rng, 255, 0, 999, 123));
      double amount = static_cast<double>(r % 1000) / 10.0;
      DieIf(b.AppendRow({Value::Int64(c_id), Value::Int64(i_id),
                         Value::String(std::move(last)),
                         Value::Float64(amount)}));
    }
    return Unwrap(b.Build());
  }();
  return table;
}

/// Unique ids [1, n] with a payload: the build side the skewed keys probe.
TablePtr Dimension(const std::string& key, int64_t n) {
  TableBuilder b("dim_" + key, {{key, DataType::kInt64},
                                {key + "_w", DataType::kInt64}});
  for (int64_t k = 1; k <= n; ++k) {
    DieIf(b.AppendRow({Value::Int64(k), Value::Int64(k % 7)}));
  }
  return Unwrap(b.Build());
}

// Probes skewed keys into a join build and groups by them:
// Arg = the NURand A, 1023 (customer ids) or 8191 (item ids).
void BM_KeyTableSkewed(benchmark::State& state) {
  const bool items = state.range(0) == 8191;
  const std::string fact_key = items ? "ol_i_id" : "ol_c_id";
  const std::string dim_key = items ? "d_i_id" : "d_c_id";
  static const TablePtr customers = Dimension("d_c_id", 3000);
  static const TablePtr item_ids = Dimension("d_i_id", 100000);
  PlanContext ctx;
  PlanBuilder b =
      PlanBuilder::Scan(&ctx, SkewedOrderLines(), {fact_key, "ol_amount"});
  PlanBuilder d = PlanBuilder::Scan(&ctx, items ? item_ids : customers,
                                    {dim_key, dim_key + "_w"});
  b.JoinOn(JoinType::kInner, d, {{fact_key, dim_key}});
  b.Aggregate({fact_key}, {{"total", AggFunc::kSum, b.Ref("ol_amount"),
                            nullptr, false}});
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kSkewedRows);
}
BENCHMARK(BM_KeyTableSkewed)->Arg(1023)->Arg(8191);

// GROUP BY over the skewed table: Arg 0 keys on the int64 item id, Arg 1 on
// the composite (customer id, last name) — int plus string.
void BM_GroupBy(benchmark::State& state) {
  std::vector<std::string> keys = {"ol_i_id"};
  if (state.range(0) == 1) keys = {"ol_c_id", "ol_c_last"};
  std::vector<std::string> columns = keys;
  columns.push_back("ol_amount");
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, SkewedOrderLines(), columns);
  b.Aggregate(keys, {{"total", AggFunc::kSum, b.Ref("ol_amount"), nullptr,
                      false},
                     {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = b.Build();
  for (auto _ : state) {
    QueryResult r = Unwrap(ExecutePlan(plan));
    benchmark::DoNotOptimize(r.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kSkewedRows);
}
BENCHMARK(BM_GroupBy)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  return RunGbenchWithReport("exec_micro", argc, argv);
}
