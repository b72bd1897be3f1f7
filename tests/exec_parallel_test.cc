// Morsel-driven parallel execution: (a) every TPC-DS query returns the
// same results at parallelism 1, 2 and 8 under both optimizer
// configurations, (b) all additive ExecMetrics are thread-count-invariant,
// and (c) the ThreadPool/ParallelFor primitive behaves (work coverage,
// error propagation, zero-thread degenerate pool), (d) one built KeyTable
// answers probes from every pool worker at once, and (e) dense-key joins and
// masked and DISTINCT aggregates are bit-identical at every thread count.
//
// This suite carries the ctest label "parallel" so it can be run alone
// under ThreadSanitizer: cmake -DFUSIONDB_SANITIZE=thread, then
// `ctest -L parallel`.
#include <algorithm>
#include <atomic>
#include <numeric>

#include "exec/key_table.h"
#include "plan/spool.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  Status st = pool.ParallelFor(kN, [&](size_t worker, size_t index) {
    EXPECT_LT(worker, pool.num_workers());
    hits[index].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  FUSIONDB_EXPECT_OK(st);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroThreadPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1u);
  int64_t sum = 0;
  Status st = pool.ParallelFor(100, [&](size_t worker, size_t index) {
    EXPECT_EQ(worker, 0u);  // only the caller participates
    sum += static_cast<int64_t>(index);
    return Status::OK();
  });
  FUSIONDB_EXPECT_OK(st);
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  Status st = pool.ParallelFor(0, [&](size_t, size_t) {
    called = true;
    return Status::OK();
  });
  FUSIONDB_EXPECT_OK(st);
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesFirstError) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  Status st = pool.ParallelFor(1000, [&](size_t, size_t index) {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (index == 7) return Status::Internal("morsel 7 failed");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("morsel 7 failed"), std::string::npos);
  // The error stops further claims: not all 1000 morsels should run (the
  // bound is loose — workers already past the flag check may finish one).
  EXPECT_LE(executed.load(), 1000);
}

/// All additive metrics; peak_hash_bytes is excluded (the peak legitimately
/// depends on how much partial state is live at once).
std::vector<int64_t> AdditiveMetrics(const ExecMetrics& m) {
  return {m.bytes_scanned,
          m.rows_scanned,
          m.partitions_scanned,
          m.partitions_pruned,
          m.runtime_pruned_partitions,
          m.runtime_pruned_bytes,
          m.rows_produced,
          m.spool_bytes_written,
          m.spool_bytes_read};
}

/// Runs every TPC-DS query under `options` at parallelism 1, 2 and 8 and
/// checks results and additive metrics are identical across thread counts.
void CheckThreadCountInvariance(const OptimizerOptions& options) {
  const Catalog& catalog = SharedTpcds(0.01);
  for (const tpcds::TpcdsQuery& query : tpcds::Queries()) {
    SCOPED_TRACE(query.name);
    PlanContext ctx;
    PlanPtr plan = Unwrap(query.build(catalog, &ctx));
    PlanPtr optimized = Unwrap(Optimizer(options).Optimize(plan, &ctx));
    QueryResult serial = Unwrap(ExecutePlan(optimized, {.chunk_size = 1024}));
    for (size_t parallelism : {2, 8}) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
      QueryResult parallel =
          Unwrap(ExecutePlan(optimized, {.chunk_size = 1024, .parallelism = parallelism}));
      EXPECT_TRUE(ResultsEquivalent(serial, parallel))
          << "results diverge at parallelism " << parallelism;
      EXPECT_EQ(AdditiveMetrics(serial.metrics()),
                AdditiveMetrics(parallel.metrics()))
          << "metrics diverge at parallelism " << parallelism;
    }
  }
}

TEST(ParallelExec, TpcdsBaselinePlansThreadCountInvariant) {
  CheckThreadCountInvariance(OptimizerOptions::Baseline());
}

TEST(ParallelExec, TpcdsFusedPlansThreadCountInvariant) {
  CheckThreadCountInvariance(OptimizerOptions::Fused());
}

TEST(ParallelExec, ScanStreamsChunksInPartitionOrder) {
  // A bare scan (no order-destroying operators above): the parallel path
  // must deliver rows in exactly the serial order, not just the same set.
  const Catalog& catalog = SharedTpcds(0.01);
  TablePtr table = Unwrap(catalog.GetTable("store_sales"));
  std::vector<std::string> names;
  for (const TableColumn& c : table->columns()) names.push_back(c.name);
  PlanContext ctx;
  PlanBuilder scan = PlanBuilder::Scan(&ctx, table, names);
  PlanPtr plan = scan.Build();
  QueryResult serial = Unwrap(ExecutePlan(plan, {.chunk_size = 512}));
  QueryResult parallel = Unwrap(ExecutePlan(plan, {.chunk_size = 512, .parallelism = 4}));
  EXPECT_TRUE(ResultsEqualOrdered(serial, parallel));
  EXPECT_EQ(serial.metrics().bytes_scanned, parallel.metrics().bytes_scanned);
}

TEST(ParallelExec, PartitionPruningUnaffectedByParallelism) {
  // A pruned scan must count the same pruned/scanned partitions and charge
  // the same bytes regardless of which worker skips which morsel.
  const Catalog& catalog = SharedTpcds(0.01);
  TablePtr table = Unwrap(catalog.GetTable("store_sales"));
  PlanContext ctx;
  PlanBuilder scan =
      PlanBuilder::Scan(&ctx, table, {"ss_sold_date_sk", "ss_net_profit"});
  ExprPtr pred = Expr::MakeCompare(
      CompareOp::kLt, scan.Ref("ss_sold_date_sk"),
      Expr::MakeLiteral(Value::Int64(2451000)));
  scan.Filter(pred);
  const PlanPtr& plan = scan.Build();
  QueryResult serial = Unwrap(ExecutePlan(plan, {.chunk_size = 1024}));
  QueryResult parallel = Unwrap(ExecutePlan(plan, {.chunk_size = 1024, .parallelism = 8}));
  ASSERT_GT(serial.metrics().partitions_pruned, 0)
      << "test premise: the predicate must prune something";
  EXPECT_TRUE(ResultsEquivalent(serial, parallel));
  EXPECT_EQ(AdditiveMetrics(serial.metrics()),
            AdditiveMetrics(parallel.metrics()));
}

TEST(ParallelExec, SpooledPlanSafeUnderParallelism) {
  // Regression test for ExecContext::GetSpool, which mutated the spool map
  // without a lock: a spooled plan whose consumers sit inside parallel
  // regions could race the lookup-or-create against the driver. Run under
  // ThreadSanitizer via `ctest -L parallel` (this suite's label) to catch
  // the race itself; result equivalence guards the functional path.
  PlanContext ctx;
  TablePtr ss = Unwrap(SharedTpcds(0.01).GetTable("store_sales"));
  PlanBuilder agg =
      PlanBuilder::Scan(&ctx, ss, {"ss_store_sk", "ss_list_price"});
  agg.Aggregate({"ss_store_sk"}, {{"total", AggFunc::kSum,
                                   agg.Ref("ss_list_price"), nullptr, false}});
  PlanPtr shared_child = agg.Build();
  PlanBuilder left =
      PlanBuilder::From(&ctx, std::make_shared<SpoolOp>(1, shared_child));
  PlanBuilder right =
      PlanBuilder::From(&ctx, std::make_shared<SpoolOp>(1, shared_child));
  left.CrossJoin(right);
  PlanPtr plan = left.Build();
  QueryResult serial = Unwrap(ExecutePlan(plan));
  QueryResult parallel = Unwrap(ExecutePlan(plan, {.parallelism = 4}));
  EXPECT_TRUE(ResultsEquivalent(serial, parallel));
  EXPECT_EQ(AdditiveMetrics(serial.metrics()),
            AdditiveMetrics(parallel.metrics()));
}

TEST(ParallelExec, AutoParallelismExecutes) {
  // parallelism = 0 resolves to hardware_concurrency; results must agree
  // with serial whatever that resolves to on this host.
  const Catalog& catalog = SharedTpcds(0.01);
  tpcds::TpcdsQuery query = Unwrap(tpcds::QueryByName("q65"));
  PlanContext ctx;
  PlanPtr plan = Unwrap(query.build(catalog, &ctx));
  PlanPtr fused =
      Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
  QueryResult serial = Unwrap(ExecutePlan(fused));
  QueryResult autop = Unwrap(ExecutePlan(fused, {.parallelism = 0}));
  EXPECT_TRUE(ResultsEquivalent(serial, autop));
  EXPECT_EQ(serial.metrics().bytes_scanned, autop.metrics().bytes_scanned);
}

// Find is const and keeps its state in the caller's Scratch, so every
// worker may probe one built, sealed table at once (run under TSan via the
// "parallel" label). Both layouts, fixed-width words and byte keys, and
// the direct-address index of a sealed table over dense ints.
TEST(ParallelExec, ConcurrentProbesOfOneKeyTable) {
  constexpr size_t kKeys = 20000;
  Column ints(DataType::kInt64);
  Column dense(DataType::kInt64);
  Column strs(DataType::kString);
  for (size_t k = 0; k < kKeys; ++k) {
    ints.AppendInt(static_cast<int64_t>(k * 31));
    dense.AppendInt(static_cast<int64_t>(kKeys - k));
    strs.AppendString("key" + std::to_string(k));
  }
  for (const internal::KeyColumns& cols :
       {internal::KeyColumns{&ints}, internal::KeyColumns{&dense},
        internal::KeyColumns{&ints, &strs}}) {
    internal::KeyTable table;
    std::vector<uint32_t> built(kKeys);
    table.Insert(cols, kKeys, built.data());
    table.Seal();
    ThreadPool pool(4);
    const size_t workers = pool.num_workers();
    std::vector<std::vector<uint32_t>> found(workers);
    Status st = pool.ParallelFor(workers, [&](size_t /*worker*/, size_t w) {
      internal::KeyTable::Scratch scratch;
      found[w].resize(kKeys);
      table.Find(cols, kKeys, &scratch, found[w].data());
      return Status::OK();
    });
    FUSIONDB_EXPECT_OK(st);
    for (size_t w = 0; w < workers; ++w) {
      EXPECT_EQ(found[w], built) << "worker " << w << ", " << cols.size()
                                 << " key column(s)";
    }
  }
}

// A join whose build side has one row per key over a dense id range: the
// build inserts into per-worker partials, merges them and seals the merged
// table, and the probe reads its direct-address index (run under TSan via
// the "parallel" label). Rows, their order and the hash-memory peak are
// identical at 1 and 4 threads.
TEST(ParallelExec, DenseKeyJoinBitIdenticalAcrossThreadCounts) {
  TableBuilder db("dim", {{"d_id", DataType::kInt64},
                          {"d_w", DataType::kFloat64}});
  for (int64_t k = 0; k < 5000; ++k) {
    Value w = k % 9 == 0 ? Value::Null(DataType::kFloat64)
                         : Value::Float64(static_cast<double>(k % 400) / 4);
    EXPECT_TRUE(db.AppendRow({Value::Int64(100 + (k * 7 % 5000)), w}).ok());
  }
  TablePtr dim = Unwrap(db.Build());
  TableBuilder fb("fact", {{"f_id", DataType::kInt64},
                           {"f_k", DataType::kInt64}});
  EXPECT_TRUE(fb.PartitionBy("f_id", 20).ok());
  for (int64_t r = 0; r < 20000; ++r) {
    // Keys from below to above the build's [100, 5100), and some NULLs.
    Value k = r % 23 == 0 ? Value::Null(DataType::kInt64)
                          : Value::Int64(r * 31 % 5400 - 200);
    EXPECT_TRUE(fb.AppendRow({Value::Int64(r), k}).ok());
  }
  TablePtr fact = Unwrap(fb.Build());
  for (JoinType type : {JoinType::kInner, JoinType::kLeft}) {
    PlanContext ctx;
    PlanBuilder f = PlanBuilder::Scan(&ctx, fact, {"f_id", "f_k"});
    PlanBuilder d = PlanBuilder::Scan(&ctx, dim, {"d_id", "d_w"});
    f.JoinOn(type, d, {{"f_k", "d_id"}});
    PlanPtr plan = f.Build();
    QueryResult serial =
        Unwrap(ExecutePlan(plan, {.chunk_size = 512, .parallelism = 1}));
    QueryResult parallel =
        Unwrap(ExecutePlan(plan, {.chunk_size = 512, .parallelism = 4}));
    EXPECT_EQ(testutil::RowsOf(parallel), testutil::RowsOf(serial));
    EXPECT_EQ(parallel.metrics().peak_hash_bytes,
              serial.metrics().peak_hash_bytes);
    testutil::ExpectMatchesReference(plan, parallel);
  }
}

// A date_dim build prunes store_sales partitions at run time, and an empty
// build prunes them all. Every worker reads the runtime spec that the
// driver published before the scan's region started (run under TSan via the
// "parallel" label). Rows, their order and every additive metric are
// identical at 1, 2 and 4 threads.
TEST(ParallelExec, RuntimeJoinFilterBitIdenticalAcrossThreadCounts) {
  const Catalog& catalog = SharedTpcds(0.01);
  TablePtr ss = Unwrap(catalog.GetTable("store_sales"));
  TablePtr dd = Unwrap(catalog.GetTable("date_dim"));
  for (int64_t year : {2000, 1890}) {  // no date_dim row has year 1890
    SCOPED_TRACE("d_year=" + std::to_string(year));
    PlanContext ctx;
    PlanBuilder f = PlanBuilder::Scan(
        &ctx, ss, {"ss_sold_date_sk", "ss_item_sk", "ss_net_profit"});
    PlanBuilder d =
        PlanBuilder::Scan(&ctx, dd, {"d_date_sk", "d_year", "d_moy"});
    d.Filter(Expr::MakeAnd(
        {Expr::MakeCompare(CompareOp::kEq, d.Ref("d_year"),
                           Expr::MakeLiteral(Value::Int64(year))),
         Expr::MakeCompare(CompareOp::kLe, d.Ref("d_moy"),
                           Expr::MakeLiteral(Value::Int64(3)))}));
    f.JoinOn(JoinType::kInner, d, {{"ss_sold_date_sk", "d_date_sk"}});
    PlanPtr plan = f.Build();
    QueryResult serial =
        Unwrap(ExecutePlan(plan, {.chunk_size = 512, .parallelism = 1}));
    ASSERT_GT(serial.metrics().runtime_pruned_partitions, 0)
        << "test premise: the build must prune store_sales partitions";
    EXPECT_EQ(serial.num_rows() == 0, year == 1890);
    for (size_t parallelism : {2, 4}) {
      QueryResult parallel = Unwrap(ExecutePlan(
          plan, {.chunk_size = 512, .parallelism = parallelism}));
      EXPECT_EQ(testutil::RowsOf(parallel), testutil::RowsOf(serial));
      EXPECT_EQ(AdditiveMetrics(parallel.metrics()),
                AdditiveMetrics(serial.metrics()));
    }
  }
}

/// t(k, g, q, p) over 100 partitions of k: g in [0, 7), q in [0, 50) (NULL
/// on every 13th row when `null_q`), p a multiple of 0.25 in [0, 100) that
/// is NULL on every 11th row.
TablePtr AggInputTable(bool null_q) {
  TableBuilder tb("t", {{"k", DataType::kInt64},
                        {"g", DataType::kInt64},
                        {"q", DataType::kInt64},
                        {"p", DataType::kFloat64}});
  EXPECT_TRUE(tb.PartitionBy("k", 100).ok());
  for (int64_t r = 0; r < 20000; ++r) {
    Value q = null_q && r % 13 == 0 ? Value::Null(DataType::kInt64)
                                    : Value::Int64(r * 37 % 50);
    Value p = r % 11 == 0 ? Value::Null(DataType::kFloat64)
                          : Value::Float64(static_cast<double>(r * 13 % 400) / 4);
    EXPECT_TRUE(
        tb.AppendRow({Value::Int64(r % 1000), Value::Int64(r % 7), q, p}).ok());
  }
  return Unwrap(tb.Build());
}

/// `plan`'s rows at `parallelism`, sorted by their first (int64) column.
std::vector<reference::Row> SortedRows(const PlanPtr& plan,
                                       size_t parallelism) {
  QueryResult r = Unwrap(
      ExecutePlan(plan, {.chunk_size = 512, .parallelism = parallelism}));
  std::vector<reference::Row> rows = testutil::RowsOf(r);
  std::sort(rows.begin(), rows.end(),
            [](const reference::Row& x, const reference::Row& y) {
              return x[0].int_value() < y[0].int_value();
            });
  return rows;
}

// A grouped masked aggregate under an OR filter, with masks that share a
// conjunct: every worker evaluates the one bound mask set, and runs OR
// narrowing with its own scratch, at once (run under TSan via the
// "parallel" label). The double column holds multiples of 0.25, so its sums
// are exact in any order and the results are bit-identical at 1 and 4
// threads, not just within tolerance.
TEST(ParallelExec, MaskedAggregateBitIdenticalAcrossThreadCounts) {
  TablePtr t = AggInputTable(/*null_q=*/false);
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"g", "q", "p"});
  ExprPtr q = b.Ref("q");
  ExprPtr p = b.Ref("p");
  b.Filter(eb::Or({eb::Lt(q, eb::Int(30)), eb::Ge(p, eb::Dbl(80.0)),
                   eb::Eq(b.Ref("g"), eb::Int(3))}));
  ExprPtr shared = eb::Ge(q, eb::Int(5));
  std::vector<AggSpec> specs;
  for (int i = 0; i < 4; ++i) {
    ExprPtr mask =
        i == 3 ? eb::And(shared, eb::Or(eb::Lt(p, eb::Dbl(10.0)),
                                        eb::Eq(b.Ref("g"), eb::Int(1))))
               : eb::And(shared, eb::Lt(p, eb::Dbl(25.0 * (i + 1))));
    std::string sfx = std::to_string(i);
    specs.push_back({"n" + sfx, AggFunc::kCountStar, nullptr, mask, false});
    specs.push_back({"sum" + sfx, AggFunc::kSum, p, mask, false});
    specs.push_back({"avg" + sfx, AggFunc::kAvg, q, mask, false});
    specs.push_back({"cd" + sfx, AggFunc::kCount, q, mask, true});
  }
  b.Aggregate({"g"}, std::move(specs));
  PlanPtr plan = b.Build();
  std::vector<reference::Row> serial = SortedRows(plan, 1);
  ASSERT_EQ(serial.size(), 7u);
  EXPECT_EQ(SortedRows(plan, 4), serial);
}

// Masked COUNT(DISTINCT) and SUM(DISTINCT) over NULL-bearing arguments,
// scalar and grouped. Each worker's partial keeps its own DISTINCT tables
// and MergePartialGroups re-inserts them: keyed on the argument alone when
// there are no grouping columns, on (group id, argument) otherwise. The
// double argument holds multiples of 0.25, so the results are bit-identical
// at 1 and 4 threads, and they match the reference evaluator.
TEST(ParallelExec, DistinctAggregatesBitIdenticalAcrossThreadCounts) {
  TablePtr t = AggInputTable(/*null_q=*/true);
  for (bool grouped : {false, true}) {
    SCOPED_TRACE(grouped ? "grouped" : "scalar");
    PlanContext ctx;
    PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"g", "q", "p"});
    ExprPtr q = b.Ref("q");
    ExprPtr p = b.Ref("p");
    ExprPtr low = eb::Lt(q, eb::Int(25));
    ExprPtr cheap = eb::Lt(p, eb::Dbl(60.0));
    b.Aggregate(grouped ? std::vector<std::string>{"g"}
                        : std::vector<std::string>{},
                {{"cd_p", AggFunc::kCount, p, low, true},
                 {"sd_p", AggFunc::kSum, p, cheap, true},
                 {"cd_q", AggFunc::kCount, q, nullptr, true},
                 {"sd_q", AggFunc::kSum, q, cheap, true}});
    PlanPtr plan = b.Build();
    std::vector<reference::Row> serial = SortedRows(plan, 1);
    ASSERT_EQ(serial.size(), grouped ? 7u : 1u);
    EXPECT_EQ(SortedRows(plan, 4), serial);
    testutil::ExpectMatchesReference(
        plan, Unwrap(ExecutePlan(plan, {.chunk_size = 512, .parallelism = 4})));
  }
}

// A grouped aggregate with string MIN/MAX, a DISTINCT item and an int
// SUM: each worker's partial holds its own string values and DISTINCT
// table, and the merge keeps the MIN/MAX winners. Results are
// bit-identical at 1, 2 and 8 threads, and so is peak_hash_bytes, which
// charges the merged table's keys, accumulators and DISTINCT tables, all
// functions of the groups and keys alone.
TEST(ParallelExec, StringMinMaxAndDistinctBitIdenticalWithEqualPeakBytes) {
  TableBuilder tb("t", {{"k", DataType::kInt64},
                        {"g", DataType::kInt64},
                        {"s", DataType::kString},
                        {"q", DataType::kInt64}});
  ASSERT_TRUE(tb.PartitionBy("k", 250).ok());
  for (int64_t r = 0; r < 12000; ++r) {
    Value s = r % 17 == 0 ? Value::Null(DataType::kString)
                          : Value::String("v" + std::to_string(r * 7 % 901));
    Value q = r % 5 == 0 ? Value::Null(DataType::kInt64)
                         : Value::Int64(r * 31 % 1000 - 500);
    ASSERT_TRUE(
        tb.AppendRow({Value::Int64(r), Value::Int64(r * 13 % 700), s, q}).ok());
  }
  TablePtr t = Unwrap(tb.Build());
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, t, {"g", "s", "q"});
  ExprPtr s = b.Ref("s");
  ExprPtr positive = eb::Gt(b.Ref("q"), eb::Int(0));
  b.Aggregate({"g"}, {{"lo", AggFunc::kMin, s, nullptr, false},
                      {"hi", AggFunc::kMax, s, positive, false},
                      {"ds", AggFunc::kCount, s, nullptr, true},
                      {"sq", AggFunc::kSum, b.Ref("q"), positive, false},
                      {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = b.Build();
  QueryResult serial =
      Unwrap(ExecutePlan(plan, {.chunk_size = 256, .parallelism = 1}));
  ASSERT_EQ(serial.num_rows(), 700);
  testutil::ExpectMatchesReference(plan, serial);
  for (size_t parallelism : {2, 8}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    QueryResult parallel = Unwrap(
        ExecutePlan(plan, {.chunk_size = 256, .parallelism = parallelism}));
    EXPECT_EQ(SortedRows(plan, parallelism), SortedRows(plan, 1));
    EXPECT_EQ(parallel.metrics().peak_hash_bytes,
              serial.metrics().peak_hash_bytes);
  }
}

}  // namespace
}  // namespace fusiondb
