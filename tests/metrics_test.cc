// Service-level metrics registry (src/obs/metrics.h, DESIGN.md §9.4):
// counter/gauge/histogram units, the log-linear bucket scheme, snapshot
// diffing, JSON/Prometheus exposition, thread-count-invariant totals under
// concurrent recording, the structured query log, and the server smoke
// check that the `fusiondb_server_*` counters reconcile exactly with the
// per-session attribution blocks of a deterministic SubmitBatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << "cannot open " << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// --- registry units ---------------------------------------------------------

TEST(MetricsRegistryTest, CounterAddAndSnapshot) {
  MetricsRegistry registry;
  MetricId c = registry.Counter("requests_total");
  ASSERT_TRUE(c.valid());
  registry.Add(c, 1);
  registry.Add(c, 41);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter("requests_total"), 42);
  EXPECT_EQ(snap.Counter("never_registered"), 0);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  MetricId a = registry.Counter("dup_total");
  MetricId b = registry.Counter("dup_total");
  EXPECT_EQ(a.index, b.index);
  registry.Add(a, 1);
  registry.Add(b, 2);
  EXPECT_EQ(registry.Snapshot().Counter("dup_total"), 3);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, InvalidIdIsNoOp) {
  MetricsRegistry registry;
  MetricId invalid;
  EXPECT_FALSE(invalid.valid());
  registry.Add(invalid, 7);
  registry.Record(invalid, 7);
  registry.GaugeSet(invalid, 7);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  MetricId g = registry.Gauge("queue_depth");
  registry.GaugeSet(g, 5);
  EXPECT_EQ(registry.Snapshot().Gauge("queue_depth"), 5);
  registry.GaugeAdd(g, -2);
  registry.GaugeAdd(g, 4);
  EXPECT_EQ(registry.Snapshot().Gauge("queue_depth"), 7);
  registry.GaugeSet(g, 0);
  EXPECT_EQ(registry.Snapshot().Gauge("queue_depth"), 0);
}

// --- log-linear buckets -----------------------------------------------------

TEST(MetricBucketTest, ExactBelowSixteenAndBoundsEnclose) {
  for (int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(MetricBucketIndex(v), v);
    EXPECT_EQ(MetricBucketLowerBound(static_cast<int32_t>(v)), v);
  }
  EXPECT_EQ(MetricBucketIndex(-5), 0);  // negatives clamp to bucket 0
  // Every value lands in a bucket whose [lower, upper] range encloses it,
  // across the whole int64 span the scheme serves.
  for (int64_t v : {16LL, 17LL, 31LL, 32LL, 1000LL, 4096LL, 1000000LL,
                    123456789LL, 1LL << 40, (1LL << 62) + 12345}) {
    int32_t idx = MetricBucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, kMetricNumBuckets);
    EXPECT_LE(MetricBucketLowerBound(idx), v) << "value " << v;
    EXPECT_GE(MetricBucketUpperBound(idx), v) << "value " << v;
  }
  // Bucket index is monotonic in the value.
  int32_t prev = -1;
  for (int64_t v = 0; v < 100000; v = v < 100 ? v + 1 : v * 2) {
    int32_t idx = MetricBucketIndex(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(MetricsRegistryTest, HistogramStatsAndQuantiles) {
  MetricsRegistry registry;
  MetricId h = registry.Histogram("latency_us");
  for (int64_t v = 1; v <= 100; ++v) registry.Record(h, v);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hist = snap.Histogram("latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 100);
  EXPECT_EQ(hist->sum, 5050);
  EXPECT_EQ(hist->min, 1);
  EXPECT_EQ(hist->max, 100);
  // The scheme's relative error is bounded at 1/16, so p50 of 1..100 must
  // land within [47, 50] (bucket lower bounds only ever under-estimate).
  int64_t p50 = hist->ValueAtQuantile(0.50);
  EXPECT_GE(p50, 47);
  EXPECT_LE(p50, 50);
  EXPECT_EQ(hist->ValueAtQuantile(1.0), 100);
  EXPECT_GE(hist->ValueAtQuantile(0.0), 1);
}

TEST(MetricsRegistryTest, EmptyHistogramSnapshot) {
  MetricsRegistry registry;
  registry.Histogram("never_recorded");
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hist = snap.Histogram("never_recorded");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 0);
  EXPECT_EQ(hist->min, 0);
  EXPECT_EQ(hist->max, 0);
  EXPECT_EQ(hist->ValueAtQuantile(0.99), 0);
}

// --- snapshot diff ----------------------------------------------------------

TEST(MetricsSnapshotTest, DiffSubtractsCountersKeepsGauges) {
  MetricsRegistry registry;
  MetricId c = registry.Counter("ops_total");
  MetricId g = registry.Gauge("depth");
  MetricId h = registry.Histogram("lat");
  registry.Add(c, 10);
  registry.GaugeSet(g, 3);
  registry.Record(h, 8);
  MetricsSnapshot base = registry.Snapshot();

  registry.Add(c, 5);
  registry.GaugeSet(g, 9);
  registry.Record(h, 8);
  registry.Record(h, 200);
  MetricsSnapshot now = registry.Snapshot();

  MetricsSnapshot diff = now.Diff(base);
  EXPECT_EQ(diff.Counter("ops_total"), 5);   // rate over the window
  EXPECT_EQ(diff.Gauge("depth"), 9);         // a gauge is a level
  const HistogramSnapshot* hd = diff.Histogram("lat");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->count, 2);
  EXPECT_EQ(hd->sum, 208);
  int64_t bucket_total = 0;
  for (int64_t b : hd->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 2);
}

TEST(MetricsSnapshotTest, DiffAgainstEmptyBaseIsIdentityForCounters) {
  MetricsRegistry registry;
  registry.Add(registry.Counter("fresh_total"), 4);
  MetricsSnapshot now = registry.Snapshot();
  MetricsSnapshot diff = now.Diff(MetricsSnapshot{});
  EXPECT_EQ(diff.Counter("fresh_total"), 4);
}

// --- exposition -------------------------------------------------------------

TEST(MetricsExportTest, JsonCarriesSchemaVersionAndValues) {
  MetricsRegistry registry;
  registry.Add(registry.Counter("a_total"), 3);
  registry.GaugeSet(registry.Gauge("b"), -2);
  registry.Record(registry.Histogram("c_us"), 100);
  std::string json = MetricsToJson(registry.Snapshot());
  EXPECT_TRUE(Contains(json, "\"schema_version\":4")) << json;
  EXPECT_TRUE(Contains(json, "\"a_total\":3")) << json;
  EXPECT_TRUE(Contains(json, "\"b\":-2")) << json;
  EXPECT_TRUE(Contains(json, "\"c_us\":{\"count\":1,\"sum\":100")) << json;
}

TEST(MetricsExportTest, PrometheusRendersFamiliesLabelsAndHistograms) {
  MetricsRegistry registry;
  MetricId t1 = registry.Counter("scan_bytes_total{table=\"a\"}");
  MetricId t2 = registry.Counter("scan_bytes_total{table=\"b\"}");
  registry.Add(t1, 10);
  registry.Add(t2, 20);
  registry.GaugeSet(registry.Gauge("depth"), 4);
  MetricId h = registry.Histogram("lat_us{mode=\"fused\"}");
  registry.Record(h, 3);
  registry.Record(h, 3);
  registry.Record(h, 500);
  std::string text = MetricsToPrometheus(registry.Snapshot());

  // One TYPE line per family, even with two labeled series.
  size_t first = text.find("# TYPE scan_bytes_total counter");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("# TYPE scan_bytes_total counter", first + 1),
            std::string::npos);
  EXPECT_TRUE(Contains(text, "scan_bytes_total{table=\"a\"} 10")) << text;
  EXPECT_TRUE(Contains(text, "scan_bytes_total{table=\"b\"} 20")) << text;
  EXPECT_TRUE(Contains(text, "# TYPE depth gauge")) << text;
  EXPECT_TRUE(Contains(text, "depth 4")) << text;
  // Histogram: embedded labels merge with le; buckets are cumulative and
  // finish at +Inf == _count.
  EXPECT_TRUE(Contains(text, "# TYPE lat_us histogram")) << text;
  EXPECT_TRUE(Contains(text, "lat_us_bucket{mode=\"fused\",le=\"3\"} 2"))
      << text;
  EXPECT_TRUE(Contains(text, "lat_us_bucket{mode=\"fused\",le=\"+Inf\"} 3"))
      << text;
  EXPECT_TRUE(Contains(text, "lat_us_sum{mode=\"fused\"} 506")) << text;
  EXPECT_TRUE(Contains(text, "lat_us_count{mode=\"fused\"} 3")) << text;
}

TEST(MetricsExportTest, WriteMetricsJsonFailsOnBadPath) {
  MetricsRegistry registry;
  Status st = WriteMetricsJson(registry.Snapshot(),
                               "/nonexistent-dir/metrics.json");
  EXPECT_FALSE(st.ok());
}

// --- concurrency: totals are thread-count-invariant -------------------------
//
// This test carries the `parallel` ctest label (tests/CMakeLists.txt), so
// the TSan configuration exercises the lock-free shard discipline:
// concurrent Add/Record on the same metric ids from many threads, with
// snapshots racing the recording, must be data-race-free and lose nothing.

TEST(MetricsRegistryTest, ConcurrentRecordingIsExactAcrossThreads) {
  MetricsRegistry registry;
  MetricId c = registry.Counter("work_total");
  MetricId h = registry.Histogram("work_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.Add(c, 1);
        registry.Record(h, i % 1024);
      }
    });
  }
  // Snapshots race the recorders; totals below are taken after the join.
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot racing = registry.Snapshot();
    EXPECT_LE(racing.Counter("work_total"),
              static_cast<int64_t>(kThreads) * kPerThread);
  }
  for (std::thread& t : threads) t.join();

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter("work_total"),
            static_cast<int64_t>(kThreads) * kPerThread);
  const HistogramSnapshot* hist = snap.Histogram("work_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->min, 0);
  EXPECT_EQ(hist->max, 1023);
  int64_t bucket_total = 0;
  for (int64_t b : hist->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist->count);
}

TEST(MetricsRegistryTest, LateRegistrationRacesSnapshot) {
  MetricsRegistry registry;
  std::thread registrar([&registry] {
    for (int i = 0; i < 200; ++i) {
      MetricId id = registry.Counter("late_" + std::to_string(i) + "_total");
      registry.Add(id, 1);
    }
  });
  for (int i = 0; i < 50; ++i) registry.Snapshot();
  registrar.join();
  MetricsSnapshot snap = registry.Snapshot();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(snap.Counter("late_" + std::to_string(i) + "_total"), 1);
  }
}

// --- query log --------------------------------------------------------------

TEST(QueryLogTest, AppendsOneSchemaStampedLinePerEvent) {
  std::string path = testing::TempDir() + "metrics_test_query_log.jsonl";
  std::remove(path.c_str());
  {
    std::unique_ptr<QueryLog> log = Unwrap(QueryLog::Open(path, 0));
    QueryLogEvent event;
    event.session_id = 7;
    event.mode = "fused";
    event.fingerprint = "fp:abc";
    event.shared = true;
    event.consumers = 3;
    event.bytes_scanned = 111;
    FUSIONDB_EXPECT_OK(log->Append(event));
    event.session_id = 8;
    FUSIONDB_EXPECT_OK(log->Append(event));
    EXPECT_EQ(log->events(), 2);
  }
  std::string contents = ReadFile(path);
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), 2);
  EXPECT_TRUE(Contains(contents, "\"schema_version\":4")) << contents;
  EXPECT_TRUE(Contains(contents, "\"session_id\":7")) << contents;
  EXPECT_TRUE(Contains(contents, "\"session_id\":8")) << contents;
  EXPECT_TRUE(Contains(contents, "\"mode\":\"fused\"")) << contents;
  EXPECT_TRUE(Contains(contents, "\"plan_us\":0")) << contents;
  EXPECT_TRUE(Contains(contents, "\"isolated_static_bytes\":0")) << contents;
  std::remove(path.c_str());
}

TEST(QueryLogTest, SlowThresholdAndProfilePath) {
  std::string path = testing::TempDir() + "metrics_test_slow.jsonl";
  std::remove(path.c_str());
  std::unique_ptr<QueryLog> log = Unwrap(QueryLog::Open(path, 10));
  EXPECT_FALSE(log->IsSlow(9999));    // 9.999 ms < 10 ms
  EXPECT_TRUE(log->IsSlow(10000));    // exactly the threshold
  EXPECT_TRUE(log->IsSlow(250000));
  EXPECT_EQ(log->SlowProfilePath(42), path + ".slow-42.json");
  std::unique_ptr<QueryLog> off = Unwrap(QueryLog::Open(path, 0));
  EXPECT_FALSE(off->IsSlow(INT64_MAX));  // slow_ms <= 0 disables capture
  std::remove(path.c_str());
}

TEST(QueryLogTest, OpenFailsOnBadPath) {
  EXPECT_FALSE(QueryLog::Open("/nonexistent-dir/q.jsonl", 0).ok());
}

// --- server smoke: counters reconcile with BatchReport ----------------------

TEST(MetricsServerTest, CountersReconcileWithDeterministicBatch) {
  const Catalog& catalog = SharedTpcds();
  const tpcds::TpcdsQuery* query = nullptr;
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (q.fusion_applicable) {
      query = &q;
      break;
    }
  }
  ASSERT_NE(query, nullptr);

  std::string log_path = testing::TempDir() + "metrics_test_server.jsonl";
  std::remove(log_path.c_str());
  MetricsRegistry registry;
  std::unique_ptr<QueryLog> log = Unwrap(QueryLog::Open(log_path, 0));
  ServerOptions options;
  options.metrics = &registry;
  options.query_log = log.get();
  options.mode_label = "fused";
  SessionManager manager(options);

  constexpr int kClients = 6;
  std::vector<PlanContext> contexts(kClients);
  std::vector<PlanPtr> plans;
  for (int i = 0; i < kClients; ++i) {
    plans.push_back(Unwrap(query->build(catalog, &contexts[i])));
  }
  std::vector<SessionPtr> sessions = manager.SubmitBatch(plans);
  BatchReport report = manager.last_batch_report();
  MetricsSnapshot snap = registry.Snapshot();

  // Session counts: registry vs report vs submitted.
  EXPECT_EQ(snap.Counter("fusiondb_server_sessions_total"), kClients);
  EXPECT_EQ(snap.Counter("fusiondb_server_shared_sessions_total"),
            static_cast<int64_t>(report.shared_sessions));
  EXPECT_EQ(snap.Counter("fusiondb_server_solo_sessions_total"),
            static_cast<int64_t>(report.solo_sessions));
  EXPECT_EQ(snap.Counter("fusiondb_server_shared_groups_total"),
            static_cast<int64_t>(report.shared_groups));

  // Byte accounting: the physical-bytes counter equals the report, and the
  // attributed-bytes counter equals the sum over every session's sharing
  // block — the exact shares must re-add to the physical whole.
  EXPECT_EQ(snap.Counter("fusiondb_server_bytes_scanned_total"),
            report.bytes_scanned);
  int64_t attributed = 0;
  int64_t isolated = 0;
  for (const SessionPtr& session : sessions) {
    FUSIONDB_ASSERT_OK(session->Wait().status());
    attributed += session->sharing().attributed_bytes_scanned;
    isolated += session->sharing().isolated_static_bytes;
  }
  EXPECT_EQ(snap.Counter("fusiondb_server_attributed_bytes_total"),
            attributed);
  EXPECT_EQ(attributed, report.bytes_scanned);
  EXPECT_EQ(snap.Counter("fusiondb_server_isolated_static_bytes_total"),
            isolated);
  EXPECT_EQ(isolated, report.isolated_static_bytes);
  EXPECT_EQ(snap.Counter("fusiondb_server_static_bytes_total"),
            report.static_bytes);

  // Latency histograms: one observation per session in every series.
  const HistogramSnapshot* queue_wait =
      snap.Histogram("fusiondb_server_queue_wait_us");
  const HistogramSnapshot* plan = snap.Histogram("fusiondb_server_plan_us");
  const HistogramSnapshot* execute =
      snap.Histogram("fusiondb_server_execute_us");
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(execute, nullptr);
  EXPECT_EQ(queue_wait->count, kClients);
  EXPECT_EQ(plan->count, kClients);
  EXPECT_EQ(execute->count, kClients);
  EXPECT_GT(plan->max, 0);
  EXPECT_GT(execute->max, 0);

  // Per-session timing accessors carry the same series; planning is part
  // of the wait before execution.
  for (const SessionPtr& session : sessions) {
    EXPECT_GT(session->plan_us(), 0);
    EXPECT_GE(session->queue_wait_us(), session->plan_us());
    EXPECT_GT(session->execute_us(), 0);
  }

  // The query log saw every session exactly once.
  EXPECT_EQ(log->events(), kClients);
  std::string contents = ReadFile(log_path);
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), kClients);
  for (const SessionPtr& session : sessions) {
    EXPECT_TRUE(Contains(
        contents, "\"session_id\":" + std::to_string(session->id())))
        << contents;
  }
  std::remove(log_path.c_str());
}

// Exec-layer counters reconcile with the executed query's own metrics, and
// per-table scan attribution sums to the total; per-table bytes plus the
// bytes runtime join filters pruned are the static bytes.
TEST(MetricsExecTest, ExecCountersMatchQueryResult) {
  const Catalog& catalog = SharedTpcds();
  const tpcds::TpcdsQuery& query = tpcds::Queries().front();
  PlanContext ctx;
  PlanPtr plan = Unwrap(query.build(catalog, &ctx));
  PlanPtr optimized =
      Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
  MetricsRegistry registry;
  QueryResult result =
      Unwrap(ExecutePlan(optimized, {.metrics = &registry}));
  MetricsSnapshot snap = registry.Snapshot();

  EXPECT_EQ(snap.Counter("fusiondb_exec_queries_total"), 1);
  EXPECT_EQ(snap.Counter("fusiondb_exec_bytes_scanned_total"),
            result.metrics().bytes_scanned);
  EXPECT_EQ(snap.Counter("fusiondb_exec_rows_scanned_total"),
            result.metrics().rows_scanned);
  EXPECT_EQ(snap.Counter("fusiondb_exec_rows_produced_total"),
            result.num_rows());

  int64_t per_table = 0;
  for (const auto& c : snap.counters) {
    if (c.first.rfind("fusiondb_exec_table_bytes_scanned_total{", 0) == 0) {
      per_table += c.second;
    }
  }
  EXPECT_EQ(per_table, result.metrics().bytes_scanned);
  EXPECT_EQ(snap.Counter("fusiondb_exec_runtime_pruned_bytes_total"),
            result.metrics().runtime_pruned_bytes);
  EXPECT_EQ(snap.Counter("fusiondb_exec_runtime_pruned_partitions_total"),
            result.metrics().runtime_pruned_partitions);
  EXPECT_GT(result.metrics().runtime_pruned_bytes, 0)
      << "test premise: a date_dim join prunes store_sales partitions";
  EXPECT_EQ(per_table +
                snap.Counter("fusiondb_exec_runtime_pruned_bytes_total"),
            result.metrics().StaticBytes());

  const HistogramSnapshot* wall =
      snap.Histogram("fusiondb_exec_query_wall_us");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 1);
}

// Every Optimize call with a registry on its context records one
// optimize-time observation next to the rule counters.
TEST(MetricsOptimizerTest, OptimizeRecordsWallTimeHistogram) {
  const Catalog& catalog = SharedTpcds();
  const tpcds::TpcdsQuery& query = tpcds::Queries().front();
  MetricsRegistry registry;
  for (int i = 0; i < 2; ++i) {
    PlanContext ctx;
    ctx.set_metrics(&registry);
    PlanPtr plan = Unwrap(query.build(catalog, &ctx));
    Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
  }
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter("fusiondb_optimizer_runs_total"), 2);
  EXPECT_GT(snap.Counter("fusiondb_optimizer_rule_firings_total"), 0);
  const HistogramSnapshot* optimize =
      snap.Histogram("fusiondb_optimizer_optimize_us");
  ASSERT_NE(optimize, nullptr);
  EXPECT_EQ(optimize->count, 2);
  EXPECT_GE(optimize->min, 0);
  EXPECT_GE(optimize->max, optimize->min);
  // Exported under the same name on the Prometheus surface.
  EXPECT_NE(MetricsToPrometheus(snap).find("fusiondb_optimizer_optimize_us"),
            std::string::npos);
}

// Parallel execution records the same totals as serial — the per-table
// attribution is summed once on the driver from the merged shards.
TEST(MetricsExecTest, ExecCountersThreadCountInvariant) {
  const Catalog& catalog = SharedTpcds();
  const tpcds::TpcdsQuery& query = tpcds::Queries().front();
  PlanContext ctx;
  PlanPtr plan = Unwrap(query.build(catalog, &ctx));
  PlanPtr optimized =
      Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));

  auto run = [&](size_t parallelism) {
    MetricsRegistry registry;
    Unwrap(ExecutePlan(
        optimized, {.parallelism = parallelism, .metrics = &registry}));
    return registry.Snapshot();
  };
  MetricsSnapshot serial = run(1);
  MetricsSnapshot parallel = run(4);
  for (const auto& c : serial.counters) {
    EXPECT_EQ(parallel.Counter(c.first), c.second) << c.first;
  }
}

}  // namespace
}  // namespace fusiondb
