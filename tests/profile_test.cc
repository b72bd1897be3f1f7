// The query profiling layer: per-operator runtime stats (preorder ids,
// row/chunk counters, memory attribution, spool hits), thread-count
// invariance of the counters, the optimizer/fusion trace, and the
// EXPLAIN ANALYZE / JSON export surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_writer.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::SharedTpcds;
using testutil::Unwrap;

PlanPtr OptimizedQuery(const std::string& name, const OptimizerOptions& opts,
                       PlanContext* ctx, const Catalog& catalog) {
  tpcds::TpcdsQuery query = Unwrap(tpcds::QueryByName(name));
  PlanPtr plan = Unwrap(query.build(catalog, ctx));
  return Unwrap(Optimizer(opts).Optimize(plan, ctx));
}

// --- Per-operator stats ----------------------------------------------------

TEST(OperatorStatsTest, PreorderIdsMatchPlanAndRootRowsMatchResult) {
  const Catalog& catalog = SharedTpcds();
  const std::pair<const char*, OptimizerOptions> modes[] = {
      {"baseline", OptimizerOptions::Baseline()},
      {"fused", OptimizerOptions::Fused()},
      {"spooling", OptimizerOptions::Spooling()},
  };
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    for (const auto& [mode, options] : modes) {
      SCOPED_TRACE(q.name + " / " + mode);
      PlanContext ctx;
      PlanPtr plan = Unwrap(q.build(catalog, &ctx));
      PlanPtr optimized = Unwrap(Optimizer(options).Optimize(plan, &ctx));
      QueryResult result = MustExecute(optimized);
      const std::vector<OperatorStats>& stats = result.operator_stats();
      ASSERT_EQ(static_cast<int>(stats.size()), CountAllOps(optimized));
      for (size_t i = 0; i < stats.size(); ++i) {
        EXPECT_EQ(stats[i].id, static_cast<int32_t>(i));
        if (i == 0) {
          EXPECT_EQ(stats[i].parent, -1);
        } else {
          EXPECT_GE(stats[i].parent, 0);
          EXPECT_LT(stats[i].parent, stats[i].id);
        }
        EXPECT_FALSE(stats[i].kind.empty());
      }
      // The root's row count is the query's result cardinality.
      EXPECT_EQ(stats[0].rows_out, static_cast<int64_t>(result.num_rows()));
      // next_ns is cumulative, so the root bounds every operator; self time
      // never exceeds cumulative time.
      int64_t self_total = 0;
      for (const OperatorStats& s : stats) {
        EXPECT_LE(s.next_ns, stats[0].next_ns + 1);
        EXPECT_LE(s.self_ns, s.next_ns);
        EXPECT_GE(s.self_ns, 0);
        self_total += s.self_ns;
      }
      // Self times partition the root's time: no operator's time is
      // counted twice (1 us of clock slack per operator).
      EXPECT_LE(self_total, stats[0].next_ns +
                                static_cast<int64_t>(stats.size()) * 1000);
    }
  }
}

TEST(OperatorStatsTest, BlockingOperatorsReportPeakMemory) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanPtr fused =
      OptimizedQuery("q65", OptimizerOptions::Fused(), &ctx, catalog);
  QueryResult result = MustExecute(fused);
  bool saw_memory = false;
  for (const OperatorStats& s : result.operator_stats()) {
    if (s.kind == "Aggregate" || s.kind == "Join" || s.kind == "Window") {
      saw_memory |= s.peak_memory_bytes > 0;
    } else if (s.kind == "Scan" || s.kind == "Filter" || s.kind == "Project") {
      // Streaming operators hold no accounted hash memory.
      EXPECT_EQ(s.peak_memory_bytes, 0) << s.kind;
    }
  }
  EXPECT_TRUE(saw_memory);
}

TEST(OperatorStatsTest, ProfilingCanBeDisabled) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanPtr fused =
      OptimizedQuery("q65", OptimizerOptions::Fused(), &ctx, catalog);
  QueryResult result =
      Unwrap(ExecutePlan(fused, {.profile = false}));
  EXPECT_TRUE(result.operator_stats().empty());
  EXPECT_GT(result.num_rows(), 0u);
}

TEST(OperatorStatsTest, SpoolHitsCountReusingConsumers) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanPtr spooled =
      OptimizedQuery("q65", OptimizerOptions::Spooling(), &ctx, catalog);
  ASSERT_GT(CountOps(spooled, OpKind::kSpool), 1);
  QueryResult result = MustExecute(spooled);
  int64_t hits = 0;
  for (const OperatorStats& s : result.operator_stats()) {
    hits += s.spool_hits;
  }
  // Q65's shared subquery has two consumers: one materializes, the other
  // reads the already-built buffer (a spool hit).
  EXPECT_GE(hits, 1);
}

// Per-operator counters must not depend on the worker count: morsel
// parallelism deals identical chunks to workers and merges on the driver.
// Runs under `ctest -L parallel` (and the TSan configuration).
TEST(OperatorStatsTest, CountersInvariantUnderParallelism) {
  const Catalog& catalog = SharedTpcds();
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (!q.fusion_applicable) continue;
    PlanContext ctx;
    PlanPtr plan = Unwrap(q.build(catalog, &ctx));
    PlanPtr fused =
        Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
    QueryResult serial = Unwrap(ExecutePlan(fused));
    QueryResult parallel = Unwrap(ExecutePlan(fused, {.parallelism = 4}));
    const std::vector<OperatorStats>& a = serial.operator_stats();
    const std::vector<OperatorStats>& b = parallel.operator_stats();
    ASSERT_EQ(a.size(), b.size()) << q.name;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << q.name;
      EXPECT_EQ(a[i].kind, b[i].kind) << q.name;
      EXPECT_EQ(a[i].next_calls, b[i].next_calls) << q.name << " op " << i;
      EXPECT_EQ(a[i].chunks_out, b[i].chunks_out) << q.name << " op " << i;
      EXPECT_EQ(a[i].rows_out, b[i].rows_out) << q.name << " op " << i;
      EXPECT_EQ(a[i].rows_in, b[i].rows_in) << q.name << " op " << i;
      EXPECT_EQ(a[i].peak_memory_bytes, b[i].peak_memory_bytes)
          << q.name << " op " << i;
      EXPECT_EQ(a[i].spool_hits, b[i].spool_hits) << q.name << " op " << i;
    }
  }
}

// --- Optimizer / fusion trace ----------------------------------------------

TEST(OptimizerTraceTest, RecordsGroupByJoinToWindowFiringOnQ65) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  tpcds::TpcdsQuery query = Unwrap(tpcds::QueryByName("q65"));
  PlanPtr plan = Unwrap(query.build(catalog, &ctx));
  OptimizerTrace trace;
  ctx.set_trace(&trace);
  PlanPtr fused =
      Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
  ctx.set_trace(nullptr);
  ASSERT_GT(fused->num_children(), 0u);

  bool fired = false;
  for (const RuleFiring& f : trace.firings()) {
    if (f.rule == "GroupByJoinToWindow") {
      fired = true;
      EXPECT_EQ(f.phase, "fuse");
      EXPECT_FALSE(f.anchor.empty());
      // The rewrite collapses the duplicated aggregate subtree.
      EXPECT_LT(f.ops_after, f.ops_before);
    }
  }
  EXPECT_TRUE(fired);

  // The rule table counts both attempts and the firing.
  bool counted = false;
  for (const RulePhaseStats& s : trace.rule_stats()) {
    if (s.rule == "GroupByJoinToWindow") {
      counted = true;
      EXPECT_GE(s.attempts, s.fired);
      EXPECT_GE(s.fired, 1);
    }
  }
  EXPECT_TRUE(counted);

  // Every phase that ran has one wall-time entry, in execution order.
  std::vector<std::string> phases;
  for (const PhaseTime& t : trace.phase_times()) {
    phases.push_back(t.phase);
    EXPECT_GE(t.wall_us, 0) << t.phase;
  }
  ASSERT_GE(phases.size(), 3u);
  EXPECT_EQ(phases.front(), "normalize");
  EXPECT_NE(std::find(phases.begin(), phases.end(), "fuse"), phases.end());
  EXPECT_NE(trace.ToString().find("phases (wall time):"), std::string::npos);

  // The fusion recursion bottoms out at the shared store_sales scans.
  bool scan_fused = false;
  for (const FusionStep& s : trace.fusion_steps()) {
    if (s.left == "Scan" && s.right == "Scan" && s.fused) scan_fused = true;
  }
  EXPECT_TRUE(scan_fused);
}

TEST(OptimizerTraceTest, RecordsRejectReasonForNonFusablePair) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  TablePtr ss = Unwrap(catalog.GetTable("store_sales"));
  TablePtr item = Unwrap(catalog.GetTable("item"));
  PlanPtr s1 = ScanOp::Make(&ctx, ss, {"ss_item_sk"});
  PlanPtr s2 = ScanOp::Make(&ctx, item, {"i_item_sk"});
  OptimizerTrace trace;
  ctx.set_trace(&trace);
  Fuser fuser(&ctx);
  auto fused = fuser.Fuse(s1, s2);
  ctx.set_trace(nullptr);
  EXPECT_FALSE(fused.has_value());
  ASSERT_EQ(trace.fusion_steps().size(), 1u);
  const FusionStep& step = trace.fusion_steps()[0];
  EXPECT_FALSE(step.fused);
  EXPECT_EQ(step.outcome, "scans read different tables");
}

TEST(OptimizerTraceTest, TracingDoesNotChangeThePlan) {
  const Catalog& catalog = SharedTpcds();
  for (const char* name : {"q09", "q65", "q95"}) {
    PlanContext ctx1;
    PlanPtr untraced =
        OptimizedQuery(name, OptimizerOptions::Fused(), &ctx1, catalog);
    PlanContext ctx2;
    OptimizerTrace trace;
    ctx2.set_trace(&trace);
    PlanPtr traced =
        OptimizedQuery(name, OptimizerOptions::Fused(), &ctx2, catalog);
    ctx2.set_trace(nullptr);
    EXPECT_EQ(PlanToString(untraced), PlanToString(traced)) << name;
  }
}

// --- Export surfaces -------------------------------------------------------

TEST(ProfileExportTest, ExplainAnalyzeAnnotatesEveryOperator) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanPtr fused =
      OptimizedQuery("q65", OptimizerOptions::Fused(), &ctx, catalog);
  QueryResult result = MustExecute(fused);
  std::string text = ExplainAnalyze(fused, result);
  // One "[#id rows=..." annotation per operator. Column lists in the plan
  // text also contain "[#", so require the digits-then-" rows=" shape.
  size_t annotations = 0;
  for (size_t pos = text.find("[#"); pos != std::string::npos;
       pos = text.find("[#", pos + 1)) {
    size_t d = pos + 2;
    while (d < text.size() && text[d] >= '0' && text[d] <= '9') ++d;
    if (d > pos + 2 && text.compare(d, 6, " rows=") == 0) ++annotations;
  }
  EXPECT_EQ(annotations, result.operator_stats().size());
  EXPECT_NE(text.find("rows="), std::string::npos);
  // q65's date_dim join prunes store_sales partitions at run time; the
  // scan's annotation splits static from runtime pruning.
  ASSERT_GT(result.metrics().runtime_pruned_partitions, 0);
  EXPECT_NE(text.find(" pruned_static=0 pruned_runtime="), std::string::npos)
      << text;
  // Without stats it degrades to the plain plan.
  QueryResult unprofiled = Unwrap(ExecutePlan(fused, {.profile = false}));
  EXPECT_EQ(ExplainAnalyze(fused, unprofiled), PlanToString(fused));
}

TEST(ProfileExportTest, JsonProfileCarriesTreeMetricsAndTrace) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  tpcds::TpcdsQuery query = Unwrap(tpcds::QueryByName("q65"));
  PlanPtr plan = Unwrap(query.build(catalog, &ctx));
  OptimizerTrace trace;
  ctx.set_trace(&trace);
  PlanPtr fused =
      Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
  ctx.set_trace(nullptr);
  QueryResult result = MustExecute(fused);

  QueryProfile profile =
      MakeQueryProfile("q65", "fused", fused, result, &trace);
  std::string json = ProfileToJson(profile);
  for (const char* needle :
       {"\"query\":\"q65\"", "\"config\":\"fused\"", "\"wall_ms\":",
        "\"metrics\":", "\"bytes_scanned\":", "\"plan\":", "\"rows_out\":",
        "\"runtime_pruned_partitions\":", "\"runtime_pruned_bytes\":",
        "\"trace\":", "GroupByJoinToWindow", "\"fusion\":",
        "\"phases\":[{\"phase\":\"normalize\",\"wall_us\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  // Round-trips through the file writer.
  std::string path = ::testing::TempDir() + "fusiondb_profile_test.json";
  FUSIONDB_EXPECT_OK(WriteProfileJson(profile, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(ProfileExportTest, JsonWriterEscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.Field("text", "a\"b\\c\nd");
  w.Key("arr");
  w.BeginArray();
  w.Int(1);
  w.Double(2.5);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"text\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,2.5,true,null]}");
}

}  // namespace
}  // namespace fusiondb
