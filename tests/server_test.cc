// Cross-query fusion server (src/server), driven through the
// fusiondb::Engine front door: N concurrent sessions over the engine's
// server must return exactly what N isolated engine runs would — same
// schema ids/names/types, same rows in the same order — while fused groups
// scan strictly fewer bytes than their members would in isolation, and a
// fold that would read more runs its members solo.
//
// Batch composition is probed deterministically via SubmitBatch on the
// SessionManager that StartServer returns; the admission-window path is
// exercised through Engine::Submit in the concurrency test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

/// The isolated reference: the same query prepared, optimized and executed
/// on its own, exactly as a standalone client would.
QueryResult IsolatedRun(Engine* engine, const Engine::PlanBuilder& build,
                        const OptimizerOptions& optimizer) {
  PreparedQuery query = Unwrap(engine->Prepare(build));
  QueryOptions options;
  options.optimizer = optimizer;
  PlanPtr optimized = Unwrap(engine->Optimize(&query, options));
  return Unwrap(engine->ExecuteOptimized(optimized, options));
}

/// Every session of a batch read exactly the static scan bytes of the plan
/// it executed (the fused plan when shared): the figure the share-vs-solo
/// verdict compares is what a run reads.
void ExpectScanBytesPinned(const std::vector<SessionPtr>& sessions) {
  for (const SessionPtr& s : sessions) {
    ASSERT_TRUE(s->Wait().ok()) << s->Wait().status().ToString();
    EXPECT_EQ(ScanBytes(s->executed_plan()),
              s->Wait()->metrics().StaticBytes());
  }
}

/// Byte-identical: schema (ids, names, types) and rows, order-sensitive.
void ExpectIdentical(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.schema().num_columns(), want.schema().num_columns());
  for (size_t i = 0; i < want.schema().num_columns(); ++i) {
    EXPECT_EQ(got.schema().column(i).id, want.schema().column(i).id);
    EXPECT_EQ(got.schema().column(i).name, want.schema().column(i).name);
    EXPECT_EQ(got.schema().column(i).type, want.schema().column(i).type);
  }
  EXPECT_EQ(got.num_rows(), want.num_rows());
  EXPECT_TRUE(ResultsEqualOrdered(got, want));
}

const std::vector<const tpcds::TpcdsQuery*>& FusionQueries() {
  static auto& queries = *new std::vector<const tpcds::TpcdsQuery*>([] {
    std::vector<const tpcds::TpcdsQuery*> out;
    for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
      if (q.fusion_applicable) out.push_back(&q);
    }
    return out;
  }());
  return queries;
}

OptimizerOptions ModeOptions(const std::string& mode) {
  if (mode == "baseline") return OptimizerOptions::Baseline();
  if (mode == "spooling") return OptimizerOptions::Spooling();
  return OptimizerOptions::Fused();
}

/// Prepares kClients copies of the query (each with its own column-id
/// space, as independent clients would) and returns their plans; the
/// PreparedQuery objects stay alive in `out`.
std::vector<PlanPtr> PreparePlans(Engine* engine,
                                  const Engine::PlanBuilder& build, int clients,
                                  std::vector<PreparedQuery>* out) {
  std::vector<PlanPtr> plans;
  for (int i = 0; i < clients; ++i) {
    out->push_back(Unwrap(engine->Prepare(build)));
    plans.push_back(out->back().plan());
  }
  return plans;
}

// N identical queries through the server == N isolated runs, under every
// optimizer mode. Cross-query sharing composes with — never alters — the
// within-plan optimization the mode selects.
TEST(ServerTest, ByteIdenticalToIsolatedAcrossModes) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  constexpr int kClients = 4;
  for (const std::string mode : {"baseline", "fused", "spooling"}) {
    SCOPED_TRACE(mode);
    ServerOptions options;
    options.optimizer = ModeOptions(mode);
    SessionManager& manager = *Unwrap(engine.StartServer(options));

    std::vector<PreparedQuery> prepared;
    std::vector<SessionPtr> sessions = manager.SubmitBatch(
        PreparePlans(&engine, query.build, kClients, &prepared));
    for (int i = 0; i < kClients; ++i) {
      SCOPED_TRACE(i);
      ASSERT_TRUE(sessions[static_cast<size_t>(i)]->Wait().ok())
          << sessions[static_cast<size_t>(i)]->Wait().status().ToString();
      // Fresh prepare per reference run: the isolated client never saw the
      // server's renumbered id space.
      QueryResult isolated =
          IsolatedRun(&engine, query.build, options.optimizer);
      ExpectIdentical(*sessions[static_cast<size_t>(i)]->Wait(), isolated);
    }
    ExpectScanBytesPinned(sessions);
    engine.StopServer();
  }
}

// Results do not depend on how many sessions share the batch.
TEST(ServerTest, SessionCountInvariance) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  QueryResult isolated =
      IsolatedRun(&engine, query.build, OptimizerOptions::Fused());
  for (int n : {1, 2, 5, 8}) {
    SCOPED_TRACE(n);
    SessionManager& manager = *Unwrap(engine.StartServer());
    std::vector<PreparedQuery> prepared;
    std::vector<SessionPtr> sessions =
        manager.SubmitBatch(PreparePlans(&engine, query.build, n, &prepared));
    for (const SessionPtr& s : sessions) {
      ASSERT_TRUE(s->Wait().ok()) << s->Wait().status().ToString();
      ExpectIdentical(*s->Wait(), isolated);
      EXPECT_EQ(s->shared(), n >= 2);
    }
    ExpectScanBytesPinned(sessions);
    engine.StopServer();
  }
}

// The headline property: >= 2 identical concurrent queries pay one scan.
TEST(ServerTest, SharedGroupScansFewerBytesThanIsolated) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  constexpr int kClients = 4;
  SessionManager& manager = *Unwrap(engine.StartServer());
  std::vector<PreparedQuery> prepared;
  std::vector<SessionPtr> sessions = manager.SubmitBatch(
      PreparePlans(&engine, query.build, kClients, &prepared));
  for (const SessionPtr& s : sessions) ASSERT_TRUE(s->Wait().ok());

  BatchReport report = manager.last_batch_report();
  EXPECT_EQ(report.sessions, static_cast<size_t>(kClients));
  EXPECT_EQ(report.shared_groups, 1u);
  EXPECT_EQ(report.shared_sessions, static_cast<size_t>(kClients));
  EXPECT_EQ(report.solo_sessions, 0u);
  // One shared scan vs kClients isolated runs, each kind of bytes against
  // its own kind: billed against the isolated runs' billed bytes, static
  // against their static bytes. A session's isolated static bytes are its
  // own plan's: what the isolated run reads before runtime join filters.
  QueryResult isolated =
      IsolatedRun(&engine, query.build, OptimizerOptions::Fused());
  EXPECT_GT(report.bytes_scanned, 0);
  EXPECT_LT(report.bytes_scanned,
            kClients * isolated.metrics().bytes_scanned);
  EXPECT_EQ(report.isolated_static_bytes,
            kClients * isolated.metrics().StaticBytes());
  EXPECT_EQ(report.static_bytes, ScanBytes(sessions[0]->executed_plan()));
  EXPECT_LT(report.static_bytes, report.isolated_static_bytes);
  ExpectScanBytesPinned(sessions);

  // Per-session attribution splits the shared scan.
  ASSERT_EQ(report.attributions.size(), static_cast<size_t>(kClients));
  int64_t attributed = 0;
  for (const SessionAttribution& a : report.attributions) {
    EXPECT_EQ(a.consumers, kClients);
    attributed += a.attributed_bytes_scanned;
  }
  EXPECT_EQ(attributed, report.bytes_scanned);

  // The share-vs-solo pricing was recorded as a decision.
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_TRUE(report.decisions[0].shared);
  EXPECT_EQ(report.decisions[0].consumers, kClients);

  // Session-level sharing attribution matches, and the profile carries it.
  for (const SessionPtr& s : sessions) {
    EXPECT_TRUE(s->shared());
    EXPECT_EQ(s->sharing().consumers, kClients);
    EXPECT_EQ(s->sharing().shared_bytes_scanned, report.bytes_scanned);
    EXPECT_EQ(s->sharing().isolated_static_bytes,
              isolated.metrics().StaticBytes());
    EXPECT_GE(s->sharing().isolated_static_bytes,
              isolated.metrics().bytes_scanned);
  }
  QueryProfile profile =
      MakeSessionProfile(*sessions[0], query.name, "server-fused");
  std::string json = ProfileToJson(profile);
  EXPECT_NE(json.find("\"sharing\""), std::string::npos);
  EXPECT_NE(json.find("\"consumers\":4"), std::string::npos);
  EXPECT_NE(json.find("\"isolated_static_bytes\":" +
                      std::to_string(isolated.metrics().StaticBytes())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"plan_us\":" +
                      std::to_string(sessions[0]->plan_us())),
            std::string::npos)
      << json;
  engine.StopServer();
}

// An admission batch of one cannot share: window/batch boundaries isolate.
TEST(ServerTest, BatchOfOneNeverShares) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  ServerOptions options;
  options.window.max_batch = 1;  // window of 1: every query its own batch
  SessionManager& manager = *Unwrap(engine.StartServer(options));
  constexpr int kClients = 3;
  std::vector<PreparedQuery> prepared;
  std::vector<SessionPtr> sessions = manager.SubmitBatch(
      PreparePlans(&engine, query.build, kClients, &prepared));
  int64_t solo_bytes = 0;
  int64_t solo_static = 0;
  for (const SessionPtr& s : sessions) {
    ASSERT_TRUE(s->Wait().ok());
    EXPECT_FALSE(s->shared());
    EXPECT_EQ(s->sharing().consumers, 1);
    solo_bytes += s->sharing().shared_bytes_scanned;
    solo_static += ScanBytes(s->executed_plan());
  }
  // No sharing: billed bytes == sum of per-session billed bytes, and the
  // static bytes executed == the sessions' own static bytes.
  EXPECT_EQ(manager.total_bytes_scanned(), solo_bytes);
  EXPECT_EQ(manager.total_static_bytes(), solo_static);
  EXPECT_EQ(manager.total_isolated_static_bytes(), solo_static);
  EXPECT_EQ(manager.total_shared_sessions(), 0);
  engine.StopServer();
}

// Overlapping-but-different queries: same scan, different filters. Fuse
// widens to the disjunction and each session's compensating filter
// restores exactly its own rows.
TEST(ServerTest, DifferentFiltersShareOneScan) {
  Engine engine(SharedTpcds());

  auto make_build = [](int64_t lo, int64_t hi) -> Engine::PlanBuilder {
    return [lo, hi](const Catalog& catalog,
                    PlanContext* ctx) -> Result<PlanPtr> {
      TablePtr store_sales = Unwrap(catalog.GetTable("store_sales"));
      PlanBuilder b = PlanBuilder::Scan(
          ctx, store_sales, {"ss_item_sk", "ss_quantity", "ss_sales_price"});
      b.Filter(eb::And({eb::Ge(b.Ref("ss_quantity"), eb::Int(lo)),
                        eb::Lt(b.Ref("ss_quantity"), eb::Int(hi))}));
      return b.Build();
    };
  };

  PreparedQuery q1 = Unwrap(engine.Prepare(make_build(0, 50)));
  PreparedQuery q2 = Unwrap(engine.Prepare(make_build(25, 80)));
  SessionManager& manager = *Unwrap(engine.StartServer());
  std::vector<SessionPtr> sessions =
      manager.SubmitBatch({q1.plan(), q2.plan()});
  for (const SessionPtr& s : sessions) ASSERT_TRUE(s->Wait().ok());

  QueryResult isolated1 =
      IsolatedRun(&engine, make_build(0, 50), OptimizerOptions::Fused());
  QueryResult isolated2 =
      IsolatedRun(&engine, make_build(25, 80), OptimizerOptions::Fused());
  ExpectIdentical(*sessions[0]->Wait(), isolated1);
  ExpectIdentical(*sessions[1]->Wait(), isolated2);
  // Both were served from one fused scan, cheaper than the two solo runs.
  EXPECT_TRUE(sessions[0]->shared());
  EXPECT_TRUE(sessions[1]->shared());
  EXPECT_LT(manager.total_bytes_scanned(),
            isolated1.metrics().bytes_scanned +
                isolated2.metrics().bytes_scanned);
  ExpectScanBytesPinned(sessions);
  engine.StopServer();
}

// Two different aggregates over one date window of the partitioned fact
// table. The fold keeps the shared window as the Filter directly on the
// fused scan, which prunes by it, so one shared run reads less than the two
// solo runs together and both sessions share it.
TEST(ServerTest, EqualPartitionWindowsShareAndPrune) {
  Engine engine(SharedTpcds());
  const std::string where =
      " FROM store_sales WHERE ss_sold_date_sk BETWEEN 2451000 AND 2451060";
  const std::string sql[] = {
      "SELECT SUM(ss_net_profit) AS profit" + where,
      "SELECT COUNT(*) AS n, SUM(ss_quantity) AS quantity" + where};
  PreparedQuery q1 = Unwrap(engine.Prepare(sql[0]));
  PreparedQuery q2 = Unwrap(engine.Prepare(sql[1]));
  SessionManager& manager = *Unwrap(engine.StartServer());
  std::vector<SessionPtr> sessions =
      manager.SubmitBatch({q1.plan(), q2.plan()});
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(sessions[i]->Wait().ok());
    EXPECT_TRUE(sessions[i]->shared());
    PreparedQuery solo = Unwrap(engine.Prepare(sql[i]));
    ExpectIdentical(*sessions[i]->Wait(), Unwrap(engine.Execute(&solo)));
  }
  BatchReport report = manager.last_batch_report();
  EXPECT_EQ(report.shared_groups, 1u);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_TRUE(report.decisions[0].shared);
  EXPECT_LT(report.decisions[0].shared_bytes, report.decisions[0].solo_bytes);
  ExpectScanBytesPinned(sessions);
  engine.StopServer();
}

/// A quantity-filtered sum over one `ss_sold_date_sk` window of the
/// partitioned fact table.
std::string DateWindowSql(int lo, int hi) {
  return "SELECT SUM(ss_list_price) AS total FROM store_sales "
         "WHERE ss_quantity > 10 AND ss_sold_date_sk BETWEEN " +
         std::to_string(lo) + " AND " + std::to_string(hi);
}

// Two overlapping date windows over one table. The fold puts an OR of the
// windows, each conjoined with the quantity test, in the Filter directly
// above the fused scan, which prunes to the hull of the windows: here their
// union. One shared run reads less than the two solo runs together, and
// both sessions share it.
TEST(ServerTest, OverlappingDateWindowsShareAndPruneToTheirHull) {
  Engine engine(SharedTpcds());
  const std::string sql[] = {DateWindowSql(2451000, 2451060),
                             DateWindowSql(2451030, 2451090)};
  PreparedQuery q1 = Unwrap(engine.Prepare(sql[0]));
  PreparedQuery q2 = Unwrap(engine.Prepare(sql[1]));
  SessionManager& manager = *Unwrap(engine.StartServer());
  std::vector<SessionPtr> sessions =
      manager.SubmitBatch({q1.plan(), q2.plan()});
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(sessions[i]->Wait().ok());
    EXPECT_TRUE(sessions[i]->shared());
    PreparedQuery solo = Unwrap(engine.Prepare(sql[i]));
    ExpectIdentical(*sessions[i]->Wait(), Unwrap(engine.Execute(&solo)));
  }
  BatchReport report = manager.last_batch_report();
  EXPECT_EQ(report.shared_groups, 1u);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_TRUE(report.decisions[0].shared);
  EXPECT_LT(report.decisions[0].shared_bytes, report.decisions[0].solo_bytes);
  ExpectScanBytesPinned(sessions);
  engine.StopServer();
}

// Two disjoint date windows over one table. The fold puts an OR of the two
// windows in the Filter directly above the fused scan, which prunes to
// their hull: every partition between the windows too. One shared run
// would read more than the two solo runs together, and the group must run
// its members solo.
TEST(ServerTest, DisjointDateWindowsRunSolo) {
  Engine engine(SharedTpcds());
  const std::string sql[] = {DateWindowSql(2451000, 2451060),
                             DateWindowSql(2451500, 2451560)};
  PreparedQuery q1 = Unwrap(engine.Prepare(sql[0]));
  PreparedQuery q2 = Unwrap(engine.Prepare(sql[1]));
  SessionManager& manager = *Unwrap(engine.StartServer());
  std::vector<SessionPtr> sessions =
      manager.SubmitBatch({q1.plan(), q2.plan()});
  int64_t solo_bytes = 0;
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(sessions[i]->Wait().ok());
    EXPECT_FALSE(sessions[i]->shared());
    PreparedQuery solo = Unwrap(engine.Prepare(sql[i]));
    QueryResult isolated = Unwrap(engine.Execute(&solo));
    ExpectIdentical(*sessions[i]->Wait(), isolated);
    solo_bytes += isolated.metrics().bytes_scanned;
  }
  BatchReport report = manager.last_batch_report();
  EXPECT_EQ(report.shared_groups, 0u);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_FALSE(report.decisions[0].shared);
  EXPECT_GE(report.decisions[0].shared_bytes, report.decisions[0].solo_bytes);
  EXPECT_LE(report.bytes_scanned, solo_bytes);
  ExpectScanBytesPinned(sessions);
  engine.StopServer();
}

// Filters whose literals agree to 6 significant digits are different
// queries. The identical-member overlay must not treat them as one and hand
// the second session the first session's rows. It must still recognize
// identical plans whatever their root: a Window-rooted pair, which Fuse has
// no rule for, whose AND operands are written in different orders shares
// one execution.
TEST(ServerTest, NearEqualDoubleLiteralsAreNotOverlaid) {
  TableBuilder tb("prices", {{"price", DataType::kFloat64}});
  for (double v : {0.5, 1.00000005, 1.5, 2.5}) {
    ASSERT_TRUE(tb.AppendRow({Value::Float64(v)}).ok());
  }
  Catalog catalog;
  FUSIONDB_ASSERT_OK(catalog.RegisterTable(Unwrap(tb.Build())));
  Engine engine(std::move(catalog));

  auto above = [](double threshold) -> Engine::PlanBuilder {
    return [threshold](const Catalog& c, PlanContext* ctx) -> Result<PlanPtr> {
      PlanBuilder b =
          PlanBuilder::Scan(ctx, Unwrap(c.GetTable("prices")), {"price"});
      b.Filter(eb::Gt(b.Ref("price"), eb::Dbl(threshold)));
      return b.Build();
    };
  };
  auto window = [](bool low_first) -> Engine::PlanBuilder {
    return [low_first](const Catalog& c, PlanContext* ctx) -> Result<PlanPtr> {
      PlanBuilder b =
          PlanBuilder::Scan(ctx, Unwrap(c.GetTable("prices")), {"price"});
      ExprPtr low = eb::Gt(b.Ref("price"), eb::Dbl(0.7));
      ExprPtr high = eb::Lt(b.Ref("price"), eb::Dbl(2.0));
      b.Filter(low_first ? eb::And(low, high) : eb::And(high, low));
      b.Window({"price"}, {{"n", AggFunc::kCountStar, nullptr, nullptr, false}});
      return b.Build();
    };
  };
  PreparedQuery q1 = Unwrap(engine.Prepare(above(1.0)));
  PreparedQuery q2 = Unwrap(engine.Prepare(above(1.0000001)));
  PreparedQuery w1 = Unwrap(engine.Prepare(window(true)));
  PreparedQuery w2 = Unwrap(engine.Prepare(window(false)));
  SessionManager& manager = *Unwrap(engine.StartServer());
  std::vector<SessionPtr> sessions =
      manager.SubmitBatch({q1.plan(), q2.plan(), w1.plan(), w2.plan()});
  for (const SessionPtr& s : sessions) ASSERT_TRUE(s->Wait().ok());
  EXPECT_EQ(sessions[0]->Wait()->num_rows(), 3);
  EXPECT_EQ(sessions[1]->Wait()->num_rows(), 2);
  ExpectIdentical(*sessions[0]->Wait(),
                  IsolatedRun(&engine, above(1.0), OptimizerOptions::Fused()));
  ExpectIdentical(*sessions[1]->Wait(),
                  IsolatedRun(&engine, above(1.0000001),
                              OptimizerOptions::Fused()));
  EXPECT_EQ(sessions[2]->Wait()->num_rows(), 2);
  for (size_t i : {2, 3}) {
    EXPECT_TRUE(sessions[i]->shared());
    EXPECT_EQ(sessions[i]->sharing().consumers, 2);
    ExpectIdentical(*sessions[i]->Wait(),
                    IsolatedRun(&engine, window(i == 2),
                                OptimizerOptions::Fused()));
  }
  EXPECT_EQ(sessions[2]->sharing().group_fingerprint,
            sessions[3]->sharing().group_fingerprint);
  ExpectScanBytesPinned(sessions);
  engine.StopServer();
}

// Submitting before StartServer is an error; submitting after Stop() fails
// the session instead of hanging it.
TEST(ServerTest, SubmitAfterStopFails) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  PreparedQuery prepared = Unwrap(engine.Prepare(query.build));
  EXPECT_FALSE(engine.Submit(prepared).ok());  // no server running yet
  SessionManager& manager = *Unwrap(engine.StartServer());
  manager.Stop();
  SessionPtr session = Unwrap(engine.Submit(prepared));
  EXPECT_FALSE(session->Wait().ok());
  engine.StopServer();
}

// ExecuteSync is Submit + Wait through the same admission pipeline.
TEST(ServerTest, ExecuteSyncMatchesIsolated) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  PreparedQuery prepared = Unwrap(engine.Prepare(query.build));
  SessionManager& manager = *Unwrap(engine.StartServer());
  Result<QueryResult> result = manager.ExecuteSync(prepared.plan());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  QueryResult isolated =
      IsolatedRun(&engine, query.build, OptimizerOptions::Fused());
  ExpectIdentical(*result, isolated);
  engine.StopServer();
}

// Concurrent submission from many client threads through Engine::Submit
// (admission window path). Runs under ThreadSanitizer via the `parallel`
// ctest label; a generous window keeps the batch composition stable
// enough that at least some sessions share, but correctness must hold for
// every composition the scheduler produces.
TEST(ServerTest, ConcurrentSubmissionIsCorrect) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  QueryResult isolated =
      IsolatedRun(&engine, query.build, OptimizerOptions::Fused());

  ServerOptions options;
  options.window.window_ms = 100;  // hold the batch open for all clients
  SessionManager& manager = *Unwrap(engine.StartServer(options));
  constexpr int kThreads = 8;
  std::vector<SessionPtr> sessions(kThreads);
  {
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      clients.emplace_back([&, i] {
        PreparedQuery client_query = Unwrap(engine.Prepare(query.build));
        sessions[static_cast<size_t>(i)] =
            Unwrap(engine.Submit(client_query));
        sessions[static_cast<size_t>(i)]->Wait();
      });
    }
    for (std::thread& t : clients) t.join();
  }
  manager.Stop();  // drain before reading the totals
  EXPECT_EQ(manager.total_queries(), kThreads);
  engine.StopServer();
  for (const SessionPtr& s : sessions) {
    ASSERT_TRUE(s->Wait().ok()) << s->Wait().status().ToString();
    ExpectIdentical(*s->Wait(), isolated);
  }
}

// Cross-query decisions land in the caller-provided optimizer trace.
TEST(ServerTest, TraceRecordsCrossQueryDecisions) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  OptimizerTrace trace;
  ServerOptions options;
  options.trace = &trace;
  SessionManager& manager = *Unwrap(engine.StartServer(options));
  std::vector<PreparedQuery> prepared;
  ExpectScanBytesPinned(manager.SubmitBatch(
      PreparePlans(&engine, query.build, 2, &prepared)));
  ASSERT_EQ(trace.cost_decisions().size(), 1u);
  EXPECT_EQ(trace.cost_decisions()[0].consumers, 2);
  EXPECT_NE(trace.ToString().find("cost decisions (share vs solo)"),
            std::string::npos);
  engine.StopServer();
}

// SQL text submitted to the server: Prepare parses + binds against the
// engine's catalog; the session result matches the isolated SQL run.
TEST(ServerTest, SqlSessionMatchesIsolated) {
  Engine engine(SharedTpcds());
  const std::string sql =
      "SELECT ss_item_sk, SUM(ss_sales_price) AS total "
      "FROM store_sales WHERE ss_quantity > 10 "
      "GROUP BY ss_item_sk ORDER BY ss_item_sk LIMIT 50";
  PreparedQuery reference = Unwrap(engine.Prepare(sql));
  QueryResult isolated = Unwrap(engine.Execute(&reference));

  SessionManager& manager = *Unwrap(engine.StartServer());
  std::vector<PreparedQuery> clients;
  std::vector<PlanPtr> plans;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(Unwrap(engine.Prepare(sql)));
    plans.push_back(clients.back().plan());
  }
  std::vector<SessionPtr> sessions = manager.SubmitBatch(plans);
  for (const SessionPtr& s : sessions) {
    ASSERT_TRUE(s->Wait().ok()) << s->Wait().status().ToString();
    ASSERT_EQ(s->Wait()->num_rows(), isolated.num_rows());
    EXPECT_TRUE(ResultsEqualOrdered(*s->Wait(), isolated));
  }
  ExpectScanBytesPinned(sessions);
  engine.StopServer();
}

// The profile JSON is how decisions leave the process (run_query
// --profile): a shared batch's CostDecision appears in the trace's
// cost_decisions array with its fingerprint, verdict and the two static
// byte totals it compared.
TEST(ServerTest, CostDecisionsExportedInProfileJson) {
  Engine engine(SharedTpcds());
  const tpcds::TpcdsQuery& query = *FusionQueries().front();
  OptimizerTrace trace;
  ServerOptions options;
  options.trace = &trace;
  SessionManager& manager = *Unwrap(engine.StartServer(options));
  std::vector<PreparedQuery> prepared;
  std::vector<SessionPtr> sessions =
      manager.SubmitBatch(PreparePlans(&engine, query.build, 2, &prepared));
  for (const SessionPtr& s : sessions) ASSERT_TRUE(s->Wait().ok());
  engine.StopServer();
  ASSERT_EQ(trace.cost_decisions().size(), 1u);
  const CostDecision& d = trace.cost_decisions()[0];
  EXPECT_TRUE(d.shared);
  EXPECT_EQ(d.consumers, 2);
  ASSERT_TRUE(sessions[0]->shared());
  // Identical members: the fused plan is one member, read once.
  EXPECT_EQ(d.shared_bytes, ScanBytes(sessions[0]->executed_plan()));
  EXPECT_EQ(d.solo_bytes, 2 * d.shared_bytes);

  QueryProfile profile =
      MakeQueryProfile(query.name, "fused", sessions[0]->executed_plan(),
                       *sessions[0]->Wait(), &trace);
  std::string json = ProfileToJson(profile);
  EXPECT_NE(json.find("\"cost_decisions\":"), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\":\"" +
                      FingerprintToString(d.fingerprint) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"shared\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"solo_bytes\":" + std::to_string(d.solo_bytes)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shared_bytes\":" + std::to_string(d.shared_bytes)),
            std::string::npos)
      << json;
}

/// Two batch reports are identical: counts, byte totals, and every decision
/// and attribution, in order.
void ExpectSameReport(const BatchReport& got, const BatchReport& want) {
  EXPECT_EQ(got.sessions, want.sessions);
  EXPECT_EQ(got.shared_groups, want.shared_groups);
  EXPECT_EQ(got.shared_sessions, want.shared_sessions);
  EXPECT_EQ(got.solo_sessions, want.solo_sessions);
  EXPECT_EQ(got.bytes_scanned, want.bytes_scanned);
  EXPECT_EQ(got.static_bytes, want.static_bytes);
  EXPECT_EQ(got.isolated_static_bytes, want.isolated_static_bytes);
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (size_t i = 0; i < want.decisions.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.decisions[i].anchor, want.decisions[i].anchor);
    EXPECT_EQ(got.decisions[i].fingerprint, want.decisions[i].fingerprint);
    EXPECT_EQ(got.decisions[i].consumers, want.decisions[i].consumers);
    EXPECT_EQ(got.decisions[i].solo_bytes, want.decisions[i].solo_bytes);
    EXPECT_EQ(got.decisions[i].shared_bytes, want.decisions[i].shared_bytes);
    EXPECT_EQ(got.decisions[i].shared, want.decisions[i].shared);
  }
  ASSERT_EQ(got.attributions.size(), want.attributions.size());
  for (size_t i = 0; i < want.attributions.size(); ++i) {
    SCOPED_TRACE(i);
    const SessionAttribution& g = got.attributions[i];
    const SessionAttribution& w = want.attributions[i];
    EXPECT_EQ(g.session_id, w.session_id);
    EXPECT_EQ(g.group_fingerprint, w.group_fingerprint);
    EXPECT_EQ(g.consumers, w.consumers);
    EXPECT_EQ(g.attributed_bytes_scanned, w.attributed_bytes_scanned);
    EXPECT_EQ(g.rows, w.rows);
  }
}

// A batch's executions run concurrently on the server's pool. One group
// failing at execution (an int64 SUM that overflows) fails exactly its own
// sessions: every other session still gets its isolated result, and the
// report, the metrics counters and the query log account for the same
// sessions. The failing group comes first and is followed by more
// executions than a 4-core pool has workers, so a failure that stopped the
// pool claiming work would leave later sessions unfulfilled.
TEST(ServerTest, FailedGroupFailsOnlyItsOwnSessions) {
  TableBuilder nums("nums", {{"big", DataType::kInt64}});
  TableBuilder other("other",
                     {{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  for (int64_t i = 0; i < 3; ++i) {
    FUSIONDB_ASSERT_OK(nums.AppendRow({Value::Int64(int64_t{4} << 60)}));
  }
  for (int64_t i = 0; i < 40; ++i) {
    FUSIONDB_ASSERT_OK(
        other.AppendRow({Value::Int64(i % 7), Value::Int64(i)}));
  }
  Catalog catalog;
  FUSIONDB_ASSERT_OK(catalog.RegisterTable(Unwrap(nums.Build())));
  FUSIONDB_ASSERT_OK(catalog.RegisterTable(Unwrap(other.Build())));
  Engine engine(std::move(catalog));

  const std::string overflow = "SELECT SUM(big) AS s FROM nums";
  const std::vector<std::string> sql = {
      overflow,
      overflow,
      "SELECT k, v FROM other WHERE v > 10",
      "SELECT k, v FROM other WHERE v > 20",
      "SELECT k, SUM(v) AS s FROM other GROUP BY k ORDER BY k",
      "SELECT COUNT(*) AS c FROM other WHERE v < 30",
      "SELECT v FROM other ORDER BY v DESC LIMIT 5",
      "SELECT k, MAX(v) AS m FROM other GROUP BY k ORDER BY k LIMIT 3",
  };
  std::string log_path = testing::TempDir() + "server_test_failure.jsonl";
  std::remove(log_path.c_str());
  MetricsRegistry registry;
  std::unique_ptr<QueryLog> log = Unwrap(QueryLog::Open(log_path, 0));
  ServerOptions options;
  options.metrics = &registry;
  options.query_log = log.get();
  SessionManager& manager = *Unwrap(engine.StartServer(options));

  std::vector<PreparedQuery> prepared;
  std::vector<PlanPtr> plans;
  for (const std::string& text : sql) {
    prepared.push_back(Unwrap(engine.Prepare(text)));
    plans.push_back(prepared.back().plan());
  }
  std::vector<SessionPtr> sessions = manager.SubmitBatch(plans);
  BatchReport report = manager.last_batch_report();

  for (size_t i = 0; i < sessions.size(); ++i) {
    SCOPED_TRACE(sql[i]);
    ASSERT_TRUE(sessions[i]->done());
    if (sql[i] == overflow) {
      ASSERT_FALSE(sessions[i]->Wait().ok());
      EXPECT_NE(sessions[i]->Wait().status().message().find("overflow"),
                std::string::npos)
          << sessions[i]->Wait().status().ToString();
      continue;
    }
    ASSERT_TRUE(sessions[i]->Wait().ok())
        << sessions[i]->Wait().status().ToString();
    PreparedQuery solo = Unwrap(engine.Prepare(sql[i]));
    ExpectIdentical(*sessions[i]->Wait(), Unwrap(engine.Execute(&solo)));
  }

  // Reconcile: 8 sessions submitted, 2 failed, 6 served.
  constexpr int64_t kServed = 6;
  EXPECT_EQ(report.sessions, sql.size());
  EXPECT_EQ(report.shared_sessions + report.solo_sessions,
            static_cast<size_t>(kServed));
  EXPECT_GE(report.shared_groups, 1u);
  EXPECT_GE(report.solo_sessions, 1u);
  EXPECT_EQ(report.attributions.size(), static_cast<size_t>(kServed));
  int64_t attributed = 0;
  for (const SessionAttribution& a : report.attributions) {
    attributed += a.attributed_bytes_scanned;
  }
  EXPECT_EQ(attributed, report.bytes_scanned);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter("fusiondb_server_sessions_total"),
            static_cast<int64_t>(sql.size()));
  EXPECT_EQ(snap.Counter("fusiondb_server_shared_sessions_total"),
            static_cast<int64_t>(report.shared_sessions));
  EXPECT_EQ(snap.Counter("fusiondb_server_solo_sessions_total"),
            static_cast<int64_t>(report.solo_sessions));
  EXPECT_EQ(snap.Counter("fusiondb_server_bytes_scanned_total"),
            report.bytes_scanned);
  EXPECT_EQ(snap.Counter("fusiondb_server_static_bytes_total"),
            report.static_bytes);
  EXPECT_EQ(snap.Counter("fusiondb_server_isolated_static_bytes_total"),
            report.isolated_static_bytes);
  EXPECT_EQ(log->events(), kServed);
  std::ifstream in(log_path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), kServed);
  for (const SessionAttribution& a : report.attributions) {
    EXPECT_NE(contents.find("\"session_id\":" + std::to_string(a.session_id) +
                            ","),
              std::string::npos)
        << contents;
  }
  engine.StopServer();
  std::remove(log_path.c_str());
}

// Concurrency does not leak into what a batch reports: the same
// multi-group batch on two fresh servers gives identical reports —
// decisions and attributions in the same order — and with morsel-parallel
// executions nested inside the pool's (exec.parallelism 2 and 4) every
// session still equals its isolated run and the report is unchanged.
TEST(ServerTest, ConcurrentGroupsAreDeterministic) {
  Engine engine(SharedTpcds());
  std::vector<tpcds::TpcdsQuery> batch;
  for (const char* name :
       {"q01", "q09", "q01", "q65", "q09", "q88", "q65", "q03"}) {
    batch.push_back(Unwrap(tpcds::QueryByName(name)));
  }
  auto run = [&](size_t parallelism, std::vector<SessionPtr>* sessions) {
    ServerOptions options;
    options.exec.parallelism = parallelism;
    SessionManager& manager = *Unwrap(engine.StartServer(options));
    std::vector<PreparedQuery> prepared;
    std::vector<PlanPtr> plans;
    for (const tpcds::TpcdsQuery& q : batch) {
      prepared.push_back(Unwrap(engine.Prepare(q.build)));
      plans.push_back(prepared.back().plan());
    }
    *sessions = manager.SubmitBatch(plans);
    BatchReport report = manager.last_batch_report();
    engine.StopServer();
    return report;
  };

  std::vector<SessionPtr> first, second;
  BatchReport want = run(1, &first);
  ASSERT_EQ(want.attributions.size(), batch.size());
  EXPECT_EQ(want.shared_groups, 3u);  // q01, q09 and q65 pairs
  EXPECT_EQ(want.solo_sessions, 2u);  // q88 and q03
  ExpectSameReport(run(1, &second), want);

  for (size_t parallelism : {2, 4}) {
    SCOPED_TRACE(parallelism);
    std::vector<SessionPtr> sessions;
    ExpectSameReport(run(parallelism, &sessions), want);
    for (size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(batch[i].name);
      ASSERT_TRUE(sessions[i]->Wait().ok())
          << sessions[i]->Wait().status().ToString();
      ExpectIdentical(*sessions[i]->Wait(),
                      IsolatedRun(&engine, batch[i].build,
                                  OptimizerOptions::Fused()));
    }
  }
}

}  // namespace
}  // namespace fusiondb
