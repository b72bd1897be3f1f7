// run_query: execute one query — a TPC-DS query by name, or arbitrary SQL —
// under a selected optimizer configuration, with the un-fused baseline run
// alongside as the correctness/metrics reference. Everything goes through
// the fusiondb::Engine facade (DESIGN.md §14).
//
// Usage: run_query [query=q65] [scale=0.01] [flags]
//   --sql=TEXT          execute this SQL statement instead of a named
//                       TPC-DS query. Malformed SQL prints a caret-position
//                       diagnostic snippet and exits 2.
//   --repl              interactive mode: read one SQL statement per line
//                       from stdin and execute each under --mode. Errors
//                       print their caret snippet and the loop continues.
//   --mode=M            optimizer configuration for the measured run:
//                         baseline — all Section IV fusion rules off
//                         fused    — fusion rules on (default)
//                         spooling — fusion off, every duplicate spooled
//   --plans             print baseline and optimized plans before executing
//   --explain           print the plans and exit without executing
//   --explain-analyze   print plans annotated with per-operator runtime
//                       stats after executing (EXPLAIN ANALYZE)
//   --trace-optimizer   print the optimizer/fusion trace for the selected
//                       mode (rules attempted/fired, fusion steps)
//   --profile=PATH      write a JSON QueryProfile of the measured execution
//   --threads=N         morsel-driven intra-query parallelism (0 = all
//                       cores; default 1 = single-threaded)
//   --server            cross-query fusion server mode: N concurrent
//                       clients submit the same query; the session layer
//                       batches them over the admission window and shares
//                       one scan across the group (DESIGN.md §12)
//   --clients=N         number of concurrent client threads (default 4;
//                       server mode only)
//   --window-ms=M       admission window in milliseconds (default 50 so
//                       all clients land in one batch; server mode only)
//   --metrics=PATH      record into a service MetricsRegistry and write the
//                       final snapshot JSON to PATH on exit. In server mode
//                       the written counters are cross-checked against the
//                       summed per-session attribution blocks; a mismatch
//                       exits 1.
//   --query-log=PATH    append one JSONL event per completed session to
//                       PATH (server mode only)
//   --slow-ms=N         sessions slower than N ms (queue + execute) are
//                       marked slow and auto-capture their full profile
//                       next to the query log (requires --query-log)
// Unknown --flags, unknown --mode values and malformed --sql are rejected
// with exit code 2. Telemetry write failures (--profile, --metrics,
// --query-log open) exit 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "fusiondb.h"

using namespace fusiondb;  // NOLINT: example code

namespace {

void DieIf(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  DieIf(result.status());
  return std::move(result).ValueOrDie();
}

void Usage() {
  std::fprintf(stderr,
               "usage: run_query [query] [scale] [--sql=TEXT] [--repl] "
               "[--mode={baseline,fused,spooling}] [--plans] "
               "[--explain] [--explain-analyze] [--trace-optimizer] "
               "[--profile=PATH] [--threads=N] "
               "[--server] [--clients=N] [--window-ms=M] "
               "[--metrics=PATH] [--query-log=PATH] [--slow-ms=N]\n");
}

/// Prepares SQL through the engine; on failure prints the caret-position
/// diagnostic snippet ("sql:LINE:COL: message" plus the offending line).
Result<PreparedQuery> PrepareSqlVerbose(Engine* engine,
                                        const std::string& sql_text) {
  sql::ParseResult parse;
  auto prepared = engine->Prepare(sql_text, &parse);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s", parse.FormatErrors().c_str());
  }
  return prepared;
}

/// One REPL turn: parse, bind, execute, render. Errors are reported with
/// their caret snippet; the loop continues either way.
void ReplExecute(Engine* engine, const std::string& line,
                 const QueryOptions& options) {
  auto prepared = PrepareSqlVerbose(engine, line);
  if (!prepared.ok()) return;
  PreparedQuery query = std::move(prepared).ValueOrDie();
  auto result = engine->Execute(&query, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s", result->ToString().c_str());
  std::printf("(%lld rows, %.2f ms, %lld bytes scanned)\n",
              static_cast<long long>(result->num_rows()), result->wall_ms(),
              static_cast<long long>(result->metrics().bytes_scanned));
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "q65";
  double scale = 0.01;
  std::string mode = "fused";
  std::string sql_text;
  bool repl = false;
  bool show_plans = false;
  bool explain_only = false;
  bool explain_analyze = false;
  bool trace_optimizer = false;
  std::string profile_path;
  size_t threads = 1;
  bool server = false;
  int clients = 4;
  int64_t window_ms = 50;
  std::string metrics_path;
  std::string query_log_path;
  int64_t slow_ms = 0;
  std::vector<std::string> positionals;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--plans") == 0) {
      show_plans = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain_only = true;
    } else if (std::strcmp(argv[i], "--explain-analyze") == 0) {
      explain_analyze = true;
    } else if (std::strcmp(argv[i], "--trace-optimizer") == 0) {
      trace_optimizer = true;
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      mode = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--sql=", 6) == 0) {
      sql_text = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--sql") == 0 && i + 1 < argc) {
      sql_text = argv[++i];
    } else if (std::strcmp(argv[i], "--repl") == 0) {
      repl = true;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--server") == 0) {
      server = true;
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--window-ms=", 12) == 0) {
      window_ms = std::atoll(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--query-log=", 12) == 0) {
      query_log_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--slow-ms=", 10) == 0) {
      slow_ms = std::atoll(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "run_query: unknown flag '%s'\n", argv[i]);
      Usage();
      return 2;
    } else {
      positionals.push_back(argv[i]);
    }
  }
  // With --sql/--repl there is no query name to name: the first positional
  // is the scale. Otherwise: [query] [scale].
  if (!sql_text.empty() || repl) {
    if (!positionals.empty()) scale = std::atof(positionals[0].c_str());
  } else {
    if (!positionals.empty()) name = positionals[0];
    if (positionals.size() >= 2) scale = std::atof(positionals[1].c_str());
  }
  auto mode_options = QueryOptions::FromModeName(mode);
  if (!mode_options.ok()) {
    std::fprintf(stderr, "run_query: unknown mode '%s'\n", mode.c_str());
    Usage();
    return 2;
  }
  if (!query_log_path.empty() && !server) {
    std::fprintf(stderr, "run_query: --query-log requires --server\n");
    return 2;
  }
  if (slow_ms > 0 && query_log_path.empty()) {
    std::fprintf(stderr, "run_query: --slow-ms requires --query-log\n");
    return 2;
  }
  if (repl && (server || !sql_text.empty())) {
    std::fprintf(stderr, "run_query: --repl excludes --server and --sql\n");
    return 2;
  }

  std::fprintf(stderr, "building TPC-DS catalog at scale %.3f...\n", scale);
  Engine engine;
  tpcds::TpcdsOptions catalog_options;
  catalog_options.scale = scale;
  DieIf(tpcds::BuildTpcdsCatalog(catalog_options, engine.mutable_catalog()));

  if (repl) {
    QueryOptions repl_options = *mode_options;
    repl_options.exec.parallelism = threads;
    std::fprintf(stderr, "fusiondb repl (%s mode) — one SQL statement per "
                         "line; 'exit' to quit\n", mode.c_str());
    std::string line;
    while (true) {
      std::fputs("fusiondb> ", stderr);
      std::fflush(stderr);
      if (!std::getline(std::cin, line)) break;
      if (line.empty()) continue;
      if (line == "exit" || line == "quit" || line == "\\q") break;
      ReplExecute(&engine, line, repl_options);
    }
    return 0;
  }

  // Resolve what to run: arbitrary SQL (caret diagnostics, exit 2 on bad
  // input) or a named TPC-DS query, whose builder binds its own SQL text —
  // both become the same PreparedQuery.
  tpcds::TpcdsQuery query;
  bool from_sql = !sql_text.empty();
  if (from_sql) {
    name = "sql";
  } else {
    query = Unwrap(tpcds::QueryByName(name));
  }
  auto prepare = [&]() -> Result<PreparedQuery> {
    return from_sql ? PrepareSqlVerbose(&engine, sql_text)
                    : engine.Prepare(query.build);
  };
  auto first_prepared = prepare();
  if (!first_prepared.ok()) {
    if (from_sql) return 2;  // diagnostics already printed with carets
    DieIf(first_prepared.status());
  }
  PreparedQuery prepared = std::move(first_prepared).ValueOrDie();

  if (server) {
    if (clients < 1) {
      std::fprintf(stderr, "run_query: --clients must be >= 1\n");
      return 2;
    }
    QueryOptions options = *mode_options;
    options.exec.parallelism = threads;

    // Isolated reference: one client, optimized and executed on its own.
    PlanPtr ref_optimized = Unwrap(engine.Optimize(&prepared, options));
    std::fprintf(stderr, "executing isolated reference (%s)...\n",
                 mode.c_str());
    QueryResult isolated =
        Unwrap(engine.ExecuteOptimized(ref_optimized, options));

    ServerOptions server_options;
    server_options.window.window_ms = window_ms;
    server_options.optimizer = options.optimizer;
    server_options.exec.parallelism = threads;
    OptimizerTrace server_trace;
    bool want_trace = trace_optimizer || !profile_path.empty();
    if (want_trace) server_options.trace = &server_trace;
    MetricsRegistry registry;
    if (!metrics_path.empty()) server_options.metrics = &registry;
    std::unique_ptr<QueryLog> query_log;
    if (!query_log_path.empty()) {
      query_log = Unwrap(QueryLog::Open(query_log_path, slow_ms));
      server_options.query_log = query_log.get();
    }
    server_options.mode_label = mode;
    SessionManager& manager = *Unwrap(engine.StartServer(server_options));

    // Each client prepares its own query (its own PlanContext — the server
    // renumbers the colliding column ids into one shared space) and submits
    // it through the engine.
    std::fprintf(stderr,
                 "server: %d clients, admission window %lld ms, mode %s\n",
                 clients, static_cast<long long>(window_ms), mode.c_str());
    std::vector<SessionPtr> sessions(static_cast<size_t>(clients));
    std::vector<std::thread> client_threads;
    client_threads.reserve(static_cast<size_t>(clients));
    for (int i = 0; i < clients; ++i) {
      client_threads.emplace_back([&, i] {
        PreparedQuery client_query = Unwrap(prepare());
        sessions[static_cast<size_t>(i)] =
            Unwrap(engine.Submit(client_query));
        sessions[static_cast<size_t>(i)]->Wait();
      });
    }
    for (std::thread& t : client_threads) t.join();
    engine.StopServer();

    int matched = 0;
    int shared = 0;
    for (const SessionPtr& session : sessions) {
      DieIf(session->Wait().status());
      if (ResultsEquivalent(*session->Wait(), isolated)) ++matched;
      if (session->shared()) ++shared;
    }

    if (trace_optimizer) {
      std::printf("== server optimizer trace (%s) ==\n%s\n", mode.c_str(),
                  server_trace.ToString().c_str());
    }
    if (!profile_path.empty()) {
      QueryProfile profile =
          MakeSessionProfile(*sessions.front(), name, "server-" + mode);
      profile.trace = want_trace ? &server_trace : nullptr;
      DieIf(WriteProfileJson(profile, profile_path));
      std::fprintf(stderr, "profile written to %s\n", profile_path.c_str());
    }

    // Reconcile the service counters against the per-session attribution
    // blocks: the registry's session counts and attributed bytes must equal
    // the sums over what each session was told, and the physical bytes
    // counter must equal the manager's own total. Any drift is a telemetry
    // bug, so it fails the run.
    bool reconciled = true;
    if (!metrics_path.empty()) {
      MetricsSnapshot snap = registry.Snapshot();
      int64_t attributed = 0;
      for (const SessionPtr& session : sessions) {
        attributed += session->sharing().attributed_bytes_scanned;
      }
      int64_t snap_sessions =
          snap.Counter("fusiondb_server_shared_sessions_total") +
          snap.Counter("fusiondb_server_solo_sessions_total");
      struct Check {
        const char* what;
        int64_t metric;
        int64_t expected;
      } checks[] = {
          {"attributed bytes",
           snap.Counter("fusiondb_server_attributed_bytes_total"), attributed},
          {"physical bytes", snap.Counter("fusiondb_server_bytes_scanned_total"),
           manager.total_bytes_scanned()},
          {"sessions", snap_sessions, static_cast<int64_t>(clients)},
      };
      for (const Check& c : checks) {
        if (c.metric != c.expected) {
          std::fprintf(stderr,
                       "run_query: metrics reconciliation FAILED: %s counter "
                       "%lld != session-sum %lld\n",
                       c.what, static_cast<long long>(c.metric),
                       static_cast<long long>(c.expected));
          reconciled = false;
        }
      }
      DieIf(WriteMetricsJson(snap, metrics_path));
      std::fprintf(stderr, "metrics snapshot written to %s\n",
                   metrics_path.c_str());
    }
    if (query_log != nullptr) {
      std::fprintf(stderr, "query log: %lld events appended to %s\n",
                   static_cast<long long>(query_log->events()),
                   query_log->path().c_str());
    }

    std::printf("query %s, server mode (%s), %d clients\n", name.c_str(),
                mode.c_str(), clients);
    std::printf("results match isolated: %d/%d%s\n", matched, clients,
                matched == clients ? "" : "  <-- MISMATCH");
    std::printf("sessions served shared: %d/%d\n", shared, clients);
    std::printf("%-28s %14lld\n", "bytes scanned (server)",
                static_cast<long long>(manager.total_bytes_scanned()));
    std::printf("%-28s %14lld\n", "bytes scanned (isolated)",
                static_cast<long long>(manager.total_isolated_bytes_scanned()));
    std::printf("%-28s %14lld\n", "bytes scanned (1 client)",
                static_cast<long long>(isolated.metrics().bytes_scanned));
    std::printf("\nfirst rows:\n%s",
                (*sessions.front()->result()).ToString(5).c_str());
    return matched == clients && reconciled ? 0 : 1;
  }

  std::fprintf(stderr, "optimizing (baseline)...\n");
  PlanPtr baseline =
      Unwrap(engine.Optimize(&prepared, QueryOptions::Baseline()));

  // The trace rides on the PlanContext only around the measured mode's
  // optimization, so it records exactly the rewrites that produced the
  // measured plan.
  OptimizerTrace trace;
  bool want_trace = trace_optimizer || !profile_path.empty();
  QueryOptions exec_knobs = *mode_options;
  exec_knobs.exec.parallelism = threads;
  std::fprintf(stderr, "optimizing (%s)...\n", mode.c_str());
  QueryOptions pass = exec_knobs;
  if (want_trace) pass.trace = &trace;
  PlanPtr optimized = Unwrap(engine.Optimize(&prepared, pass));

  if (show_plans || explain_only) {
    // Each node is annotated with its derived semantic properties (row
    // bounds, candidate keys, column domains — src/analysis/plan_props.h).
    PropertyDerivation props;
    props.Derive(baseline);
    props.Derive(optimized);
    PlanAnnotator annotate = [&props](const LogicalOp& op, int) {
      const PlanProps* p = props.Lookup(&op);
      return p == nullptr ? std::string() : "  {" + PropsToString(*p) + "}";
    };
    std::printf("== baseline plan ==\n%s\n",
                PlanToString(baseline, annotate).c_str());
    std::printf("== %s plan ==\n%s\n", mode.c_str(),
                PlanToString(optimized, annotate).c_str());
  }
  if (trace_optimizer) {
    std::printf("== optimizer trace (%s) ==\n%s\n", mode.c_str(),
                trace.ToString().c_str());
  }
  if (explain_only) return 0;

  std::fprintf(stderr, "executing (baseline, threads=%zu)...\n", threads);
  QueryResult base_result =
      Unwrap(engine.ExecuteOptimized(baseline, exec_knobs));
  std::fprintf(stderr, "executing (%s, threads=%zu)...\n", mode.c_str(),
               threads);
  // The measured run records into the service registry when --metrics is
  // given (the baseline reference run does not), so the snapshot describes
  // exactly the measured execution.
  MetricsRegistry registry;
  QueryOptions measured = exec_knobs;
  measured.exec.metrics = metrics_path.empty() ? nullptr : &registry;
  QueryResult mode_result =
      Unwrap(engine.ExecuteOptimized(optimized, measured));

  if (explain_analyze) {
    std::printf("== baseline (explain analyze) ==\n%s\n",
                ExplainAnalyze(baseline, base_result).c_str());
    std::printf("== %s (explain analyze) ==\n%s\n", mode.c_str(),
                ExplainAnalyze(optimized, mode_result).c_str());
  }
  if (!profile_path.empty()) {
    QueryProfile profile =
        MakeQueryProfile(name, mode, optimized, mode_result, &trace);
    DieIf(WriteProfileJson(profile, profile_path));
    std::fprintf(stderr, "profile written to %s\n", profile_path.c_str());
  }
  if (!metrics_path.empty()) {
    DieIf(WriteMetricsJson(registry.Snapshot(), metrics_path));
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 metrics_path.c_str());
  }

  std::printf("query %s (%s)\n", name.c_str(),
              from_sql ? "sql"
              : query.fusion_applicable ? "fusion-applicable"
                                        : "filler");
  std::printf("results match: %s\n",
              ResultsEquivalent(base_result, mode_result) ? "yes" : "NO");
  std::printf("%-22s %14s %14s\n", "", "baseline", mode.c_str());
  std::printf("%-22s %14.2f %14.2f\n", "latency (ms)", base_result.wall_ms(),
              mode_result.wall_ms());
  std::printf("%-22s %14lld %14lld\n", "bytes scanned",
              static_cast<long long>(base_result.metrics().bytes_scanned),
              static_cast<long long>(mode_result.metrics().bytes_scanned));
  std::printf("%-22s %14lld %14lld\n", "static bytes",
              static_cast<long long>(base_result.metrics().StaticBytes()),
              static_cast<long long>(mode_result.metrics().StaticBytes()));
  std::printf("%-22s %14lld %14lld\n", "runtime-pruned parts",
              static_cast<long long>(
                  base_result.metrics().runtime_pruned_partitions),
              static_cast<long long>(
                  mode_result.metrics().runtime_pruned_partitions));
  std::printf("%-22s %14lld %14lld\n", "rows scanned",
              static_cast<long long>(base_result.metrics().rows_scanned),
              static_cast<long long>(mode_result.metrics().rows_scanned));
  std::printf("%-22s %14lld %14lld\n", "peak hash bytes",
              static_cast<long long>(base_result.metrics().peak_hash_bytes),
              static_cast<long long>(mode_result.metrics().peak_hash_bytes));
  std::printf("%-22s %14lld %14lld\n", "spool bytes written",
              static_cast<long long>(base_result.metrics().spool_bytes_written),
              static_cast<long long>(mode_result.metrics().spool_bytes_written));
  std::printf("%-22s %14lld %14lld\n", "result rows",
              static_cast<long long>(base_result.num_rows()),
              static_cast<long long>(mode_result.num_rows()));
  std::printf("\nfirst rows:\n%s", mode_result.ToString(5).c_str());
  return 0;
}
