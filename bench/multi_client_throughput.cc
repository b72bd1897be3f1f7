// Cross-query fusion server throughput: N closed-loop clients submit the
// same TPC-DS query concurrently; the session layer batches them over the
// admission window and shares one scan per group (DESIGN.md §12). The
// interesting shape: solo-mode bytes scanned grow linearly with the client
// count while shared-mode bytes grow with the number of admission batches
// (client_count / max_batch), so queries/sec degrades far more slowly.
//
// Three outputs:
//   stdout table                            client sweep, shared vs solo
//   BENCH_multi_client_throughput.json      records keyed (query, config,
//                                           clients-as-threads)
//   BENCH_multi_client_throughput.solo.json / .shared.json
//       paired single-client gate reports, keys (query, "", 1):
//       tools/bench_diff.py fails the build when routing a lone query
//       through the sharing path costs more than the threshold.
//
// Env: FUSIONDB_BENCH_SCALE (data), FUSIONDB_BENCH_REPEATS (gate best-of-N),
// FUSIONDB_BENCH_MAX_CLIENTS (caps the sweep, default 1000).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace fusiondb;         // NOLINT
using namespace fusiondb::bench;  // NOLINT

namespace {

size_t MaxClients() {
  const char* env = std::getenv("FUSIONDB_BENCH_MAX_CLIENTS");
  long n = env != nullptr ? std::atol(env) : 1000;
  return n < 1 ? 1 : static_cast<size_t>(n);
}

/// One closed-loop round: every client submits `query` once; the batch is
/// processed synchronously (SubmitBatch — deterministic admission, no
/// timer noise). Returns the manager so callers can read the totals.
struct RoundResult {
  double wall_ms = 0.0;
  int64_t bytes_scanned = 0;          // billed
  int64_t static_bytes = 0;           // executed plans' ScanBytes
  int64_t isolated_static_bytes = 0;  // sessions' own plans' ScanBytes
  int64_t shared_sessions = 0;
  std::vector<SessionPtr> sessions;
};

RoundResult RunRound(const Catalog& catalog, const tpcds::TpcdsQuery& query,
                     size_t clients, bool sharing) {
  std::vector<PlanPtr> plans;
  plans.reserve(clients);
  std::vector<PlanContext> contexts(clients);
  for (size_t i = 0; i < clients; ++i) {
    plans.push_back(Unwrap(query.build(catalog, &contexts[i])));
  }
  ServerOptions options;
  options.enable_sharing = sharing;
  SessionManager manager(options);
  int64_t start = NowNanos();
  RoundResult round;
  round.sessions = manager.SubmitBatch(plans);
  round.wall_ms = static_cast<double>(NowNanos() - start) * 1e-6;
  round.bytes_scanned = manager.total_bytes_scanned();
  round.static_bytes = manager.total_static_bytes();
  round.isolated_static_bytes = manager.total_isolated_static_bytes();
  round.shared_sessions = manager.total_shared_sessions();
  for (const SessionPtr& s : round.sessions) DieIf(s->Wait().status());
  return round;
}

}  // namespace

int main() {
  const Catalog& catalog = BenchCatalog();
  int repeats = BenchRepeats();
  size_t max_clients = MaxClients();

  std::vector<const tpcds::TpcdsQuery*> queries;
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (q.fusion_applicable) queries.push_back(&q);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no fusion-applicable queries\n");
    return 1;
  }

  BenchReport report("multi_client_throughput");
  bool all_ok = true;

  // --- single-client gate: solo path vs sharing path for a lone query ----
  // With one client no group can form, so any delta is pure session-layer
  // overhead (renumbering, grouping, fan-out plumbing). bench_diff.py
  // holds it under threshold. Best-of-N, not median: both configs run the
  // identical code path here, so the minimum isolates the deterministic
  // cost from scheduler noise that medians at small N do not reject.
  BenchReport solo_gate("multi_client_throughput.solo");
  BenchReport shared_gate("multi_client_throughput.shared");
  std::printf("\nSingle-client latency: sharing path overhead per query\n\n");
  std::printf("%-6s %12s %12s\n", "query", "solo ms", "shared ms");
  for (const tpcds::TpcdsQuery* q : queries) {
    std::vector<double> solo_ms, shared_ms;
    RoundResult last_solo, last_shared;
    for (int r = 0; r < repeats; ++r) {
      last_solo = RunRound(catalog, *q, 1, /*sharing=*/false);
      last_shared = RunRound(catalog, *q, 1, /*sharing=*/true);
      solo_ms.push_back(last_solo.wall_ms);
      shared_ms.push_back(last_shared.wall_ms);
    }
    double solo_best = *std::min_element(solo_ms.begin(), solo_ms.end());
    double shared_best =
        *std::min_element(shared_ms.begin(), shared_ms.end());
    all_ok = all_ok &&
             ResultsEquivalent(*last_solo.sessions[0]->result(),
                               *last_shared.sessions[0]->result());
    solo_gate.Add({q->name, "", solo_best, last_solo.bytes_scanned, 0, 1});
    shared_gate.Add(
        {q->name, "", shared_best, last_shared.bytes_scanned, 0, 1});
    std::printf("%-6s %10.2fms %10.2fms\n", q->name.c_str(), solo_best,
                shared_best);
  }

  // --- client sweep: closed-loop throughput, shared vs solo --------------
  const tpcds::TpcdsQuery& sweep_query = *queries.front();
  std::vector<size_t> levels;
  for (size_t n : {1u, 4u, 16u, 64u, 256u, 1000u}) {
    if (n <= max_clients) levels.push_back(n);
  }
  std::printf("\nClient sweep — query %s, identical from every client "
              "(max_batch=64 per admission batch)\n\n",
              sweep_query.name.c_str());
  std::printf("%-8s %-8s %12s %10s %14s %14s %16s %8s\n", "clients",
              "config", "wall ms", "q/s", "billed bytes", "static bytes",
              "isolated static", "shared");
  for (size_t n : levels) {
    int64_t solo_billed = 0;  // the solo round of this n runs first
    for (bool sharing : {false, true}) {
      RoundResult round = RunRound(catalog, sweep_query, n, sharing);
      double qps = round.wall_ms > 0.0
                       ? static_cast<double>(n) / (round.wall_ms * 1e-3)
                       : 0.0;
      const char* config = sharing ? "shared" : "solo";
      report.Add({sweep_query.name, config, round.wall_ms,
                  round.bytes_scanned, 0, static_cast<int64_t>(n)});
      std::printf("%-8zu %-8s %10.2fms %10.1f %14lld %14lld %16lld %5lld/%zu\n",
                  n, config, round.wall_ms, qps,
                  static_cast<long long>(round.bytes_scanned),
                  static_cast<long long>(round.static_bytes),
                  static_cast<long long>(round.isolated_static_bytes),
                  static_cast<long long>(round.shared_sessions), n);
      // The acceptance property: with >= 2 identical concurrent queries,
      // sharing reads strictly fewer bytes than isolated execution, each
      // kind compared with its own kind: billed against the solo round's
      // billed bytes, static against the sessions' own static bytes.
      if (!sharing) solo_billed = round.bytes_scanned;
      if (sharing && n >= 2) {
        all_ok = all_ok && round.bytes_scanned < solo_billed &&
                 round.static_bytes < round.isolated_static_bytes &&
                 round.shared_sessions == static_cast<int64_t>(n);
      }
    }
  }

  std::printf("\nshared-mode bytes grow per admission batch "
              "(ceil(clients/64) scans), solo-mode per client. "
              "correctness + sharing assertions: %s\n",
              all_ok ? "ok" : "FAILED");
  report.Write();
  solo_gate.Write();
  shared_gate.Write();
  return all_ok ? 0 : 1;
}
