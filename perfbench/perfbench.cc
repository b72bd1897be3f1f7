// perfbench: the end-to-end benchmark of FusionDB.
//
//   perfbench --workload suite|dashboard --seed N --seconds S --trace 0|1
//
// Every timed interval is what a caller of the public `fusiondb::Engine`
// surface waits for: parse/bind (Prepare), optimization, pipeline
// compilation, execution and, on the server path, the cross-query fold and
// fan-out restoration.
//
// Workloads (the seed fixes the generated data and every query parameter):
//   suite      one client runs the 18-query TPC-DS suite back to back in a
//              seeded order, each query prepared from its hand-built
//              constructor, optimized (fused mode) and executed. A round is
//              one pass over the suite.
//   dashboard  three clients refresh the same dashboard at once. Its five
//              panels are SQL forms of the paper's fusion-applicable TPC-DS
//              queries (Q01, Q09, Q28, Q65, Q88; two of them sorted) with
//              seeded literals, so the clients submit the same or nearly the
//              same queries (DESIGN.md §12). A refresh parses and binds all
//              fifteen panels and hands them to the session manager as
//              exactly one admission batch (SubmitBatch, so the coordinator
//              thread's hand-off is not measured). A round is one refresh.
//
// Correctness: during set-up every query is run once unfused and unshared
// (baseline mode, no server); every measured result must render to the same
// sorted rows. A query that errors or differs counts as failed.
//
// Time metrics are host-calibrated: between rounds (and between set-up
// builds) a fixed engine-independent kernel is timed several times, and each
// round's times are rescaled by the median of the samples on both sides of
// it (see Calibrator).
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 the run attaches an optimizer trace and reports per-layer
// metrics instead (README.md lists them).
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fusiondb.h"
#include "obs/json_writer.h"

namespace {

using namespace fusiondb;  // NOLINT

constexpr double kScale = 0.05;   // ~144k store_sales rows
constexpr int kSetupRepeats = 9;  // setup_s is the median of these
constexpr int kClients = 3;       // dashboard viewers refreshing at once

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         (args->workload == "suite" || args->workload == "dashboard");
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Median of a non-empty sample.
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- host calibration -----------------------------------------------------

/// The calibration kernel's time in a quiet phase of the 4-vCPU host the
/// benchmark was tuned on; time metrics are rescaled to it.
constexpr double kCalibrationNominalMs = 20.0;
constexpr int kSamplesPerGap = 3;  // kernel runs between two rounds
/// How much more the engine's round times move than the kernel's under host
/// contention: the log-log slope of round time on kernel time, measured
/// over 20 seeded 40-second runs of both workloads on that host (1.2-1.3;
/// 1.05-1.17 within single runs). A round is rescaled by
/// (nominal / kernel)^kHostElasticity.
constexpr double kHostElasticity = 1.25;

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// A fixed kernel that shares no code and no heap with the engine: 64k keys
/// inserted into and looked up in a 1 MB and an 8 MB open-addressing table,
/// then a sort of 64k integers. On a shared VM the neighbours slow all code
/// by up to half for minutes at a time; timed between rounds, this kernel
/// slows with them, and each round's times are rescaled by the median
/// kernel time around the round (README.md, "Noise and host calibration").
class Calibrator {
 public:
  Calibrator()
      : small_(1 << 17), large_(1 << 20), keys_(1 << 16), sorted_(1 << 16) {
    uint64_t x = 88172645463325252ULL;  // xorshift64; odd keys, never 0
    for (uint64_t& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x | 1;
    }
  }

  /// Times the kernel kSamplesPerGap times, each while no other thread of
  /// the process uses CPU, and returns the samples in ms. Fails when the
  /// process does not become quiescent: background engine work would slow
  /// the kernel and so hide itself in the calibrated figures.
  bool Gap(std::vector<double>* samples) {
    samples->clear();
    for (int attempt = 0; samples->size() < kSamplesPerGap; ++attempt) {
      if (attempt == 50 * kSamplesPerGap) {
        std::fprintf(stderr, "calibration: other threads stay busy\n");
        return false;
      }
      int64_t process0 = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
      int64_t thread0 = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
      double ms = RunKernel();
      int64_t others = (CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - process0) -
                       (CpuNanos(CLOCK_THREAD_CPUTIME_ID) - thread0);
      if (others < 1000000) {  // under 1 ms of CPU on other threads
        samples->push_back(ms);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return true;
  }

 private:
  double RunKernel() {
    int64_t start = NowNanos();
    uint64_t found = Probe(&small_) + Probe(&large_);
    for (size_t i = 0; i < keys_.size(); ++i) {
      sorted_[i] = static_cast<uint32_t>((keys_[i] >> 7) + found);
    }
    std::sort(sorted_.begin(), sorted_.end());
    return Ms(NowNanos() - start);
  }

  /// Fills an emptied table, then looks the keys up in a dependent chain
  /// (each key depends on the previous outcome), so probes cannot overlap.
  uint64_t Probe(std::vector<uint64_t>* table) {
    std::vector<uint64_t>& t = *table;
    std::fill(t.begin(), t.end(), 0);
    const uint64_t mask = t.size() - 1;
    auto slot = [&t, mask](uint64_t key) {
      uint64_t h = (key * 0x9E3779B97F4A7C15ULL) >> 40;
      while (t[h & mask] != 0 && t[h & mask] != key) ++h;
      return h & mask;
    };
    for (uint64_t k : keys_) t[slot(k)] = k;
    uint64_t found = 0;
    for (uint64_t k : keys_) {
      uint64_t key = k ^ (found & 1);
      found += t[slot(key)] == key ? 1 : 0;
    }
    return found;
  }

  std::vector<uint64_t> small_, large_, keys_;
  std::vector<uint32_t> sorted_;
};

/// Calibrates a sequence of timed intervals: Begin() samples the kernel
/// before the first one, and each Scale() samples it again after the
/// interval just timed and returns the factor that rescales the interval
/// to the nominal host speed, from the median of the samples on both sides
/// of it.
class HostScale {
 public:
  bool Begin() { return calibrator_.Gap(&before_); }

  bool Scale(double* scale, double* kernel_ms) {
    std::vector<double> after;
    if (!calibrator_.Gap(&after)) return false;
    std::vector<double> around = before_;
    around.insert(around.end(), after.begin(), after.end());
    *kernel_ms = Median(around);
    *scale = std::pow(kCalibrationNominalMs / *kernel_ms, kHostElasticity);
    before_ = std::move(after);
    return true;
  }

 private:
  Calibrator calibrator_;
  std::vector<double> before_;
};

// --- per-round accounting -------------------------------------------------

/// Per-layer values of one round by metric name (traced runs only), plus
/// the two byte totals scan_saved_pct is derived from.
using RoundLayers = std::map<std::string, double>;

/// The per-layer metrics in report order, with their units.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"prepare_ms", "ms"},        {"optimize_ms", "ms"},
    {"execute_ms", "ms"},        {"scan_ms", "ms"},
    {"join_ms", "ms"},           {"aggregate_ms", "ms"},
    {"filter_project_ms", "ms"}, {"sort_window_ms", "ms"},
    {"other_op_ms", "ms"},       {"rows_scanned", "count"},
    {"partitions_pruned", "count"}, {"peak_hash_mb", "MB"},
    {"pipelines_compiled", "count"}, {"pipeline_fallbacks", "count"},
    {"rules_fired", "count"},    {"shared_sessions", "count"},
    {"scan_saved_pct", "%"},     {"raw_round_ms", "ms"},
    {"calibration_ms", "ms"},
};

const char* OpGroup(const std::string& kind) {
  if (kind == "Scan") return "scan_ms";
  if (kind == "Join") return "join_ms";
  if (kind == "Aggregate" || kind == "MarkDistinct") return "aggregate_ms";
  if (kind == "Filter" || kind == "Project") return "filter_project_ms";
  if (kind == "Sort" || kind == "Limit" || kind == "Window") {
    return "sort_window_ms";
  }
  return "other_op_ms";
}

/// Adds one execution's counters (once per physical execution, never per
/// consumer of a shared one).
void AddExecution(const QueryResult& result, RoundLayers* layers) {
  RoundLayers& l = *layers;
  for (const OperatorStats& s : result.operator_stats()) {
    l[OpGroup(s.kind)] += Ms(s.self_ns);
  }
  const ExecMetrics& m = result.metrics();
  l["bytes_scanned"] += static_cast<double>(m.bytes_scanned);
  l["rows_scanned"] += static_cast<double>(m.rows_scanned);
  l["partitions_pruned"] += static_cast<double>(m.partitions_pruned);
  l["peak_hash_mb"] = std::max(l["peak_hash_mb"],
                               static_cast<double>(m.peak_hash_bytes) / 1e6);
  for (const PipelineRecord& p : result.pipelines()) {
    l[p.compiled() ? "pipelines_compiled" : "pipeline_fallbacks"] += 1;
  }
}

/// Closes a round's layer values: the share of the unfused, unshared
/// bytes the round did not scan.
void FinishLayers(RoundLayers* layers) {
  RoundLayers& l = *layers;
  if (l["baseline_bytes"] > 0) {
    l["scan_saved_pct"] =
        100.0 * (1.0 - l["bytes_scanned"] / l["baseline_bytes"]);
  }
}

/// What a workload measured: per-round times, latencies per distinct
/// request (a suite query, a dashboard panel), physical bytes per round,
/// and (traced runs) per-round layer values. Times are host-calibrated
/// unless named raw.
struct Measurement {
  std::vector<double> round_ms;
  std::vector<double> raw_round_ms;
  std::map<int, std::vector<double>> request_ms;  // by query or panel
  std::vector<double> round_mb_scanned;
  std::vector<double> calibration_ms;  // median kernel time around each round
  std::vector<RoundLayers> layers;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> setup_s;
  HostScale host;

  /// Closes a measured round: calibrates, then records its wall time, its
  /// requests' latencies (id, ms) and its scanned bytes.
  bool EndRound(double wall_ms,
                const std::vector<std::pair<int, double>>& requests,
                int64_t bytes) {
    double scale = 1.0, kernel_ms = 0.0;
    if (!host.Scale(&scale, &kernel_ms)) return false;
    calibration_ms.push_back(kernel_ms);
    raw_round_ms.push_back(wall_ms);
    round_ms.push_back(wall_ms * scale);
    for (const auto& [id, ms] : requests) request_ms[id].push_back(ms * scale);
    round_mb_scanned.push_back(static_cast<double>(bytes) / 1e6);
    return true;
  }
};

/// Checks one result against its reference rendering; logs a mismatch.
bool Matches(const Result<QueryResult>& result,
             const std::vector<std::string>& reference,
             const std::string& what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what.c_str(),
                 result.status().ToString().c_str());
    return false;
  }
  if (result->RenderRows(/*sorted=*/true) != reference) {
    std::fprintf(stderr, "%s: result differs from the baseline run\n",
                 what.c_str());
    return false;
  }
  return true;
}

// --- set-up ---------------------------------------------------------------

/// Builds the engine kSetupRepeats times from the seeded generator and keeps
/// the last one; records each build's calibrated wall time.
std::unique_ptr<Engine> SetUp(uint64_t seed, Measurement* m) {
  std::unique_ptr<Engine> engine;
  if (!m->host.Begin()) return nullptr;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();  // free the previous catalog before timing the next
    int64_t start = NowNanos();
    engine = std::make_unique<Engine>();
    tpcds::TpcdsOptions options;
    options.scale = kScale;
    options.seed = seed;
    Status st = tpcds::BuildTpcdsCatalog(options, engine->mutable_catalog());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return nullptr;
    }
    double seconds = static_cast<double>(NowNanos() - start) * 1e-9;
    double scale = 1.0, kernel_ms = 0.0;
    if (!m->host.Scale(&scale, &kernel_ms)) return nullptr;
    m->setup_s.push_back(seconds * scale);
  }
  return engine;
}

/// Reference rows and scanned bytes of one query run unfused and unshared.
struct Reference {
  std::vector<std::string> rows;
  int64_t bytes_scanned = 0;
};

bool RunReference(Engine* engine, PreparedQuery* query, const std::string& what,
                  Reference* out) {
  Result<QueryResult> r = engine->Execute(query, QueryOptions::Baseline());
  if (!r.ok()) {
    std::fprintf(stderr, "reference %s failed: %s\n", what.c_str(),
                 r.status().ToString().c_str());
    return false;
  }
  out->rows = r->RenderRows(/*sorted=*/true);
  out->bytes_scanned = r->metrics().bytes_scanned;
  return true;
}

// --- suite workload -------------------------------------------------------

bool RunSuite(Engine* engine, const Args& args, Measurement* m) {
  const std::vector<tpcds::TpcdsQuery>& queries = tpcds::Queries();
  std::vector<Reference> refs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<PreparedQuery> q = engine->Prepare(queries[i].build);
    if (!q.ok() || !RunReference(engine, &*q, queries[i].name, &refs[i])) {
      return false;
    }
  }
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(args.seed);
  std::shuffle(order.begin(), order.end(), rng);

  // One checked warm-up pass, then timed passes until the budget is spent.
  // Only whole passes are measured.
  int64_t deadline = 0;
  for (int round = -1;; ++round) {
    if (round == 0) {
      if (!m->host.Begin()) return false;
      deadline = NowNanos() + static_cast<int64_t>(args.seconds * 1e9);
    } else if (round > 0 && NowNanos() >= deadline) {
      break;
    }
    bool measured = round >= 0;
    RoundLayers layers;
    double round_ms = 0.0;
    std::vector<std::pair<int, double>> requests;
    int64_t round_bytes = 0;
    for (size_t idx : order) {
      const tpcds::TpcdsQuery& tq = queries[idx];
      OptimizerTrace trace;
      QueryOptions options = QueryOptions::Fused();
      if (args.trace) options.trace = &trace;

      int64_t start = NowNanos();
      Result<PreparedQuery> prepared = engine->Prepare(tq.build);
      int64_t prepared_at = NowNanos(), optimized_at = prepared_at;
      Result<QueryResult> result = prepared.status();
      if (prepared.ok()) {
        Result<PlanPtr> plan = engine->Optimize(&*prepared, options);
        optimized_at = NowNanos();
        result = plan.ok() ? engine->ExecuteOptimized(*plan, options)
                           : Result<QueryResult>(plan.status());
      }
      int64_t end = NowNanos();

      bool ok = Matches(result, refs[idx].rows, tq.name);
      if (!measured) {
        if (!ok) return false;  // a broken warm-up pass is not a benchmark
        continue;
      }
      ++m->attempted;
      if (!ok) {
        ++m->failed;
        continue;
      }
      round_ms += Ms(end - start);
      requests.emplace_back(static_cast<int>(idx), Ms(end - start));
      round_bytes += result->metrics().bytes_scanned;
      if (args.trace) {
        layers["prepare_ms"] += Ms(prepared_at - start);
        layers["optimize_ms"] += Ms(optimized_at - prepared_at);
        layers["execute_ms"] += Ms(end - optimized_at);
        AddExecution(*result, &layers);
        layers["rules_fired"] += static_cast<double>(trace.firings().size());
        layers["baseline_bytes"] += static_cast<double>(refs[idx].bytes_scanned);
      }
    }
    if (measured) {
      if (!m->EndRound(round_ms, requests, round_bytes)) return false;
      if (args.trace) {
        FinishLayers(&layers);
        m->layers.push_back(std::move(layers));
      }
    }
  }
  return true;
}

// --- dashboard workload ---------------------------------------------------

/// One dashboard panel: which paper query it is a form of, and its SQL.
struct Panel {
  std::string query;
  std::string sql;
};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

/// Q01 (Section V.A) with the correlated store average decorrelated into a
/// grouped subquery: customers returning over 1.2x their store's average
/// in `year`. Sorted.
std::string Q01Sql(int64_t year) {
  std::string ctr =
      "SELECT sr.sr_customer_sk, sr.sr_store_sk, "
      "SUM(sr.sr_return_amt) AS ctr_total_return "
      "FROM store_returns sr "
      "JOIN date_dim d ON sr.sr_returned_date_sk = d.d_date_sk "
      "WHERE d.d_year = " + std::to_string(year) +
      " GROUP BY sr.sr_customer_sk, sr.sr_store_sk";
  return "SELECT c.c_customer_id FROM (" + ctr + ") ctr1 "
         "JOIN (SELECT ctr.sr_store_sk, AVG(ctr.ctr_total_return) AS avg_ctr "
         "FROM (" + ctr + ") ctr GROUP BY ctr.sr_store_sk) ctr2 "
         "ON ctr1.sr_store_sk = ctr2.sr_store_sk "
         "JOIN store s ON ctr1.sr_store_sk = s.s_store_sk "
         "JOIN customer c ON ctr1.sr_customer_sk = c.c_customer_sk "
         "WHERE ctr1.ctr_total_return > 1.2 * ctr2.avg_ctr "
         "AND s.s_state = 'TN' ORDER BY c_customer_id LIMIT 100";
}

/// One of Q09's five quantity buckets (Section V.B): its three scalar
/// aggregates over store_sales.
std::string Q09Sql(int bucket) {
  return "SELECT COUNT(*) AS cnt, AVG(ss.ss_ext_discount_amt) AS avg_disc, "
         "AVG(ss.ss_net_profit) AS avg_profit FROM store_sales ss "
         "WHERE ss.ss_quantity BETWEEN " + std::to_string(1 + 20 * bucket) +
         " AND " + std::to_string(20 * (bucket + 1));
}

/// One of Q28's six buckets (Section V.B), with its DISTINCT aggregate.
std::string Q28Sql(int bucket) {
  double lp = 10.0 * bucket + 8.0, cp = 100.0 * bucket + 40.0,
         wc = 10.0 * bucket + 5.0;
  return "SELECT AVG(ss.ss_list_price) AS lp_avg, "
         "COUNT(ss.ss_list_price) AS lp_cnt, "
         "COUNT(DISTINCT ss.ss_list_price) AS lp_cntd FROM store_sales ss "
         "WHERE ss.ss_quantity BETWEEN " + std::to_string(5 * bucket) +
         " AND " + std::to_string(5 * bucket + 5) +
         " AND (ss.ss_list_price BETWEEN " + Num(lp) + " AND " +
         Num(lp + 100.0) + " OR ss.ss_coupon_amt BETWEEN " + Num(cp) +
         " AND " + Num(cp + 1000.0) + " OR ss.ss_wholesale_cost BETWEEN " +
         Num(wc) + " AND " + Num(wc + 80.0) + ")";
}

/// Q65 (Section V.A) over a twelve-month window starting at `first_month`
/// (a d_month_seq): items selling at no more than 10% of their store's
/// average revenue. Sorted.
std::string Q65Sql(int64_t first_month) {
  std::string revenue =
      "SELECT ss.ss_store_sk, ss.ss_item_sk, "
      "SUM(ss.ss_sales_price) AS revenue FROM store_sales ss "
      "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
      "WHERE d.d_month_seq BETWEEN " + std::to_string(first_month) + " AND " +
      std::to_string(first_month + 11) +
      " GROUP BY ss.ss_store_sk, ss.ss_item_sk";
  return "SELECT s.s_store_name, i.i_item_desc, sc.revenue FROM (" + revenue +
         ") sc JOIN (SELECT sa.ss_store_sk, AVG(sa.revenue) AS ave FROM (" +
         revenue + ") sa GROUP BY sa.ss_store_sk) sb "
         "ON sc.ss_store_sk = sb.ss_store_sk AND sc.revenue <= 0.1 * sb.ave "
         "JOIN store s ON sc.ss_store_sk = s.s_store_sk "
         "JOIN item i ON sc.ss_item_sk = i.i_item_sk "
         "ORDER BY s_store_name, i_item_desc, revenue LIMIT 100";
}

/// One of Q88's eight half-hour traffic counts (Section V.B).
std::string Q88Sql(int slot) {
  int hour = 8 + (slot + 1) / 2;
  bool second_half = (slot + 1) % 2 == 1;
  return "SELECT COUNT(*) AS h FROM store_sales ss "
         "JOIN household_demographics hd ON ss.ss_hdemo_sk = hd.hd_demo_sk "
         "JOIN time_dim t ON ss.ss_sold_time_sk = t.t_time_sk "
         "JOIN store s ON ss.ss_store_sk = s.s_store_sk "
         "WHERE ((hd.hd_dep_count = 4 AND hd.hd_vehicle_count <= 3) OR "
         "(hd.hd_dep_count = 2 AND hd.hd_vehicle_count <= 1)) "
         "AND t.t_hour = " + std::to_string(hour) + " AND t.t_minute " +
         (second_half ? ">= 30" : "< 30") + " AND s.s_store_name = 'ese'";
}

/// The panels of one refresh, client by client. Each client views one of
/// Q09's, Q28's and Q88's buckets (three distinct ones per query: nearly
/// the same query from every client, folded by Fuse); clients 0 and 1 view
/// the dashboard's default year of Q01 and window of Q65 (identical
/// queries), client 2 another one. Which buckets, years and windows is
/// seeded; the shape of the batch is not, so every seed does alike work.
std::vector<Panel> MakeDashboard(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto distinct = [&rng](int n) {
    std::vector<int> v(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
    std::shuffle(v.begin(), v.end(), rng);
    return v;
  };
  std::vector<int> q09 = distinct(5), q28 = distinct(6), q88 = distinct(8);
  std::vector<int> years = distinct(6);   // 1998 .. 2003
  std::vector<int> windows = distinct(6); // calendar years, as d_month_seq
  std::vector<Panel> panels;
  for (int c = 0; c < kClients; ++c) {
    size_t own = static_cast<size_t>(c);
    size_t view = c < 2 ? 0 : 1;
    panels.push_back({"q01", Q01Sql(1998 + years[view])});
    panels.push_back({"q09", Q09Sql(q09[own])});
    panels.push_back({"q28", Q28Sql(q28[own])});
    panels.push_back({"q65", Q65Sql((98 + windows[view]) * 12)});
    panels.push_back({"q88", Q88Sql(q88[own])});
  }
  return panels;
}

bool RunDashboard(Engine* engine, const Args& args, Measurement* m) {
  std::vector<Panel> panels = MakeDashboard(args.seed);
  std::vector<Reference> refs(panels.size());
  for (size_t p = 0; p < panels.size(); ++p) {
    Result<PreparedQuery> q = engine->Prepare(panels[p].sql);
    if (!q.ok()) {
      std::fprintf(stderr, "%s panel does not bind: %s\n",
                   panels[p].query.c_str(), q.status().ToString().c_str());
      return false;
    }
    if (!RunReference(engine, &*q, panels[p].query, &refs[p])) return false;
  }

  OptimizerTrace trace;
  ServerOptions options;
  options.window.max_batch = panels.size();  // one refresh == one batch
  if (args.trace) options.trace = &trace;
  Result<SessionManager*> server = engine->StartServer(options);
  if (!server.ok()) return false;

  // A checked warm-up refresh, then timed refreshes until the budget is
  // spent.
  int64_t deadline = 0;
  bool ok = true;
  for (int round = -1; ok; ++round) {
    if (round == 0) {
      ok = m->host.Begin();
      deadline = NowNanos() + static_cast<int64_t>(args.seconds * 1e9);
    } else if (round > 0 && NowNanos() >= deadline) {
      break;
    }
    bool measured = round >= 0;
    size_t fired_before = trace.firings().size();
    RoundLayers layers;

    // Parse and bind every panel, then hand them all to the server as one
    // batch: renumber, optimize, cross-plan fold, share-vs-solo pricing,
    // fan-out execution and per-session restoration.
    int64_t start = NowNanos();
    std::vector<PreparedQuery> prepared(panels.size());
    std::vector<PlanPtr> plans;
    for (size_t p = 0; p < panels.size() && ok; ++p) {
      Result<PreparedQuery> q = engine->Prepare(panels[p].sql);
      ok = q.ok();
      if (ok) {
        prepared[p] = std::move(*q);
        plans.push_back(prepared[p].plan());
      }
    }
    if (!ok) {
      std::fprintf(stderr, "panel could not be prepared\n");
      break;
    }
    int64_t submitted = NowNanos();
    std::vector<SessionPtr> sessions = (*server)->SubmitBatch(plans);
    int64_t end = NowNanos();

    // A panel's latency runs from the start of the refresh to the moment
    // its session was fulfilled. Server-side layers come from the sessions'
    // own timings: everything before the first group starts executing is
    // planning (renumber, optimize, fold, pricing); each distinct execution
    // is one fan-out run.
    std::vector<std::pair<int, double>> requests;
    int64_t round_bytes = 0, panels_failed = 0, first_exec = end;
    std::set<const LogicalOp*> executions;
    for (size_t p = 0; p < panels.size(); ++p) {
      const SessionPtr& s = sessions[p];
      if (!Matches(s->result(), refs[p].rows, panels[p].query)) {
        ++panels_failed;
        continue;
      }
      int64_t exec_start = s->submitted_ns() + s->queue_wait_us() * 1000;
      int64_t done = exec_start + s->execute_us() * 1000;
      requests.emplace_back(static_cast<int>(p), Ms(done - start));
      round_bytes += s->sharing().attributed_bytes_scanned;
      first_exec = std::min(first_exec, exec_start);
      if (args.trace && executions.insert(s->executed_plan().get()).second) {
        layers["execute_ms"] += Ms(s->execute_us() * 1000);
        AddExecution(*s->result(), &layers);
      }
      if (s->shared()) layers["shared_sessions"] += 1;
      layers["baseline_bytes"] += static_cast<double>(refs[p].bytes_scanned);
    }
    if (!measured) {
      ok = panels_failed == 0;  // a broken warm-up is not a benchmark
      continue;
    }
    m->attempted += static_cast<int64_t>(panels.size());
    m->failed += panels_failed;
    if (panels_failed > 0) continue;
    ok = m->EndRound(Ms(end - start), requests, round_bytes);
    if (args.trace) {
      layers["prepare_ms"] = Ms(submitted - start);
      layers["optimize_ms"] = Ms(std::max(submitted, first_exec) - submitted);
      layers["rules_fired"] =
          static_cast<double>(trace.firings().size() - fired_before);
      FinishLayers(&layers);
      m->layers.push_back(std::move(layers));
    }
  }
  engine->StopServer();
  return ok;
}

// --- report ---------------------------------------------------------------

void Metric(JsonWriter* w, const char* name, double value, const char* unit) {
  w->Key(name);
  w->BeginObject();
  w->Field("value", value);
  w->Field("unit", unit);
  w->EndObject();
}

std::string Report(Measurement m, bool trace) {
  JsonWriter w;
  w.BeginObject();
  w.Field("correct", m.failed == 0);
  w.Field("attempted", m.attempted);
  w.Field("failed", m.failed);
  w.Key("metrics");
  w.BeginObject();
  if (!trace) {
    Metric(&w, "round_ms", Median(m.round_ms), "ms");
    // Geometric mean of each distinct request's median latency: every query
    // weighs the same, whatever its size (the TPC power-test convention).
    double log_sum = 0.0;
    for (const auto& [id, samples] : m.request_ms) {
      log_sum += std::log(Median(samples));
    }
    Metric(&w, "request_geomean_ms",
           std::exp(log_sum / static_cast<double>(m.request_ms.size())), "ms");
    Metric(&w, "scanned_mb", Median(m.round_mb_scanned), "MB");
    Metric(&w, "setup_s", Median(m.setup_s), "s");
  } else {
    // Layer times are raw wall times (not calibrated); on the server path
    // the optimize layer is the server's planning (renumber, optimize,
    // cross-plan fold). raw_round_ms and calibration_ms give the
    // uncalibrated round time and the host's speed meanwhile.
    for (size_t r = 0; r < m.layers.size(); ++r) {
      m.layers[r]["raw_round_ms"] = m.raw_round_ms[r];
      m.layers[r]["calibration_ms"] = m.calibration_ms[r];
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      std::vector<double> per_round;
      for (RoundLayers& l : m.layers) per_round.push_back(l[name]);
      Metric(&w, name, Median(per_round), unit);
    }
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload suite|dashboard --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  Measurement m;
  std::unique_ptr<Engine> engine = SetUp(args.seed, &m);
  if (engine == nullptr) return 1;
  bool ok = args.workload == "suite" ? RunSuite(engine.get(), args, &m)
                                     : RunDashboard(engine.get(), args, &m);
  if (!ok || m.round_ms.empty() || m.request_ms.empty()) {
    std::fprintf(stderr, "benchmark aborted: no complete measured round\n");
    return 1;
  }
  // The uncalibrated figures, so a change the calibration cancels can be
  // seen next to the calibrated result.
  std::fprintf(stderr,
               "rounds %zu, raw round_ms %.3f, calibrated %.3f, "
               "kernel %.3f ms\n",
               m.round_ms.size(), Median(m.raw_round_ms), Median(m.round_ms),
               Median(m.calibration_ms));
  std::printf("%s\n", Report(m, args.trace).c_str());
  return 0;
}
