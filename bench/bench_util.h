// Shared helpers for the figure/table reproduction benches.
#ifndef FUSIONDB_BENCH_BENCH_UTIL_H_
#define FUSIONDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "fusiondb.h"
#include "obs/json_writer.h"

namespace fusiondb::bench {

inline void DieIf(const Status& status) {
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

/// Scale factor for benches; override with FUSIONDB_BENCH_SCALE.
inline double BenchScale() {
  const char* env = std::getenv("FUSIONDB_BENCH_SCALE");
  return env != nullptr ? std::atof(env) : 0.05;
}

/// The process-wide bench engine: owns the TPC-DS catalog (built once at
/// BenchScale) and the shared prepare/optimize/execute flow. Micro benches
/// that probe one layer in isolation may still grab `.catalog()` and call
/// the low-level entry points directly; everything query-shaped goes
/// through the engine.
inline Engine& BenchEngine() {
  static Engine* engine = [] {
    auto* e = new Engine();
    tpcds::TpcdsOptions options;
    options.scale = BenchScale();
    std::fprintf(stderr, "building TPC-DS catalog at scale %.3f...\n",
                 options.scale);
    DieIf(tpcds::BuildTpcdsCatalog(options, e->mutable_catalog()));
    return e;
  }();
  return *engine;
}

inline const Catalog& BenchCatalog() { return BenchEngine().catalog(); }

/// Latency repeats per measurement (median taken); override with
/// FUSIONDB_BENCH_REPEATS (CI smoke runs set 1).
inline int BenchRepeats() {
  const char* env = std::getenv("FUSIONDB_BENCH_REPEATS");
  int n = env != nullptr ? std::atoi(env) : 3;
  return n < 1 ? 1 : n;
}

/// Per-operator profiling during benches; disable with
/// FUSIONDB_BENCH_PROFILE=0 (used to measure the profiling overhead
/// itself, see EXPERIMENTS.md).
inline bool BenchProfileEnabled() {
  const char* env = std::getenv("FUSIONDB_BENCH_PROFILE");
  return env == nullptr || std::atoi(env) != 0;
}

/// Service-metrics recording during benches; enable with
/// FUSIONDB_BENCH_METRICS=1 to measure the registry's always-on recording
/// cost (tools/check.sh gates the overhead at <= 2% on tpcds_overall, see
/// EXPERIMENTS.md). Null when the knob is off.
inline MetricsRegistry* BenchMetricsRegistry() {
  const char* env = std::getenv("FUSIONDB_BENCH_METRICS");
  if (env == nullptr || std::atoi(env) == 0) return nullptr;
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

/// One measurement row in a bench's machine-readable report.
struct BenchRecord {
  std::string query;
  std::string config;  // e.g. "baseline", "fused", "spool"
  double wall_ms = 0.0;
  int64_t bytes_scanned = 0;
  int64_t peak_hash_bytes = 0;
  int64_t threads = 1;
};

/// Accumulates BenchRecords and writes BENCH_<name>.json in the working
/// directory (schema documented in EXPERIMENTS.md), so figure data can be
/// consumed by scripts instead of scraped from stdout.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Add(BenchRecord record) { records_.push_back(std::move(record)); }

  void Write() const {
    JsonWriter w;
    w.BeginObject();
    w.Field("bench", name_);
    w.Field("scale", BenchScale());
    w.Field("profile_enabled", BenchProfileEnabled());
    w.Key("records");
    w.BeginArray();
    for (const BenchRecord& r : records_) {
      w.BeginObject();
      w.Field("query", r.query);
      w.Field("config", r.config);
      w.Field("wall_ms", r.wall_ms);
      w.Field("bytes_scanned", r.bytes_scanned);
      w.Field("peak_hash_bytes", r.peak_hash_bytes);
      w.Field("threads", r.threads);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    const std::string& json = w.str();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(),
                 records_.size());
  }

 private:
  std::string name_;
  std::vector<BenchRecord> records_;
};

/// QueryOptions carrying the bench environment knobs (profiling, metrics
/// recording) on top of the given optimizer config.
inline QueryOptions BenchOptions(const OptimizerOptions& optimizer) {
  QueryOptions options;
  options.optimizer = optimizer;
  options.exec.profile = BenchProfileEnabled();
  options.exec.metrics = BenchMetricsRegistry();
  return options;
}

struct RunStats {
  double latency_ms = 0.0;
  int64_t bytes_scanned = 0;  // billed: the bytes the run decoded
  int64_t static_bytes = 0;   // what the plan's static pruning admits
  int64_t peak_hash_bytes = 0;
  int64_t rows = 0;
};

/// Optimizes the prepared query under `options` and executes it through the
/// bench engine; latency is the median of `repeats` runs.
inline RunStats RunPrepared(PreparedQuery* query,
                            const OptimizerOptions& options, int repeats = 0) {
  if (repeats <= 0) repeats = BenchRepeats();
  Engine& engine = BenchEngine();
  QueryOptions bench_options = BenchOptions(options);
  PlanPtr optimized = Unwrap(engine.Optimize(query, bench_options));
  RunStats stats;
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    QueryResult result =
        Unwrap(engine.ExecuteOptimized(optimized, bench_options));
    times.push_back(result.wall_ms());
    stats.bytes_scanned = result.metrics().bytes_scanned;
    stats.static_bytes = result.metrics().StaticBytes();
    stats.peak_hash_bytes = result.metrics().peak_hash_bytes;
    stats.rows = result.num_rows();
  }
  std::sort(times.begin(), times.end());
  stats.latency_ms = times[times.size() / 2];
  return stats;
}

/// Builds, runs baseline and fused, and checks the results agree.
struct Comparison {
  RunStats baseline;
  RunStats fused;
  bool results_match = false;
};

inline Comparison CompareQuery(const tpcds::TpcdsQuery& query,
                               int repeats = 0) {
  Engine& engine = BenchEngine();
  PreparedQuery prepared = Unwrap(engine.Prepare(query.build));
  QueryOptions baseline = BenchOptions(OptimizerOptions::Baseline());
  QueryOptions fused = BenchOptions(OptimizerOptions::Fused());
  QueryResult rb = Unwrap(engine.ExecuteOptimized(
      Unwrap(engine.Optimize(&prepared, baseline)), baseline));
  QueryResult rf = Unwrap(engine.ExecuteOptimized(
      Unwrap(engine.Optimize(&prepared, fused)), fused));
  Comparison out;
  out.results_match = ResultsEquivalent(rb, rf);
  out.baseline =
      RunPrepared(&prepared, OptimizerOptions::Baseline(), repeats);
  out.fused = RunPrepared(&prepared, OptimizerOptions::Fused(), repeats);
  return out;
}

/// Records a Comparison as one "baseline" and one "fused" BenchRecord.
inline void AddComparison(BenchReport* report, const std::string& query,
                          const Comparison& c, int64_t threads = 1) {
  report->Add({query, "baseline", c.baseline.latency_ms,
               c.baseline.bytes_scanned, c.baseline.peak_hash_bytes, threads});
  report->Add({query, "fused", c.fused.latency_ms, c.fused.bytes_scanned,
               c.fused.peak_hash_bytes, threads});
}

}  // namespace fusiondb::bench

#endif  // FUSIONDB_BENCH_BENCH_UTIL_H_
