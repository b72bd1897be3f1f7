// Generative differential fuzzing of the SQL front end and the execution
// stack (EXPERIMENTS.md "fuzz protocol", DESIGN.md §14).
//
// Every query — replayed from tests/sql_fuzz_corpus.txt, then generated by
// sql/random_query.h from a fixed seed — is bound once, evaluated by the
// independent reference evaluator (tests/reference_eval.h) over the bound,
// unoptimized plan, and then executed under all three optimizer modes
// (baseline / fused / spooling). The oracles:
//
//   * every mode's rows must match the reference under its comparison
//     rules (multiset, ORDER BY key order, LIMIT ties, 1e-9 relative
//     tolerance on doubles);
//   * across modes, rendered rows must match the baseline exactly (every
//     generated query ORDER BYs all of its output positions, so ordered
//     comparison is sound even under LIMIT);
//   * non-baseline modes must never scan more static bytes than the
//     baseline — fusion and spooling exist to share scans, not add them.
//     Static bytes (ExecMetrics::StaticBytes) are what the plans' own
//     pruning admits. The bytes a run decodes may be fewer, since runtime
//     join filters also skip partitions (DESIGN.md §6.5). A fused plan can
//     lose a runtime prune that the baseline gets: one UNION ALL branch's
//     empty build skips its probe scan, but the fused join's build is not
//     empty. So decoded bytes are not compared across modes;
//   * in every mode, decoded bytes never exceed static bytes.
//
// On divergence the failing query is shrunk via FuzzQuerySpec::Reductions
// (greedy: keep any one-step reduction that still fails) and the minimized
// reproducer is written to sql_fuzz_repro_<seed>_<n>.sql next to the test
// binary, ready to be pasted into the corpus.
//
// Knobs: FUSIONDB_FUZZ_QUERIES (default 500) and FUSIONDB_FUZZ_SEED
// (default 20260807) environment variables.
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "sql/random_query.h"
#include "test_util.h"

#ifndef FUSIONDB_SOURCE_DIR
#define FUSIONDB_SOURCE_DIR "."
#endif

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

constexpr double kFuzzScale = 0.005;
constexpr size_t kPoolRowsPerTable = 24;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::atoll(raw);
}

Engine& FuzzEngine() {
  static Engine& engine = *new Engine(SharedTpcds(kFuzzScale));
  return engine;
}

/// Samples up to kPoolRowsPerTable rows of every table, through the SQL path
/// itself, so generated literals come from live data.
const sql::ValuePool& SharedPool() {
  static sql::ValuePool& pool = *new sql::ValuePool();
  static bool built = false;
  if (built) return pool;
  built = true;
  Engine& engine = FuzzEngine();
  std::vector<std::string> names = engine.catalog().TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    QueryResult result = Unwrap(engine.ExecuteSql(
        "SELECT * FROM " + name + " LIMIT " +
        std::to_string(kPoolRowsPerTable)));
    std::vector<std::vector<Value>>& rows = pool.rows[name];
    for (int64_t r = 0; r < result.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < result.schema().columns().size(); ++c) {
        row.push_back(result.At(r, static_cast<int>(c)));
      }
      rows.push_back(std::move(row));
    }
  }
  return pool;
}

std::string FirstDiff(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  std::ostringstream out;
  out << a.size() << " vs " << b.size() << " rows";
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      out << "; first diff at row " << i << ": [" << a[i] << "] vs ["
          << b[i] << "]";
      return out.str();
    }
  }
  if (a.size() != b.size()) {
    out << "; first " << n << " rows identical, then one side ends";
  }
  return out.str();
}

/// Runs one SQL text through the full differential matrix. Returns a failure
/// description, or nullopt when every configuration agreed. Bind failures
/// are reported with a "bind error" prefix so the minimizer can tell an
/// invalid reduction apart from a reproduced divergence.
std::optional<std::string> RunDifferential(const std::string& sql_text) {
  Engine& engine = FuzzEngine();
  sql::ParseResult parse;
  auto prepared = engine.Prepare(sql_text, &parse);
  if (!prepared.ok()) return "bind error: " + parse.FormatErrors();
  PreparedQuery query = std::move(prepared).ValueOrDie();
  auto expected = reference::EvaluateExpected(query.plan());
  if (!expected.ok()) {
    return "reference evaluation failed: " + expected.status().ToString();
  }

  static const char* kModes[] = {"baseline", "fused", "spooling"};
  std::vector<std::string> baseline_rows;
  int64_t baseline_bytes = 0;
  for (const char* mode : kModes) {
    QueryOptions options = Unwrap(QueryOptions::FromModeName(mode));
    auto optimized = engine.Optimize(&query, options);
    if (!optimized.ok()) {
      return std::string("optimize failed (") + mode +
             "): " + optimized.status().ToString();
    }
    auto result = engine.ExecuteOptimized(*optimized, options);
    if (!result.ok()) {
      return std::string("execute failed (") + mode +
             "): " + result.status().ToString();
    }
    std::string diff =
        reference::Compare(*expected, testutil::RowsOf(*result));
    if (!diff.empty()) {
      return std::string("reference divergence (") + mode + "): " + diff;
    }
    std::vector<std::string> rows = result->RenderRows(false);
    int64_t bytes = result->metrics().StaticBytes();
    if (result->metrics().bytes_scanned > bytes) {
      return std::string("runtime pruning added bytes (") + mode + "): " +
             std::to_string(result->metrics().bytes_scanned) + " vs static " +
             std::to_string(bytes);
    }
    if (std::string(mode) == "baseline") {
      baseline_rows = std::move(rows);
      baseline_bytes = bytes;
    } else {
      if (rows != baseline_rows) {
        return std::string("cross-mode divergence (baseline vs ") + mode +
               "): " + FirstDiff(baseline_rows, rows);
      }
      if (bytes > baseline_bytes) {
        return std::string("scan regression (") + mode + "): " +
               std::to_string(bytes) + " static bytes vs baseline " +
               std::to_string(baseline_bytes);
      }
    }
  }
  return std::nullopt;
}

bool Reproduces(const std::optional<std::string>& failure) {
  return failure.has_value() &&
         failure->rfind("bind error", 0) == std::string::npos;
}

/// Greedy shrink: repeatedly apply the first one-step reduction that still
/// reproduces a (non-bind-error) failure.
sql::FuzzQuerySpec Minimize(sql::FuzzQuerySpec spec) {
  bool reduced = true;
  while (reduced) {
    reduced = false;
    for (sql::FuzzQuerySpec& candidate : sql::Reductions(spec)) {
      if (Reproduces(RunDifferential(candidate.ToSql()))) {
        spec = std::move(candidate);
        reduced = true;
        break;
      }
    }
  }
  return spec;
}

void WriteReproducer(const std::string& path, const std::string& original,
                     const std::string& minimized,
                     const std::string& failure) {
  std::ofstream out(path);
  out << "-- sql_fuzz_test reproducer\n";
  out << "-- failure: " << failure << "\n";
  out << "-- original: " << original << "\n";
  out << minimized << "\n";
}

TEST(SqlFuzzTest, CorpusReplay) {
  std::ifstream corpus(std::string(FUSIONDB_SOURCE_DIR) +
                       "/tests/sql_fuzz_corpus.txt");
  ASSERT_TRUE(corpus.is_open()) << "corpus file missing";
  std::string line;
  size_t replayed = 0;
  while (std::getline(corpus, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto failure = RunDifferential(line);
    EXPECT_FALSE(failure.has_value())
        << "corpus query diverged: " << line << "\n  " << *failure;
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "corpus unexpectedly small";
}

TEST(SqlFuzzTest, GenerativeDifferential) {
  const size_t num_queries =
      static_cast<size_t>(EnvInt("FUSIONDB_FUZZ_QUERIES", 500));
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("FUSIONDB_FUZZ_SEED", 20260807));
  Engine& engine = FuzzEngine();
  const sql::ValuePool& pool = SharedPool();
  std::mt19937_64 rng(seed);

  size_t failures = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    sql::FuzzQuerySpec spec =
        sql::GenerateQuery(engine.catalog(), pool, rng);
    std::string sql_text = spec.ToSql();
    auto failure = RunDifferential(sql_text);
    if (!failure.has_value()) continue;
    if (!Reproduces(failure)) {
      // Generator bug, not an engine bug: every generated query must bind.
      ADD_FAILURE() << "generated query failed to bind (seed " << seed
                    << ", query " << i << "): " << sql_text << "\n  "
                    << *failure;
      ++failures;
      continue;
    }
    sql::FuzzQuerySpec minimized = Minimize(spec);
    std::string minimized_sql = minimized.ToSql();
    std::string repro_path = "sql_fuzz_repro_" + std::to_string(seed) + "_" +
                             std::to_string(i) + ".sql";
    WriteReproducer(repro_path, sql_text, minimized_sql, *failure);
    ADD_FAILURE() << "divergence (seed " << seed << ", query " << i
                  << "): " << *failure << "\n  query: " << sql_text
                  << "\n  minimized: " << minimized_sql
                  << "\n  reproducer: " << repro_path;
    if (++failures >= 5) {
      FAIL() << "too many divergences; stopping early";
    }
  }
  EXPECT_EQ(failures, 0u);
}

}  // namespace
}  // namespace fusiondb
