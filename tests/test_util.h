// Shared test helpers: unwrap macros, a lazily-built shared TPC-DS catalog,
// and the Fuse-reconstruction helper used by the fusion test suites.
#ifndef FUSIONDB_TESTS_TEST_UTIL_H_
#define FUSIONDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include "fusiondb.h"
#include "reference_eval.h"

namespace fusiondb::testutil {

/// Unwraps a Result<T>, failing the test with the status message otherwise.
#define FUSIONDB_ASSERT_OK(expr)                                  \
  do {                                                            \
    ::fusiondb::Status _st = (expr);                              \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                      \
  } while (0)

#define FUSIONDB_EXPECT_OK(expr)                                  \
  do {                                                            \
    ::fusiondb::Status _st = (expr);                              \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                      \
  } while (0)

template <typename T>
T Unwrap(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) std::abort();
  return std::move(result).ValueOrDie();
}

/// A TPC-DS catalog at the given scale, built once per process per scale.
inline const Catalog& SharedTpcds(double scale = 0.01) {
  static auto& cache = *new std::map<double, Catalog*>();
  auto it = cache.find(scale);
  if (it == cache.end()) {
    auto* catalog = new Catalog();
    tpcds::TpcdsOptions options;
    options.scale = scale;
    Status st = tpcds::BuildTpcdsCatalog(options, catalog);
    if (!st.ok()) std::abort();
    it = cache.emplace(scale, catalog).first;
  }
  return *it->second;
}

/// Executes a plan, failing the test on error.
inline QueryResult MustExecute(const PlanPtr& plan, size_t chunk_size = 4096) {
  return Unwrap(ExecutePlan(plan, {.chunk_size = chunk_size}));
}

/// Row `r` of `chunk` as the reference evaluator's boxed row.
inline reference::Row RowAt(const Chunk& chunk, size_t r) {
  reference::Row row;
  row.reserve(chunk.num_columns());
  for (const Column& col : chunk.columns) row.push_back(col.GetValue(r));
  return row;
}

/// The engine's output rows in emission order, as the reference evaluator
/// compares them.
inline std::vector<reference::Row> RowsOf(const QueryResult& result) {
  std::vector<reference::Row> rows;
  rows.reserve(static_cast<size_t>(result.num_rows()));
  for (const Chunk& chunk : result.chunks()) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      rows.push_back(RowAt(chunk, r));
    }
  }
  return rows;
}

/// Checks `result`, the engine's execution of `plan`, against the
/// independent reference evaluator (tests/reference_eval.h).
inline void ExpectMatchesReference(const PlanPtr& plan,
                                   const QueryResult& result) {
  reference::Expected expected = Unwrap(reference::EvaluateExpected(plan));
  std::string diff = reference::Compare(expected, RowsOf(result));
  EXPECT_TRUE(diff.empty()) << diff << "\nplan:\n" << PlanToString(plan);
}

/// Builds the reconstruction of one fused side per the Fuse contract:
///   P1 == Project_{outCols(P1)}(Filter_L(P))
///   P2 == Project_{M(outCols(P2))}(Filter_R(P))
/// (`right` selects which side.)
inline PlanPtr Reconstruct(const FuseResult& fused, const PlanPtr& original,
                           bool right) {
  PlanPtr filtered = std::make_shared<FilterOp>(
      fused.plan, right ? fused.right_filter : fused.left_filter);
  std::vector<NamedExpr> exprs;
  for (const ColumnInfo& c : original->schema().columns()) {
    ColumnId source = right ? ApplyMap(fused.mapping, c.id) : c.id;
    int idx = fused.plan->schema().IndexOf(source);
    EXPECT_GE(idx, 0) << "fused plan lacks column #" << source;
    exprs.push_back(
        {c.id, c.name,
         Expr::MakeColumnRef(source, fused.plan->schema().column(idx).type)});
  }
  return std::make_shared<ProjectOp>(filtered, std::move(exprs));
}

/// Asserts that fusing p1 and p2 succeeds and that both reconstructions
/// reproduce the original results exactly (executed, not inspected).
inline FuseResult FuseAndCheck(PlanContext* ctx, const PlanPtr& p1,
                               const PlanPtr& p2) {
  Fuser fuser(ctx);
  auto fused = fuser.Fuse(p1, p2);
  EXPECT_TRUE(fused.has_value()) << "fusion unexpectedly failed";
  if (!fused.has_value()) std::abort();
  QueryResult r1 = MustExecute(p1);
  QueryResult r2 = MustExecute(p2);
  QueryResult f1 = MustExecute(Reconstruct(*fused, p1, /*right=*/false));
  QueryResult f2 = MustExecute(Reconstruct(*fused, p2, /*right=*/true));
  EXPECT_TRUE(ResultsEquivalent(r1, f1))
      << "left reconstruction mismatch:\noriginal:\n"
      << r1.ToString() << "reconstructed:\n"
      << f1.ToString() << "fused plan:\n"
      << PlanToString(fused->plan);
  EXPECT_TRUE(ResultsEquivalent(r2, f2))
      << "right reconstruction mismatch:\noriginal:\n"
      << r2.ToString() << "reconstructed:\n"
      << f2.ToString() << "fused plan:\n"
      << PlanToString(fused->plan);
  return *fused;
}

}  // namespace fusiondb::testutil

#endif  // FUSIONDB_TESTS_TEST_UTIL_H_
