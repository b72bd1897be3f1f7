// Executor: scans (with partition pruning and byte accounting), filters,
// projections, unions, values, limit, sort, enforce-single-row.
#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::Unwrap;

/// numbers(k int64 partitioned by 10, v float64, s string); k = 0..99,
/// v = k * 0.5, s = "s<k%3>"; v NULL when k % 7 == 0.
TablePtr NumbersTable() {
  static TablePtr table = [] {
    TableBuilder b("numbers", {{"k", DataType::kInt64},
                               {"v", DataType::kFloat64},
                               {"s", DataType::kString}});
    EXPECT_TRUE(b.PartitionBy("k", 10).ok());
    for (int64_t i = 0; i < 100; ++i) {
      Value v = i % 7 == 0 ? Value::Null(DataType::kFloat64)
                           : Value::Float64(i * 0.5);
      EXPECT_TRUE(b.AppendRow({Value::Int64(i), v,
                               Value::String("s" + std::to_string(i % 3))})
                      .ok());
    }
    return Unwrap(b.Build());
  }();
  return table;
}

TEST(ScanExecTest, FullScanCountsAllPartitions) {
  PlanContext ctx;
  PlanPtr plan = ScanOp::Make(&ctx, NumbersTable(), {"k", "v"});
  QueryResult r = MustExecute(plan);
  EXPECT_EQ(r.num_rows(), 100);
  EXPECT_EQ(r.metrics().partitions_scanned, 10);
  EXPECT_EQ(r.metrics().partitions_pruned, 0);
  EXPECT_EQ(r.metrics().rows_scanned, 100);
  EXPECT_GT(r.metrics().bytes_scanned, 0);
}

TEST(ScanExecTest, NarrowScanReadsFewerBytes) {
  PlanContext ctx;
  QueryResult wide = MustExecute(ScanOp::Make(&ctx, NumbersTable(),
                                              {"k", "v", "s"}));
  QueryResult narrow = MustExecute(ScanOp::Make(&ctx, NumbersTable(), {"k"}));
  EXPECT_LT(narrow.metrics().bytes_scanned, wide.metrics().bytes_scanned);
}

TEST(ScanExecTest, PartitionPruningByRange) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k", "v"});
  b.Filter(eb::Between(b.Ref("k"), eb::Int(25), eb::Int(44)));
  QueryResult r = MustExecute(b.Build());
  EXPECT_EQ(r.num_rows(), 20);
  // k in [25, 44] spans partitions [20,29], [30,39] and [40,49].
  EXPECT_EQ(r.metrics().partitions_scanned, 3);
  EXPECT_EQ(r.metrics().partitions_pruned, 7);
  EXPECT_EQ(ScanBytes(b.Build()), r.metrics().StaticBytes());
}

TEST(ScanExecTest, PartitionPruningByInList) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  b.Filter(eb::In(b.Ref("k"), {eb::Int(5), eb::Int(95)}));
  QueryResult r = MustExecute(b.Build());
  EXPECT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.metrics().partitions_scanned, 2);
}

// A scan prunes only by the Filter directly above it, through the
// partition column's interval (an OR of windows prunes to their hull) and
// IN points. Other conjuncts on the partition column prune nothing, and a
// Filter that a Project or a Join separates from the scan prunes neither
// the run nor ScanBytes, the figure the server decides sharing on.
TEST(ScanExecTest, PrunesByTheFilterDirectlyAbove) {
  PlanContext ctx;
  TablePtr numbers = NumbersTable();
  auto expect_unpruned = [](const PlanPtr& plan) {
    SCOPED_TRACE(PlanToString(plan));
    QueryResult r = MustExecute(plan);
    EXPECT_EQ(r.metrics().partitions_pruned, 0);
    EXPECT_EQ(ScanBytes(plan), r.metrics().bytes_scanned);
    testutil::ExpectMatchesReference(plan, r);
  };

  PlanBuilder opaque = PlanBuilder::Scan(&ctx, numbers, {"k", "v"});
  ExprPtr k = opaque.Ref("k");
  opaque.Filter(eb::And(eb::Eq(k, k), eb::Gt(eb::Add(k, eb::Int(1)),
                                             eb::Int(5))));
  expect_unpruned(opaque.Build());

  PlanBuilder projected = PlanBuilder::Scan(&ctx, numbers, {"k", "v"});
  projected.Select({"k"});
  projected.Filter(eb::Lt(projected.Ref("k"), eb::Int(20)));
  expect_unpruned(projected.Build());

  PlanBuilder joined = PlanBuilder::Scan(&ctx, numbers, {"k", "s"});
  PlanBuilder names = PlanBuilder::Values(
      &ctx, {"name"}, {DataType::kString},
      {{Value::String("s0")}, {Value::String("s2")}});
  joined.JoinOn(JoinType::kInner, names, {{"s", "name"}});
  joined.Filter(eb::Lt(joined.Ref("k"), eb::Int(20)));
  expect_unpruned(joined.Build());

  auto expect_pruned = [](const PlanPtr& plan, int64_t rows,
                          int64_t partitions_scanned) {
    SCOPED_TRACE(PlanToString(plan));
    QueryResult r = MustExecute(plan);
    EXPECT_EQ(r.num_rows(), rows);
    EXPECT_EQ(r.metrics().partitions_scanned, partitions_scanned);
    EXPECT_EQ(r.metrics().partitions_pruned, 10 - partitions_scanned);
    EXPECT_EQ(ScanBytes(plan), r.metrics().StaticBytes());
    testutil::ExpectMatchesReference(plan, r);
  };

  // Overlapping windows: the hull [12, 37] is their union, partitions
  // [10,19], [20,29] and [30,39].
  PlanBuilder overlapping = PlanBuilder::Scan(&ctx, numbers, {"k", "v"});
  ExprPtr ok = overlapping.Ref("k");
  overlapping.Filter(eb::Or(eb::Between(ok, eb::Int(12), eb::Int(25)),
                            eb::Between(ok, eb::Int(20), eb::Int(37))));
  expect_pruned(overlapping.Build(), 26, 3);

  // Disjoint windows: the hull [5, 64] keeps the seven partitions from
  // [0,9] to [60,69], a superset of the two the windows touch.
  PlanBuilder disjoint = PlanBuilder::Scan(&ctx, numbers, {"k", "v"});
  ExprPtr dk = disjoint.Ref("k");
  disjoint.Filter(eb::Or(eb::Between(dk, eb::Int(5), eb::Int(8)),
                         eb::Between(dk, eb::Int(61), eb::Int(64))));
  expect_pruned(disjoint.Build(), 8, 7);
}

TEST(ScanExecTest, ChunkSizeDoesNotChangeResults) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k", "v", "s"});
  b.Filter(eb::Gt(b.Ref("k"), eb::Int(42)));
  QueryResult big = MustExecute(b.Build(), 4096);
  QueryResult tiny = MustExecute(b.Build(), 3);
  EXPECT_TRUE(ResultsEquivalent(big, tiny));
}

TEST(FilterExecTest, NullPredicateRowsDropped) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k", "v"});
  // v > 10 is NULL where v is NULL: those rows must not pass.
  b.Filter(eb::Gt(b.Ref("v"), eb::Dbl(10.0)));
  QueryResult r = MustExecute(b.Build());
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    EXPECT_FALSE(r.At(i, 1).is_null());
    EXPECT_GT(r.At(i, 1).double_value(), 10.0);
  }
}

TEST(ProjectExecTest, ComputesExpressions) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  b.Project({{"square", eb::Mul(b.Ref("k"), b.Ref("k"))}});
  b.Filter(eb::Eq(b.Ref("square"), eb::Int(49)));
  QueryResult r = MustExecute(b.Build());
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.At(0, 0), Value::Int64(49));
}

TEST(UnionAllExecTest, ConcatenatesChildren) {
  PlanContext ctx;
  PlanBuilder a = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  a.Filter(eb::Lt(a.Ref("k"), eb::Int(3)));
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  b.Filter(eb::Ge(b.Ref("k"), eb::Int(98)));
  QueryResult r = MustExecute(PlanBuilder::UnionAll(&ctx, {a, b}).Build());
  EXPECT_EQ(r.num_rows(), 5);
}

TEST(ValuesExecTest, EmitsConstantRows) {
  PlanContext ctx;
  PlanPtr v = PlanBuilder::Values(&ctx, {"tag", "name"},
                                  {DataType::kInt64, DataType::kString},
                                  {{Value::Int64(1), Value::String("a")},
                                   {Value::Int64(2), Value::String("b")}})
                  .Build();
  QueryResult r = MustExecute(v);
  EXPECT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.At(1, 1), Value::String("b"));
}

TEST(LimitExecTest, TruncatesAcrossChunks) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  b.Limit(17);
  QueryResult r = MustExecute(b.Build(), /*chunk_size=*/5);
  EXPECT_EQ(r.num_rows(), 17);
}

TEST(SortExecTest, OrdersAndIsStable) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k", "s"});
  b.Sort({{"s", true}, {"k", false}});
  QueryResult r = MustExecute(b.Build());
  ASSERT_EQ(r.num_rows(), 100);
  // First block is s0 with k descending.
  EXPECT_EQ(r.At(0, 1), Value::String("s0"));
  EXPECT_EQ(r.At(0, 0), Value::Int64(99));
  EXPECT_EQ(r.At(1, 0), Value::Int64(96));
  // NULLs (none here) would sort first; check ordering of the last block.
  EXPECT_EQ(r.At(99, 1), Value::String("s2"));
}

TEST(SingleRowExecTest, EnforcesCardinality) {
  PlanContext ctx;
  PlanBuilder one = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  one.Filter(eb::Eq(one.Ref("k"), eb::Int(5)));
  one.EnforceSingleRow();
  EXPECT_EQ(MustExecute(one.Build()).num_rows(), 1);

  PlanBuilder many = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  many.EnforceSingleRow();
  auto too_many = ExecutePlan(many.Build());
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kExecutionError);

  PlanBuilder none = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  none.Filter(eb::Lt(none.Ref("k"), eb::Int(0)));
  none.EnforceSingleRow();
  EXPECT_FALSE(ExecutePlan(none.Build()).ok());
}

TEST(QueryResultTest, RenderingAndEquivalence) {
  PlanContext ctx;
  PlanBuilder a = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  a.Filter(eb::Lt(a.Ref("k"), eb::Int(5)));
  QueryResult r1 = MustExecute(a.Build());
  // The same rows in a different order are equivalent (unsorted) but not
  // equal ordered.
  PlanBuilder b = PlanBuilder::Scan(&ctx, NumbersTable(), {"k"});
  b.Filter(eb::Lt(b.Ref("k"), eb::Int(5)));
  b.Sort({{"k", false}});
  QueryResult r2 = MustExecute(b.Build());
  EXPECT_TRUE(ResultsEquivalent(r1, r2));
  EXPECT_FALSE(ResultsEqualOrdered(r1, r2));
  EXPECT_NE(r1.ToString().find("(5 rows)"), std::string::npos);
}

}  // namespace
}  // namespace fusiondb
