// Hash join executor: inner/left/semi/cross, residual predicates (checked
// against the reference evaluator), NULL keys, build sides with one row per
// key, none, or duplicate keys, working-memory accounting, and the runtime
// filters a finished build publishes into the scans under its probe side.
#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::ExpectMatchesReference;
using testutil::MustExecute;
using testutil::Unwrap;

/// left(id, grp): (1,10) (2,20) (3,NULL) (4,40)
TablePtr LeftTable() {
  static TablePtr t = [] {
    TableBuilder b("left_t", {{"id", DataType::kInt64},
                              {"grp", DataType::kInt64}});
    EXPECT_TRUE(b.AppendRow({Value::Int64(1), Value::Int64(10)}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(2), Value::Int64(20)}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(3), Value::Null(DataType::kInt64)})
                    .ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(4), Value::Int64(40)}).ok());
    return Unwrap(b.Build());
  }();
  return t;
}

/// right(ref, tagname): (10,"a") (10,"b") (20,"c") (NULL,"n") (99,"z")
TablePtr RightTable() {
  static TablePtr t = [] {
    TableBuilder b("right_t", {{"ref", DataType::kInt64},
                               {"tagname", DataType::kString}});
    EXPECT_TRUE(b.AppendRow({Value::Int64(10), Value::String("a")}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(10), Value::String("b")}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(20), Value::String("c")}).ok());
    EXPECT_TRUE(
        b.AppendRow({Value::Null(DataType::kInt64), Value::String("n")}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(99), Value::String("z")}).ok());
    return Unwrap(b.Build());
  }();
  return t;
}

/// right_f(val float64): 1.0, 2.5, 4.0, NULL
TablePtr FloatTable() {
  static TablePtr t = [] {
    TableBuilder b("right_f", {{"val", DataType::kFloat64}});
    for (double v : {1.0, 2.5, 4.0}) {
      EXPECT_TRUE(b.AppendRow({Value::Float64(v)}).ok());
    }
    EXPECT_TRUE(b.AppendRow({Value::Null(DataType::kFloat64)}).ok());
    return Unwrap(b.Build());
  }();
  return t;
}

/// unique_t(uref, label): (40,"p") (-3,"q") (10,"r") (NULL,"s") (20,"t"):
/// one row per key, the NULL one included, over a span the direct-address
/// index takes.
TablePtr UniqueTable() {
  static TablePtr t = [] {
    TableBuilder b("unique_t", {{"uref", DataType::kInt64},
                                {"label", DataType::kString}});
    for (auto [k, label] : {std::pair<int64_t, const char*>{40, "p"},
                            {-3, "q"}, {10, "r"}}) {
      EXPECT_TRUE(b.AppendRow({Value::Int64(k), Value::String(label)}).ok());
    }
    EXPECT_TRUE(
        b.AppendRow({Value::Null(DataType::kInt64), Value::String("s")}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(20), Value::String("t")}).ok());
    return Unwrap(b.Build());
  }();
  return t;
}

/// empty_t(uref, label) with no rows.
TablePtr EmptyTable() {
  static TablePtr t = [] {
    TableBuilder b("empty_t", {{"uref", DataType::kInt64},
                               {"label", DataType::kString}});
    return Unwrap(b.Build());
  }();
  return t;
}

std::pair<PlanBuilder, PlanBuilder> Scans(PlanContext* ctx) {
  return {PlanBuilder::Scan(ctx, LeftTable(), {"id", "grp"}),
          PlanBuilder::Scan(ctx, RightTable(), {"ref", "tagname"})};
}

/// Executes `plan` (unoptimized) at `chunk_size` and checks the result
/// against the reference evaluator.
QueryResult RunChecked(const PlanPtr& plan, size_t chunk_size = 4096) {
  QueryResult result = MustExecute(plan, chunk_size);
  ExpectMatchesReference(plan, result);
  return result;
}

TEST(JoinExecTest, InnerJoinMultiplicity) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}});
  QueryResult result = MustExecute(l.Build());
  // id=1 matches two right rows, id=2 one; NULL grp and 40 match none.
  EXPECT_EQ(result.num_rows(), 3);
}

TEST(JoinExecTest, NullKeysNeverJoin) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}});
  QueryResult result = MustExecute(l.Build());
  for (int64_t i = 0; i < result.num_rows(); ++i) {
    EXPECT_FALSE(result.At(i, 1).is_null());
    EXPECT_FALSE(result.At(i, 2).is_null());
  }
}

TEST(JoinExecTest, LeftJoinNullExtends) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.JoinOn(JoinType::kLeft, r, {{"grp", "ref"}});
  QueryResult result = MustExecute(l.Build());
  // 3 matches + 2 unmatched left rows (id=3 NULL grp, id=4).
  EXPECT_EQ(result.num_rows(), 5);
  int nulls = 0;
  for (int64_t i = 0; i < result.num_rows(); ++i) {
    nulls += result.At(i, 3).is_null() ? 1 : 0;
  }
  EXPECT_EQ(nulls, 2);
}

TEST(JoinExecTest, SemiJoinEmitsLeftOnce) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.Join(JoinType::kSemi, r, eb::Eq(l.Ref("grp"), r.Ref("ref")));
  QueryResult result = MustExecute(l.Build());
  // id=1 (despite two matches) and id=2.
  EXPECT_EQ(result.num_rows(), 2);
  EXPECT_EQ(result.schema().num_columns(), 2u);
}

TEST(JoinExecTest, ResidualPredicate) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  // Equi join + non-equi residual on the right string column.
  l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}},
           eb::Ne(r.Ref("tagname"), eb::Str("a")));
  QueryResult result = RunChecked(l.Build());
  EXPECT_EQ(result.num_rows(), 2);  // (1,b) and (2,c)
}

TEST(JoinExecTest, LeftJoinNullExtendsWhenResidualRejectsEveryPair) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  // id=2's key matches only (20,"c"), which the residual rejects.
  l.JoinOn(JoinType::kLeft, r, {{"grp", "ref"}},
           eb::Ne(r.Ref("tagname"), eb::Str("c")));
  QueryResult result = RunChecked(l.Build());
  // (1,a) (1,b), then id=2, 3 and 4 null-extended.
  EXPECT_EQ(result.num_rows(), 5);
  EXPECT_TRUE(result.At(2, 3).is_null());
}

TEST(JoinExecTest, SemiJoinEmitsLeftOnceWhenSeveralPairsPass) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  // Both of id=1's bucket rows, (10,"a") and (10,"b"), pass.
  l.Join(JoinType::kSemi, r,
         eb::And(eb::Eq(l.Ref("grp"), r.Ref("ref")),
                 eb::Ne(r.Ref("tagname"), eb::Str("z"))));
  QueryResult result = RunChecked(l.Build());
  EXPECT_EQ(result.num_rows(), 2);  // id=1 once, id=2
}

TEST(JoinExecTest, NullResidualRejectsThePair) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  // NULL OR (tagname = 'a'): TRUE only for (10,"a"); NULL everywhere else.
  l.JoinOn(JoinType::kLeft, r, {{"grp", "ref"}},
           eb::Or(eb::Ne(r.Ref("tagname"), eb::NullOf(DataType::kString)),
                  eb::Eq(r.Ref("tagname"), eb::Str("a"))));
  QueryResult result = RunChecked(l.Build());
  // (1,a), then id=2, 3 and 4 null-extended.
  EXPECT_EQ(result.num_rows(), 4);
}

TEST(JoinExecTest, KeylessResidualBatchesSplitALeftRowsPairs) {
  // 4 left x 5 right rows give 20 candidate pairs. At chunk_size 7 the
  // first batch ends inside id=2's pairs (candidates 5..9), so its matches
  // and its null extension straddle two batches.
  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi}) {
    PlanContext ctx;
    auto [l, r] = Scans(&ctx);
    l.Join(type, r, eb::Lt(l.Ref("grp"), r.Ref("ref")));
    RunChecked(l.Build(), /*chunk_size=*/7);
  }
}

TEST(JoinExecTest, ConstantResidualBesideAKeyPairSeesEveryPair) {
  // A residual that reads no column still filters each candidate pair. The
  // plans are executed as built, so nothing folds the constant away. NULL
  // IS NULL is a TRUE the join cannot drop the way it drops a TRUE literal.
  // The residual's gathered chunk has no columns, so it reports zero rows:
  // the OR forms check that narrowing is bounded by the pairs, not by it.
  struct Case {
    ExprPtr constant;
    bool passes;
  };
  const Case cases[] = {
      {eb::IsNull(eb::NullOf(DataType::kInt64)), true},
      {eb::NullOf(DataType::kBool), false},
      {eb::Or(eb::NullOf(DataType::kBool), eb::True()), true},
      {eb::Or(eb::NullOf(DataType::kBool), eb::False()), false},
  };
  for (const Case& c : cases) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi}) {
      PlanContext ctx;
      auto [l, r] = Scans(&ctx);
      l.Join(type, r,
             eb::And(eb::Eq(l.Ref("grp"), r.Ref("ref")), c.constant));
      QueryResult result = RunChecked(l.Build());
      // Key matches: id 1 (twice) and id 2 (once). LEFT adds ids 3 and 4,
      // or null-extends all four left rows when no pair passes.
      size_t expect = type == JoinType::kInner  ? (c.passes ? 3 : 0)
                      : type == JoinType::kLeft ? (c.passes ? 5 : 4)
                                                : (c.passes ? 2 : 0);
      EXPECT_EQ(result.num_rows(), expect)
          << c.constant->ToString() << " join type "
          << static_cast<int>(type);
    }
  }
}

// Every join type on grp (10, 20, NULL, 40) against a build side with one
// row per key, an empty one, and one with duplicate keys, with and without
// a residual: the direct-address probe, the empty build and the hashed
// duplicate keys must all match the reference evaluator.
TEST(JoinExecTest, UniqueEmptyAndDuplicateBuildSidesMatchReference) {
  struct Build {
    const char* name;
    TablePtr table;
  };
  const Build builds[] = {{"unique", UniqueTable()},
                          {"empty", EmptyTable()},
                          {"duplicate", nullptr}};
  for (const Build& build : builds) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi}) {
      for (bool residual : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << build.name << " build, join type "
                     << static_cast<int>(type) << ", residual " << residual);
        PlanContext ctx;
        auto [l, dup] = Scans(&ctx);
        PlanBuilder r =
            build.table == nullptr
                ? dup
                : PlanBuilder::Scan(&ctx, build.table, {"uref", "label"});
        const std::string key = build.table == nullptr ? "ref" : "uref";
        const std::string text = build.table == nullptr ? "tagname" : "label";
        ExprPtr cond = eb::Eq(l.Ref("grp"), r.Ref(key));
        if (residual) cond = eb::And(cond, eb::Ne(r.Ref(text), eb::Str("r")));
        l.Join(type, r, cond);
        RunChecked(l.Build());
      }
    }
  }
}

// A probe chunk longer than chunk_size: the first join emits three rows
// from a two-row chunk, and the direct-address probe above it sends its
// candidates through the residual chunk_size pairs at a time.
TEST(JoinExecTest, DirectAddressProbeBatchesALongChunk) {
  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi}) {
    for (bool residual : {false, true}) {
      PlanContext ctx;
      auto [l, r] = Scans(&ctx);
      l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}});
      PlanBuilder u = PlanBuilder::Scan(&ctx, UniqueTable(), {"uref", "label"});
      ExprPtr cond = eb::Eq(l.Ref("grp"), u.Ref("uref"));
      if (residual) cond = eb::And(cond, eb::Ne(l.Ref("tagname"), eb::Str("b")));
      l.Join(type, u, cond);
      QueryResult result = RunChecked(l.Build(), /*chunk_size=*/2);
      // (1,a) (1,b) (2,c) all find their key; the residual drops (1,b).
      size_t expect = residual ? 2 : 3;
      EXPECT_EQ(result.num_rows(), type == JoinType::kLeft ? 3 : expect)
          << static_cast<int>(type) << " " << residual;
    }
  }
}

TEST(JoinExecTest, MixedTypeEquiPairRunsAsResidual) {
  // int64 = float64 keys encode differently, so the pair is a residual.
  PlanContext ctx;
  PlanBuilder l = PlanBuilder::Scan(&ctx, LeftTable(), {"id", "grp"});
  PlanBuilder f = PlanBuilder::Scan(&ctx, FloatTable(), {"val"});
  l.Join(JoinType::kInner, f, eb::Eq(l.Ref("id"), f.Ref("val")));
  QueryResult result = RunChecked(l.Build());
  EXPECT_EQ(result.num_rows(), 2);  // id=1 and id=4
}

TEST(JoinExecTest, PureNonEquiFallsBackToNestedLoop) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.Join(JoinType::kInner, r, eb::Lt(l.Ref("grp"), r.Ref("ref")));
  QueryResult result = RunChecked(l.Build());
  // grp=10 < {20,99} => 2; grp=20 < {99} => 1; grp=40 < {99} => 1.
  EXPECT_EQ(result.num_rows(), 4);
}

TEST(JoinExecTest, CrossJoinFullProduct) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.CrossJoin(r);
  QueryResult result = MustExecute(l.Build());
  EXPECT_EQ(result.num_rows(), 20);
}

TEST(JoinExecTest, BuildSideMemoryAccounted) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}});
  QueryResult result = MustExecute(l.Build());
  EXPECT_GT(result.metrics().peak_hash_bytes, 0);
}

TEST(JoinExecTest, SelfJoinWithInequality) {
  // The Q95 ws_wh shape: self-join on a key with an inequality residual.
  PlanContext ctx;
  PlanBuilder a = PlanBuilder::Scan(&ctx, RightTable(), {"ref", "tagname"});
  PlanBuilder b = PlanBuilder::Scan(&ctx, RightTable(), {"ref", "tagname"});
  ExprPtr cond = eb::And(eb::Eq(a.Ref("ref"), b.Ref("ref")),
                         eb::Ne(a.Ref("tagname"), b.Ref("tagname")));
  a.Join(JoinType::kInner, b, cond);
  QueryResult result = RunChecked(a.Build());
  // ref=10 has two rows with different tags -> (a,b) and (b,a).
  EXPECT_EQ(result.num_rows(), 2);
}

// --- runtime join filters (DESIGN.md §6.5) ----------------------------------

/// fact(f_date, f_item, f_val) in ten partitions of f_date (width 10):
/// row r has f_date r % 100, f_item r % 7 (NULL on every 17th row) and
/// f_val r.
TablePtr FactTable() {
  static TablePtr t = [] {
    TableBuilder b("fact", {{"f_date", DataType::kInt64},
                            {"f_item", DataType::kInt64},
                            {"f_val", DataType::kInt64}});
    EXPECT_TRUE(b.PartitionBy("f_date", 10).ok());
    for (int64_t r = 0; r < 300; ++r) {
      Value item = r % 17 == 0 ? Value::Null(DataType::kInt64)
                               : Value::Int64(r % 7);
      EXPECT_TRUE(
          b.AppendRow({Value::Int64(r % 100), item, Value::Int64(r)}).ok());
    }
    return Unwrap(b.Build());
  }();
  return t;
}

/// dim(d_sk, d_tag): keys 12, 15, 47 (twice) and NULL, so the build's keys
/// fall in the fact partitions [10, 19] and [40, 49].
TablePtr DimTable() {
  static TablePtr t = [] {
    TableBuilder b("dim", {{"d_sk", DataType::kInt64},
                           {"d_tag", DataType::kString}});
    for (auto [k, tag] : {std::pair<int64_t, const char*>{47, "a"},
                          {12, "b"}, {47, "c"}, {15, "d"}}) {
      EXPECT_TRUE(b.AppendRow({Value::Int64(k), Value::String(tag)}).ok());
    }
    EXPECT_TRUE(
        b.AppendRow({Value::Null(DataType::kInt64), Value::String("n")}).ok());
    return Unwrap(b.Build());
  }();
  return t;
}

/// null_dim(d_sk, d_tag): one row, whose key is NULL.
TablePtr NullKeyDimTable() {
  static TablePtr t = [] {
    TableBuilder b("null_dim", {{"d_sk", DataType::kInt64},
                                {"d_tag", DataType::kString}});
    EXPECT_TRUE(
        b.AppendRow({Value::Null(DataType::kInt64), Value::String("n")}).ok());
    return Unwrap(b.Build());
  }();
  return t;
}

/// The bytes of fact's `columns` in the partitions none of `keys` falls in.
int64_t FactBytesOutside(const std::vector<std::string>& columns,
                         const std::vector<int64_t>& keys) {
  const TablePtr& fact = FactTable();
  int64_t bytes = 0;
  for (const Partition& p : fact->partitions()) {
    bool hit = false;
    for (int64_t k : keys) hit |= k >= p.min_key && k <= p.max_key;
    if (hit) continue;
    for (const std::string& c : columns) {
      bytes += p.column_bytes[static_cast<size_t>(fact->ColumnIndex(c))];
    }
  }
  return bytes;
}

/// The bytes a plan over fact's `columns` and dim's two columns reads
/// with static pruning alone (neither scan has a Filter directly above it).
int64_t StaticFactDimBytes(const std::vector<std::string>& columns,
                           const TablePtr& dim) {
  std::vector<int> indexes;
  for (const std::string& c : columns) {
    indexes.push_back(FactTable()->ColumnIndex(c));
  }
  return FactTable()->BytesOf(indexes) + dim->BytesOf({0, 1});
}

TEST(JoinRuntimeFilterTest, BuildKeysPruneProbePartitionsOutsideThem) {
  PlanContext ctx;
  PlanBuilder f = PlanBuilder::Scan(&ctx, FactTable(), {"f_date", "f_val"});
  PlanBuilder d = PlanBuilder::Scan(&ctx, DimTable(), {"d_sk", "d_tag"});
  f.JoinOn(JoinType::kInner, d, {{"f_date", "d_sk"}});
  QueryResult result = RunChecked(f.Build());
  ASSERT_EQ(FactTable()->partitions().size(), 10u);
  const ExecMetrics& m = result.metrics();
  EXPECT_EQ(m.partitions_pruned, 8);
  EXPECT_EQ(m.runtime_pruned_partitions, 8);
  EXPECT_EQ(m.partitions_scanned, 3);  // two fact partitions, one dim
  EXPECT_EQ(m.runtime_pruned_bytes,
            FactBytesOutside({"f_date", "f_val"}, {12, 15, 47}));
  EXPECT_GT(m.runtime_pruned_bytes, 0);
  EXPECT_EQ(m.StaticBytes(),
            StaticFactDimBytes({"f_date", "f_val"}, DimTable()));
  // The scan's slot carries the same counts as the query.
  int64_t slot_pruned = 0;
  int64_t slot_runtime_bytes = 0;
  for (const OperatorStats& s : result.operator_stats()) {
    slot_pruned += s.runtime_pruned_partitions;
    slot_runtime_bytes += s.runtime_pruned_bytes;
  }
  EXPECT_EQ(slot_pruned, 8);
  EXPECT_EQ(slot_runtime_bytes, m.runtime_pruned_bytes);
}

// A build with no non-NULL key matches no probe row, so it prunes every
// partition of each target scan, on the partitioning column or not.
TEST(JoinRuntimeFilterTest, EmptyOrAllNullBuildPrunesEveryPartition) {
  for (bool null_keys : {false, true}) {
    for (const char* key : {"f_date", "f_item"}) {
      SCOPED_TRACE(std::string(null_keys ? "NULL-key" : "empty") +
                   " build on " + key);
      PlanContext ctx;
      PlanBuilder f = PlanBuilder::Scan(&ctx, FactTable(), {key, "f_val"});
      PlanBuilder d = PlanBuilder::Scan(
          &ctx, null_keys ? NullKeyDimTable() : DimTable(), {"d_sk", "d_tag"});
      if (!null_keys) d.Filter(eb::Lt(d.Ref("d_sk"), eb::Int(0)));
      f.JoinOn(JoinType::kInner, d, {{key, "d_sk"}});
      QueryResult result = RunChecked(f.Build());
      const ExecMetrics& m = result.metrics();
      EXPECT_EQ(result.num_rows(), 0);
      EXPECT_EQ(m.runtime_pruned_partitions, 10);
      EXPECT_EQ(m.partitions_scanned, 1);  // the dim's only partition
      EXPECT_EQ(m.runtime_pruned_bytes, FactBytesOutside({key, "f_val"}, {}));
      EXPECT_EQ(m.StaticBytes(),
                StaticFactDimBytes({key, "f_val"},
                                   null_keys ? NullKeyDimTable() : DimTable()));
    }
  }
}

// A left join keeps every probe row, matched or not, so it never prunes.
TEST(JoinRuntimeFilterTest, LeftJoinNeverPrunesItsProbeSide) {
  for (bool empty : {false, true}) {
    PlanContext ctx;
    PlanBuilder f = PlanBuilder::Scan(&ctx, FactTable(), {"f_date", "f_val"});
    PlanBuilder d = PlanBuilder::Scan(&ctx, DimTable(), {"d_sk", "d_tag"});
    if (empty) d.Filter(eb::Lt(d.Ref("d_sk"), eb::Int(0)));
    f.JoinOn(JoinType::kLeft, d, {{"f_date", "d_sk"}});
    QueryResult result = RunChecked(f.Build());
    EXPECT_EQ(result.num_rows(), 300 + (empty ? 0 : 3));  // 47 twice
    EXPECT_EQ(result.metrics().partitions_pruned, 0);
    EXPECT_EQ(result.metrics().runtime_pruned_bytes, 0);
  }
}

TEST(JoinRuntimeFilterTest, SemiJoinPrunesLikeAnInnerJoin) {
  PlanContext ctx;
  PlanBuilder f = PlanBuilder::Scan(&ctx, FactTable(), {"f_date", "f_val"});
  PlanBuilder d = PlanBuilder::Scan(&ctx, DimTable(), {"d_sk", "d_tag"});
  f.Join(JoinType::kSemi, d, eb::Eq(f.Ref("f_date"), d.Ref("d_sk")));
  QueryResult result = RunChecked(f.Build());
  EXPECT_EQ(result.num_rows(), 9);  // three rows each of 12, 15 and 47
  EXPECT_EQ(result.metrics().runtime_pruned_partitions, 8);
  EXPECT_EQ(result.metrics().runtime_pruned_bytes,
            FactBytesOutside({"f_date", "f_val"}, {12, 15, 47}));
}

// The key reaches the scan through a Project that renames it and a Filter;
// a computed key does not reach it.
TEST(JoinRuntimeFilterTest, KeyRenamedThroughAProjectStillPrunes) {
  for (bool computed : {false, true}) {
    SCOPED_TRACE(computed ? "computed key" : "renamed key");
    PlanContext ctx;
    PlanBuilder f = PlanBuilder::Scan(&ctx, FactTable(), {"f_date", "f_val"});
    f.Filter(eb::Gt(f.Ref("f_val"), eb::Int(5)));
    ExprPtr key = computed ? eb::Add(f.Ref("f_date"), eb::Int(0))
                           : f.Ref("f_date");
    f.Project({{"day", key}, {"val", f.Ref("f_val")}});
    PlanBuilder d = PlanBuilder::Scan(&ctx, DimTable(), {"d_sk", "d_tag"});
    f.JoinOn(JoinType::kInner, d, {{"day", "d_sk"}});
    QueryResult result = RunChecked(f.Build());
    EXPECT_EQ(result.metrics().runtime_pruned_partitions, computed ? 0 : 8);
  }
}

// The key reaches a scan node that the probe subtree builds twice (a
// shared subplan): the join cannot tell which of the two sources the key
// reaches, so neither gets the filter.
TEST(JoinRuntimeFilterTest, ScanBuiltTwiceInTheProbeSideGetsNoFilter) {
  PlanContext ctx;
  PlanPtr shared =
      PlanBuilder::Scan(&ctx, FactTable(), {"f_date", "f_item"}).Build();
  PlanBuilder a = PlanBuilder::From(&ctx, shared);
  PlanBuilder b = PlanBuilder::From(&ctx, shared);
  b.Project({{"item2", b.Ref("f_item")}});
  a.JoinOn(JoinType::kInner, b, {{"f_item", "item2"}});
  PlanBuilder d = PlanBuilder::Scan(&ctx, DimTable(), {"d_sk", "d_tag"});
  a.JoinOn(JoinType::kInner, d, {{"f_date", "d_sk"}});
  QueryResult result = RunChecked(a.Build());
  EXPECT_GT(result.num_rows(), 0);
  EXPECT_EQ(result.metrics().partitions_pruned, 0);
}

// Two joins narrow one scan: the date build keeps two partitions and the
// item build, a key off the partitioning column, prunes nothing more; an
// empty item build then prunes everything the date build left.
TEST(JoinRuntimeFilterTest, FiltersOfNestedJoinsIntersect) {
  for (bool empty_items : {false, true}) {
    SCOPED_TRACE(empty_items ? "empty item build" : "item build");
    PlanContext ctx;
    PlanBuilder f = PlanBuilder::Scan(&ctx, FactTable(),
                                      {"f_date", "f_item", "f_val"});
    PlanBuilder items =
        PlanBuilder::Scan(&ctx, UniqueTable(), {"uref", "label"});
    if (empty_items) items.Filter(eb::Gt(items.Ref("uref"), eb::Int(100)));
    f.JoinOn(JoinType::kInner, items, {{"f_item", "uref"}});
    PlanBuilder d = PlanBuilder::Scan(&ctx, DimTable(), {"d_sk", "d_tag"});
    f.JoinOn(JoinType::kInner, d, {{"f_date", "d_sk"}});
    QueryResult result = RunChecked(f.Build());
    EXPECT_EQ(result.metrics().runtime_pruned_partitions, empty_items ? 10 : 8);
  }
}

}  // namespace
}  // namespace fusiondb
