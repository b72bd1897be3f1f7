// Table building, partitioning, key metadata, byte accounting, and the
// column-page encoding roundtrip.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>

#include "catalog/catalog.h"
#include "catalog/encoding.h"

namespace fusiondb {
namespace {

Result<TablePtr> MakePartitionedTable() {
  TableBuilder b("t", {{"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  FUSIONDB_RETURN_IF_ERROR(b.PartitionBy("k", 10));
  for (int64_t i = 0; i < 100; ++i) {
    FUSIONDB_RETURN_IF_ERROR(
        b.AppendRow({Value::Int64(i), Value::Float64(i * 0.5)}));
  }
  return b.Build();
}

TEST(TableBuilderTest, PartitionsByBucket) {
  auto table = MakePartitionedTable();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->partitions().size(), 10u);
  EXPECT_EQ((*table)->num_rows(), 100);
  // Partition min/max ranges must tile the key space.
  for (const Partition& p : (*table)->partitions()) {
    EXPECT_EQ(p.num_rows(), 10u);
    EXPECT_EQ(p.max_key - p.min_key, 9);
  }
}

TEST(TableBuilderTest, UnpartitionedSinglePartition) {
  TableBuilder b("t", {{"x", DataType::kInt64}});
  ASSERT_TRUE(b.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(2)}).ok());
  auto table = b.Build();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->partitions().size(), 1u);
}

TEST(TableBuilderTest, EmptyTableHasSchemaPartition) {
  TableBuilder b("t", {{"x", DataType::kInt64}});
  auto table = b.Build();
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->partitions().size(), 1u);
  EXPECT_EQ((*table)->num_rows(), 0);
}

TEST(TableBuilderTest, RejectsArityMismatchAndBadColumns) {
  TableBuilder b("t", {{"x", DataType::kInt64}});
  EXPECT_FALSE(b.AppendRow({Value::Int64(1), Value::Int64(2)}).ok());
  EXPECT_FALSE(b.PartitionBy("nope", 10).ok());
  TableBuilder s("t2", {{"x", DataType::kString}});
  EXPECT_FALSE(s.PartitionBy("x", 10).ok());
  EXPECT_FALSE(b.SetPrimaryKey({"nope"}).ok());
}

TEST(TableBuilderTest, PrimaryKeyRecorded) {
  TableBuilder b("t", {{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  ASSERT_TRUE(b.SetPrimaryKey({"b"}).ok());
  auto table = b.Build();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->primary_key(), std::vector<int>{1});
}

TEST(TableTest, BytesOfSelectsColumns) {
  auto table = MakePartitionedTable();
  ASSERT_TRUE(table.ok());
  int64_t both = (*table)->BytesOf({0, 1});
  int64_t first = (*table)->BytesOf({0});
  EXPECT_GT(both, first);
  EXPECT_GT(first, 0);
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  auto table = MakePartitionedTable();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(catalog.RegisterTable(*table).ok());
  EXPECT_TRUE(catalog.GetTable("t").ok());
  EXPECT_FALSE(catalog.GetTable("missing").ok());
  // Duplicate registration rejected.
  EXPECT_FALSE(catalog.RegisterTable(*table).ok());
  EXPECT_FALSE(catalog.RegisterTable(nullptr).ok());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
}

// --- Encoding roundtrips -----------------------------------------------------

Column RandomColumn(DataType type, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Column c(type);
  for (size_t i = 0; i < n; ++i) {
    if (rng() % 10 == 0) {
      c.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kBool:
        c.AppendBool(rng() % 2 == 0);
        break;
      case DataType::kInt64:
      case DataType::kDate:
        c.AppendInt(static_cast<int64_t>(rng()) % 1000000 - 500000);
        break;
      case DataType::kFloat64:
        c.AppendDouble(static_cast<double>(rng() % 100000) / 7.0);
        break;
      case DataType::kString:
        c.AppendString(std::string(rng() % 20, 'a' + rng() % 26));
        break;
    }
  }
  return c;
}

/// Expects `a` and `b` to hold the same bytes: validity, and every slot of
/// the physical type's buffer, NULL slots included (compared bitwise, so
/// -0.0 and NaN patterns count).
void ExpectSameBytes(const Column& a, const Column& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.valid_data()[i], b.valid_data()[i]) << "row " << i;
    switch (PhysicalTypeOf(a.type())) {
      case PhysicalType::kInt:
        ASSERT_EQ(a.IntAt(i), b.IntAt(i)) << "row " << i;
        break;
      case PhysicalType::kDouble:
        ASSERT_EQ(std::bit_cast<uint64_t>(a.DoubleAt(i)),
                  std::bit_cast<uint64_t>(b.DoubleAt(i)))
            << "row " << i;
        break;
      case PhysicalType::kString:
        ASSERT_EQ(a.StringAt(i), b.StringAt(i)) << "row " << i;
        break;
    }
  }
}

Result<Column> Roundtrip(const Column& c) {
  EncodedColumn page = EncodeColumn(c);
  EXPECT_EQ(page.num_rows, c.size());
  return DecodeColumn(page);
}

class EncodingRoundtripTest
    : public ::testing::TestWithParam<std::tuple<DataType, size_t>> {};

TEST_P(EncodingRoundtripTest, Roundtrips) {
  auto [type, n] = GetParam();
  Column original = RandomColumn(type, n, 1234 + n);
  auto decoded = Roundtrip(original);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameBytes(*decoded, original);
}

// Row counts around the eight-row bitmap expansion and a 4096-row page.
INSTANTIATE_TEST_SUITE_P(
    AllTypes, EncodingRoundtripTest,
    ::testing::Combine(::testing::Values(DataType::kBool, DataType::kInt64,
                                         DataType::kDate, DataType::kFloat64,
                                         DataType::kString),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{7},
                                         size_t{8}, size_t{9}, size_t{4095},
                                         size_t{4096}, size_t{4097})));

/// `n` int64 rows cycling through `values`, NULL where i % 5 == 3 when
/// `nulls` is set.
Column Cycle(const std::vector<int64_t>& values, size_t n, bool nulls) {
  Column c(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) {
    if (nulls && i % 5 == 3) {
      c.AppendNull();
    } else {
      c.AppendInt(values[i % values.size()]);
    }
  }
  return c;
}

TEST(EncodingTest, ExtremeIntsRoundtrip) {
  // Deltas between INT64_MIN, INT64_MAX and 0 wrap. MIN -> MAX is -1 (one
  // byte); MAX -> 0 and 0 -> MIN zigzag to ten-byte varints, read by both
  // the unchecked and the checked decoder. MIN / 0 alone is all ten-byte.
  for (const std::vector<int64_t>& values :
       {std::vector<int64_t>{INT64_MIN, INT64_MAX},
        std::vector<int64_t>{INT64_MIN, INT64_MAX, 0},
        std::vector<int64_t>{INT64_MIN, 0}}) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{9}, size_t{4097}}) {
      Column c = Cycle(values, n, /*nulls=*/true);
      auto decoded = Roundtrip(c);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ExpectSameBytes(*decoded, c);
    }
  }
  EXPECT_EQ(EncodeColumn(Cycle({INT64_MIN, 0}, 16, false)).ByteSize(),
            2 + 16 * 10);
}

TEST(EncodingTest, FloatBitPatternsSurvive) {
  Column c(DataType::kFloat64);
  for (int i = 0; i < 20; ++i) {
    c.AppendDouble(-0.0);
    c.AppendDouble(std::numeric_limits<double>::quiet_NaN());
    c.AppendNull();
    c.AppendDouble(-std::numeric_limits<double>::quiet_NaN());
    c.AppendDouble(0.0);
    c.AppendDouble(-1.5 * i);
  }
  auto decoded = Roundtrip(c);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameBytes(*decoded, c);
}

/// A page of `rows` rows, all valid, whose body after the bitmap is `body`.
EncodedColumn RawPage(DataType type, uint32_t rows, std::string body) {
  EncodedColumn page;
  page.type = type;
  page.num_rows = rows;
  page.buffer.assign((rows + 7) / 8, '\xFF');
  page.buffer += body;
  return page;
}

void ExpectCorrupt(const EncodedColumn& page, const char* what) {
  auto decoded = DecodeColumn(page);
  ASSERT_FALSE(decoded.ok()) << what;
  EXPECT_EQ(decoded.status().code(), StatusCode::kExecutionError) << what;
}

TEST(EncodingTest, CorruptPagesFailGracefully) {
  Column c(DataType::kInt64);
  for (int i = 0; i < 100; ++i) c.AppendInt(i * 1000);
  EncodedColumn page = EncodeColumn(c);
  // A varint cut long before the end: the unchecked loop hands over to the
  // checked one, which runs out of bytes.
  page.buffer.resize(page.buffer.size() / 2);
  ExpectCorrupt(page, "varint cut early");
  page.buffer.resize(5);
  ExpectCorrupt(page, "truncated bitmap");
  page.buffer.clear();
  ExpectCorrupt(page, "empty page");
}

TEST(EncodingTest, VarintCutInsideLastTenBytes) {
  // Every row a ten-byte varint, so each cut ends inside the last one.
  EncodedColumn page = EncodeColumn(Cycle({INT64_MIN, 0}, 50, false));
  for (size_t cut = 1; cut < 10; ++cut) {
    EncodedColumn short_page = page;
    short_page.buffer.resize(page.buffer.size() - cut);
    ExpectCorrupt(short_page, "varint cut in the tail");
  }
}

TEST(EncodingTest, ElevenByteVarintIsCorrupt) {
  // Ten continuation bytes: longer than any 64-bit varint.
  std::string eleven(10, '\x80');
  eleven.push_back('\x01');
  ExpectCorrupt(RawPage(DataType::kInt64, 1, eleven), "11-byte varint");
  ExpectCorrupt(RawPage(DataType::kInt64, 2, eleven + '\x00'),
                "11-byte varint, then a row");
  ExpectCorrupt(RawPage(DataType::kInt64, 2, std::string("\x02") + eleven),
                "11-byte varint after a row");
}

TEST(EncodingTest, FloatPageOneByteShortIsCorrupt) {
  Column c(DataType::kFloat64);
  for (int i = 0; i < 33; ++i) c.AppendDouble(i * 0.25);
  EncodedColumn page = EncodeColumn(c);
  page.buffer.pop_back();
  ExpectCorrupt(page, "float64 page one byte short");
}

TEST(EncodingTest, StringLengthOverrunIsCorrupt) {
  ExpectCorrupt(RawPage(DataType::kString, 1, "\x64" "abcde"),
                "length 100, 5 bytes");
  // A length near 2^64 must not wrap the bounds check.
  std::string huge(9, '\xFF');
  huge.push_back('\x01');
  ExpectCorrupt(RawPage(DataType::kString, 1, huge + "abc"),
                "length near 2^64");
  ExpectCorrupt(RawPage(DataType::kString, 1, "\x80"), "truncated length");
}

TEST(EncodingTest, DeltaEncodingCompressesSortedKeys) {
  Column sorted(DataType::kInt64);
  for (int i = 0; i < 10000; ++i) sorted.AppendInt(2450815 + i);
  EncodedColumn page = EncodeColumn(sorted);
  // Delta+varint: sorted surrogate keys take ~1-2 bytes each, far below the
  // 8-byte raw width.
  EXPECT_LT(page.ByteSize(), 10000 * 3);
}

}  // namespace
}  // namespace fusiondb
