// Value, Column, Chunk and Schema behaviour.
#include <gtest/gtest.h>

#include "types/chunk.h"
#include "types/schema.h"

namespace fusiondb {
namespace {

TEST(ValueTest, FactoriesAndAccessors) {
  EXPECT_TRUE(Value::Null(DataType::kInt64).is_null());
  EXPECT_EQ(Value::Int64(5).int_value(), 5);
  EXPECT_DOUBLE_EQ(Value::Float64(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Date(123).int_value(), 123);
}

TEST(ValueTest, StructuralEquality) {
  EXPECT_EQ(Value::Int64(3), Value::Int64(3));
  EXPECT_NE(Value::Int64(3), Value::Int64(4));
  // NULLs compare equal structurally (grouping semantics).
  EXPECT_EQ(Value::Null(DataType::kInt64), Value::Null(DataType::kString));
  EXPECT_NE(Value::Null(DataType::kInt64), Value::Int64(0));
  // Int and date share a physical class.
  EXPECT_EQ(Value::Date(9), Value::Int64(9));
  // Int and double do not.
  EXPECT_NE(Value::Int64(1), Value::Float64(1.0));
}

TEST(ValueTest, CompareOrdersNullsFirst) {
  EXPECT_LT(Value::Null(DataType::kInt64).Compare(Value::Int64(-100)), 0);
  EXPECT_EQ(Value::Int64(2).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::Int64(3).Compare(Value::Int64(2)), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  // Mixed numeric comparison promotes to double.
  EXPECT_EQ(Value::Int64(2).Compare(Value::Float64(2.0)), 0);
  EXPECT_LT(Value::Int64(2).Compare(Value::Float64(2.5)), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null(DataType::kInt64).ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
}

TEST(ColumnTest, AppendAndRead) {
  Column c(DataType::kInt64);
  c.AppendInt(10);
  c.AppendNull();
  c.AppendInt(30);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.IntAt(0), 10);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.GetValue(2), Value::Int64(30));
  EXPECT_EQ(c.GetValue(1), Value::Null(DataType::kInt64));
}

TEST(ColumnTest, AppendValueAcrossNumericClasses) {
  Column d(DataType::kFloat64);
  d.AppendValue(Value::Int64(3));  // promoted
  d.AppendValue(Value::Float64(1.5));
  EXPECT_DOUBLE_EQ(d.DoubleAt(0), 3.0);
  EXPECT_DOUBLE_EQ(d.NumericAt(1), 1.5);
}

TEST(ColumnTest, BulkAppendAndByteSize) {
  Column a(DataType::kInt64);
  a.AppendInt(1);
  a.AppendInt(2);
  Column b(DataType::kInt64);
  b.AppendInt(3);
  a.AppendColumn(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.IntAt(2), 3);
  EXPECT_EQ(a.ByteSize(), 24);

  Column s(DataType::kString);
  s.AppendString("abc");
  s.AppendString("de");
  EXPECT_EQ(s.ByteSize(), 5);
}

TEST(ChunkTest, RowOperations) {
  Chunk c = Chunk::Empty({DataType::kInt64, DataType::kString});
  EXPECT_EQ(c.num_rows(), 0u);
  c.columns[0].AppendInt(1);
  c.columns[1].AppendString("x");
  Chunk d = Chunk::Empty({DataType::kInt64, DataType::kString});
  d.AppendRowFrom(c, 0);
  d.AppendChunk(c);
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.columns[1].StringAt(1), "x");
}

TEST(SchemaTest, LookupByIdAndName) {
  Schema s({{1, "a", DataType::kInt64}, {7, "b", DataType::kString}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.IndexOf(7), 1);
  EXPECT_EQ(s.IndexOf(99), -1);
  EXPECT_TRUE(s.Contains(1));
  auto found = s.FindByName("b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->id, 7);
  EXPECT_FALSE(s.FindByName("zz").ok());
  auto type = s.TypeOf(1);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, DataType::kInt64);
  EXPECT_FALSE(s.TypeOf(99).ok());
}

TEST(SchemaTest, AmbiguousNameRejected) {
  Schema s({{1, "a", DataType::kInt64}, {2, "a", DataType::kInt64}});
  EXPECT_FALSE(s.FindByName("a").ok());
}

}  // namespace
}  // namespace fusiondb
