// KeyTable (src/exec/key_table.h), the executor's one hash table over row
// keys: dense first-insertion ids, the NULL flag and NULL semantics, the
// encode/decode round trip, the -0.0 normalization, and partial merging.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exec/key_table.h"

namespace fusiondb::internal {
namespace {

Column Ints(const std::vector<int64_t>& vs) {
  Column c(DataType::kInt64);
  for (int64_t v : vs) c.AppendInt(v);
  return c;
}

TEST(KeyTableTest, IdsAreDenseInFirstInsertionOrder) {
  Column c = Ints({30, 10, 30, 20, 10, 40});
  KeyTable table;
  std::vector<uint32_t> ids;
  std::vector<bool> inserted;
  for (size_t r = 0; r < c.size(); ++r) {
    KeyTable::Slot slot = table.Insert({&c}, r);
    ids.push_back(slot.id);
    inserted.push_back(slot.inserted);
    EXPECT_FALSE(slot.has_null);
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 2, 1, 3}));
  EXPECT_EQ(inserted,
            (std::vector<bool>{true, true, false, true, false, true}));
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.Find({&c}, 3), 2u);
  Column absent = Ints({99});
  EXPECT_EQ(table.Find({&absent}, 0), KeyTable::kNoId);
}

TEST(KeyTableTest, NullKeysGroupTogetherButNeverMatchAProbe) {
  Column a = Ints({1, 1, 1});
  Column b(DataType::kInt64);
  b.AppendNull();
  b.AppendInt(2);
  b.AppendNull();

  // Grouping: NULL equals NULL, so rows 0 and 2 share a key.
  KeyTable groups;
  KeyTable::Slot first = groups.Insert({&a, &b}, 0);
  EXPECT_TRUE(first.has_null);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(groups.Insert({&a, &b}, 1).has_null);
  KeyTable::Slot again = groups.Insert({&a, &b}, 2);
  EXPECT_TRUE(again.has_null);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, first.id);

  // A probe never matches a key with a NULL column.
  EXPECT_EQ(groups.Find({&a, &b}, 2), KeyTable::kNoId);
  EXPECT_EQ(groups.Find({&a, &b}, 1), 1u);
}

TEST(KeyTableTest, DecodeRoundTripsEveryPhysicalType) {
  Column i(DataType::kInt64);
  Column d(DataType::kFloat64);
  Column s(DataType::kString);
  i.AppendInt(-7);
  d.AppendDouble(2.5);
  s.AppendString("hello");
  i.AppendNull();
  d.AppendDouble(-0.0);
  s.AppendString(std::string(300, 'x'));  // multi-byte varint length
  i.AppendInt(INT64_MAX);
  d.AppendNull();
  s.AppendNull();

  KeyTable table;
  for (size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(table.Insert({&i, &d, &s}, r).id, r);
  }
  Column out[3] = {Column(DataType::kInt64), Column(DataType::kFloat64),
                   Column(DataType::kString)};
  table.DecodeAll(out);
  ASSERT_EQ(out[0].size(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(out[0].GetValue(r), i.GetValue(r)) << r;
    EXPECT_EQ(out[1].GetValue(r), d.GetValue(r)) << r;
    EXPECT_EQ(out[2].GetValue(r), s.GetValue(r)) << r;
  }
  // -0.0 decodes as the key it shares with 0.0.
  EXPECT_FALSE(std::signbit(out[1].DoubleAt(1)));
}

TEST(KeyTableTest, NegativeZeroAndZeroAreOneKey) {
  Column d(DataType::kFloat64);
  d.AppendDouble(0.0);
  d.AppendDouble(-0.0);
  KeyTable table;
  EXPECT_TRUE(table.Insert({&d}, 0).inserted);
  KeyTable::Slot neg = table.Insert({&d}, 1);
  EXPECT_FALSE(neg.inserted);
  EXPECT_EQ(neg.id, 0u);
}

TEST(KeyTableTest, MergeKeepsPartialOrderAndRemaps) {
  Column c = Ints({5, 6, 7, 8});
  KeyTable main;
  main.Insert({&c}, 1);  // 6 -> 0
  main.Insert({&c}, 0);  // 5 -> 1
  KeyTable partial;
  partial.Insert({&c}, 2);  // 7 -> 0
  partial.Insert({&c}, 0);  // 5 -> 1
  partial.Insert({&c}, 3);  // 8 -> 2
  int64_t expected_bytes = main.bytes() + partial.bytes();

  std::vector<uint32_t> remap = main.Merge(partial);
  // 7 and 8 are appended in the partial's order; 5 keeps its id.
  EXPECT_EQ(remap, (std::vector<uint32_t>{2, 1, 3}));
  EXPECT_EQ(main.size(), 4u);
  Column decoded(DataType::kInt64);
  main.DecodeAll(&decoded);
  EXPECT_EQ(decoded.GetValue(0), Value::Int64(6));
  EXPECT_EQ(decoded.GetValue(1), Value::Int64(5));
  EXPECT_EQ(decoded.GetValue(2), Value::Int64(7));
  EXPECT_EQ(decoded.GetValue(3), Value::Int64(8));
  for (size_t r = 0; r < c.size(); ++r) {
    uint32_t partial_id = partial.Find({&c}, r);
    if (partial_id != KeyTable::kNoId) {
      EXPECT_EQ(remap[partial_id], main.Find({&c}, r)) << r;
    }
  }
  // The memory metric depends only on the key set: 5 is counted once.
  Column five = Ints({5});
  KeyTable single;
  single.Insert({&five}, 0);
  EXPECT_EQ(main.bytes(), expected_bytes - single.bytes());
}

}  // namespace
}  // namespace fusiondb::internal
