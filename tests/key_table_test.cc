// KeyTable (src/exec/key_table.h), the executor's one hash table over row
// keys: dense first-insertion ids, NULL semantics, the encode/decode round
// trip, the -0.0 normalization, partial merging and the memory metric, the
// sealed table's direct-address index against the hash path, plus a
// randomized oracle over both key layouts, growth and colliding hashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include "exec/key_table.h"

namespace fusiondb::internal {
namespace {

Column Ints(const std::vector<int64_t>& vs) {
  Column c(DataType::kInt64);
  for (int64_t v : vs) c.AppendInt(v);
  return c;
}

/// Inserts rows [0, n) of `columns` in one batch; returns the ids.
std::vector<uint32_t> InsertAll(KeyTable* table, const KeyColumns& columns,
                                std::vector<uint8_t>* inserted = nullptr) {
  size_t n = columns.empty() ? 0 : columns[0]->size();
  std::vector<uint32_t> ids(n);
  if (inserted != nullptr) inserted->assign(n, 0);
  table->Insert(columns, n, ids.data(),
                inserted != nullptr ? inserted->data() : nullptr);
  return ids;
}

std::vector<uint32_t> FindAll(const KeyTable& table,
                              const KeyColumns& columns) {
  size_t n = columns[0]->size();
  std::vector<uint32_t> ids(n);
  KeyTable::Scratch scratch;
  table.Find(columns, n, &scratch, ids.data());
  return ids;
}

TEST(KeyTableTest, IdsAreDenseInFirstInsertionOrder) {
  Column c = Ints({30, 10, 30, 20, 10, 40});
  KeyTable table;
  std::vector<uint8_t> inserted;
  std::vector<uint32_t> ids = InsertAll(&table, {&c}, &inserted);
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 2, 1, 3}));
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 1, 0, 1, 0, 1}));
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(FindAll(table, {&c}), ids);
  Column absent = Ints({99});
  EXPECT_EQ(FindAll(table, {&absent})[0], KeyTable::kNoId);
}

TEST(KeyTableTest, SelectionInsertsOnlySelectedRowsInOrder) {
  Column c = Ints({7, 8, 7, 9, 8});
  SelVector sel;
  for (uint32_t r : {1u, 2u, 4u}) sel.push_back(r);
  KeyTable table;
  std::vector<uint32_t> ids(sel.size());
  std::vector<uint8_t> inserted(sel.size());
  table.Insert({&c}, sel, ids.data(), inserted.data());
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0}));  // 8, 7, 8
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 1, 0}));
  EXPECT_EQ(table.size(), 2u);
}

TEST(KeyTableTest, KeylessRowsAreOneGroupWithoutSlots) {
  KeyTable table;
  std::vector<uint32_t> ids(5, 7);
  std::vector<uint8_t> inserted(5);
  table.Insert({}, 5, ids.data(), inserted.data());
  EXPECT_EQ(ids, std::vector<uint32_t>(5, 0));
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 0, 0, 0, 0}));
  table.Insert({}, 2, ids.data(), inserted.data());
  EXPECT_EQ(inserted[0], 0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.bytes(), 0);  // the empty key stores nothing

  KeyTable merged;
  EXPECT_EQ(merged.Merge(table), std::vector<uint32_t>{0});
  EXPECT_EQ(merged.size(), 1u);
}

TEST(KeyTableTest, NullKeysGroupTogetherButNeverMatchAProbe) {
  Column a = Ints({1, 1, 1});
  Column b(DataType::kInt64);
  b.AppendNull();
  b.AppendInt(2);
  b.AppendNull();

  // Grouping: NULL equals NULL, so rows 0 and 2 share a key.
  KeyTable groups;
  std::vector<uint8_t> inserted;
  std::vector<uint32_t> ids = InsertAll(&groups, {&a, &b}, &inserted);
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0}));
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 1, 0}));

  // A probe never matches a key with a NULL column.
  EXPECT_EQ(FindAll(groups, {&a, &b}),
            (std::vector<uint32_t>{KeyTable::kNoId, 1, KeyTable::kNoId}));

  // A NULL is not the word 0 it is stored as.
  Column zero = Ints({1});
  Column zero_b = Ints({0});
  EXPECT_EQ(FindAll(groups, {&zero, &zero_b})[0], KeyTable::kNoId);
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

  // Both layouts: byte keys (a string column) and fixed-width words.
  for (bool with_string : {true, false}) {
    KeyColumns cols = {&i, &d};
    if (with_string) cols.push_back(&s);
    KeyTable table;
    ASSERT_EQ(InsertAll(&table, cols), (std::vector<uint32_t>{0, 1, 2}));
    std::vector<Column> out;
    for (const Column* c : cols) out.emplace_back(c->type());
    table.DecodeAll(out.data());
    for (size_t c = 0; c < cols.size(); ++c) {
      ASSERT_EQ(out[c].size(), 3u);
      for (size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(out[c].GetValue(r), cols[c]->GetValue(r)) << c << "," << r;
      }
    }
    // -0.0 decodes as the key it shares with 0.0.
    EXPECT_FALSE(std::signbit(out[1].DoubleAt(1)));
  }
}

TEST(KeyTableTest, NegativeZeroAndZeroAreOneKey) {
  Column d(DataType::kFloat64);
  d.AppendDouble(0.0);
  d.AppendDouble(-0.0);
  KeyTable table;
  std::vector<uint8_t> inserted;
  EXPECT_EQ(InsertAll(&table, {&d}, &inserted), (std::vector<uint32_t>{0, 0}));
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 0}));
}

TEST(KeyTableTest, MergeKeepsPartialOrderAndRemaps) {
  Column c = Ints({5, 6, 7, 8});
  KeyTable main;
  KeyTable partial;
  std::vector<uint32_t> ids(3);
  SelVector main_rows;
  for (uint32_t r : {1u, 0u}) main_rows.push_back(r);  // 6 -> 0, 5 -> 1
  main.Insert({&c}, main_rows, ids.data());
  SelVector partial_rows;
  for (uint32_t r : {2u, 0u, 3u}) partial_rows.push_back(r);  // 7, 5, 8
  partial.Insert({&c}, partial_rows, ids.data());

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
  std::vector<uint32_t> in_partial = FindAll(partial, {&c});
  std::vector<uint32_t> in_main = FindAll(main, {&c});
  for (size_t r = 0; r < c.size(); ++r) {
    if (in_partial[r] != KeyTable::kNoId) {
      EXPECT_EQ(remap[in_partial[r]], in_main[r]) << r;
    }
  }
}

/// bytes() depends only on the set of keys: the same keys reached through
/// different insertion orders, batch splits and merges weigh the same.
TEST(KeyTableTest, EqualKeySetsHaveEqualBytes) {
  for (bool strings : {false, true}) {
    Column ints(DataType::kInt64);
    Column strs(DataType::kString);
    for (int64_t v = 0; v < 1000; ++v) {
      ints.AppendInt(v * 7919 % 600);  // 600 distinct keys, repeated
      strs.AppendString("k" + std::to_string(v % 600));
    }
    KeyColumns cols = {strings ? &strs : &ints};
    size_t n = ints.size();

    KeyTable forward;
    InsertAll(&forward, cols);

    KeyTable backward;
    SelVector reversed;
    for (size_t r = n; r-- > 0;) reversed.push_back(static_cast<uint32_t>(r));
    std::vector<uint32_t> ids(n);
    backward.Insert(cols, reversed, ids.data());

    KeyTable merged;  // three overlapping partials
    for (size_t p = 0; p < 3; ++p) {
      SelVector rows;
      for (size_t r = p * n / 4; r < (p + 2) * n / 4; ++r) {
        rows.push_back(static_cast<uint32_t>(r));
      }
      KeyTable partial;
      partial.Insert(cols, rows, ids.data());
      merged.Merge(partial);
    }
    SelVector rest;  // whatever the partials missed
    for (size_t r = 0; r < n; ++r) rest.push_back(static_cast<uint32_t>(r));
    merged.Insert(cols, rest, ids.data());

    ASSERT_EQ(forward.size(), 600u);
    ASSERT_EQ(backward.size(), 600u);
    ASSERT_EQ(merged.size(), 600u);
    // DESIGN.md §6.4: 4096 slots (the smallest count of the form 16 * 4^k
    // holding 600 keys at most half full) of 8 bytes, plus one word per
    // key, or the encoded keys (null byte, varint length, bytes) and 601
    // offsets.
    int64_t store = 600 * 8;
    if (strings) {
      store = 601 * 8;
      for (int k = 0; k < 600; ++k) store += 2 + 1 + std::to_string(k).size();
    }
    EXPECT_EQ(forward.bytes(), 4096 * 8 + store) << strings;
    EXPECT_EQ(backward.bytes(), forward.bytes()) << strings;
    EXPECT_EQ(merged.bytes(), forward.bytes()) << strings;
  }
}

/// The slot count of a table of n keys: 16 * 4^k, the smallest such count
/// that holds n keys at most half full (DESIGN.md §6.4).
size_t SlotsFor(size_t n) {
  size_t slots = 16;
  while (slots < 2 * n) slots *= 4;
  return slots;
}

/// Slots grow 4x at a time, and only when a key is added, so bytes() is a
/// function of the key count: one batch, batches of one to seven rows and
/// merged partials that each grew on their own weigh the same, at key
/// counts on both sides of every growth step.
TEST(KeyTableTest, BytesFollowTheGrowthRuleUnderAnyBatching) {
  for (size_t n : {1, 8, 9, 32, 33, 128, 129, 512, 513, 2048, 2049, 6144}) {
    SCOPED_TRACE(n);
    Column keys(DataType::kInt64);
    for (size_t r = 0; r < 2 * n; ++r) {
      // 7919 is prime to 100003, so the n values (r mod n) are distinct keys.
      keys.AppendInt(static_cast<int64_t>((r % n) * 7919 % 100003));
    }
    const size_t rows = keys.size();
    std::vector<uint32_t> ids(rows);

    KeyTable one;
    InsertAll(&one, {&keys});

    KeyTable small;
    for (size_t begin = 0, step = 1; begin < rows; begin += step) {
      step = 1 + begin % 7;
      SelVector sel;
      for (size_t r = begin; r < std::min(rows, begin + step); ++r) {
        sel.push_back(static_cast<uint32_t>(r));
      }
      small.Insert({&keys}, sel, ids.data());
    }

    KeyTable merged;  // three partials over thirds of the rows
    for (size_t p = 0; p < 3; ++p) {
      SelVector sel;
      for (size_t r = p * rows / 3; r < (p + 1) * rows / 3; ++r) {
        sel.push_back(static_cast<uint32_t>(r));
      }
      KeyTable partial;
      partial.Insert({&keys}, sel, ids.data());
      merged.Merge(partial);
    }

    ASSERT_EQ(one.size(), n);
    ASSERT_EQ(small.size(), n);
    ASSERT_EQ(merged.size(), n);
    const auto expected = static_cast<int64_t>(SlotsFor(n) * 8 + n * 8);
    EXPECT_EQ(one.bytes(), expected);
    EXPECT_EQ(small.bytes(), expected);
    EXPECT_EQ(merged.bytes(), expected);
  }
}

// --- Direct-address index -------------------------------------------------

/// Column `vs` with NULL at the rows `nulls` lists.
Column IntsWithNulls(const std::vector<int64_t>& vs,
                     const std::vector<size_t>& nulls) {
  Column c(DataType::kInt64);
  for (size_t i = 0; i < vs.size(); ++i) {
    if (std::find(nulls.begin(), nulls.end(), i) != nulls.end()) {
      c.AppendNull();
    } else {
      c.AppendInt(vs[i]);
    }
  }
  return c;
}

/// Builds `keys` twice, one table sealed and one not, and checks that Find
/// gives the same ids from both for every probe. Returns the sealed
/// table's extra bytes: its direct-address index, 0 when it has none.
int64_t SealedFindMatchesHashPath(const Column& keys, const Column& probes) {
  KeyTable hashed;
  KeyTable sealed;
  EXPECT_EQ(InsertAll(&hashed, {&keys}), InsertAll(&sealed, {&keys}));
  sealed.Seal();
  EXPECT_EQ(FindAll(sealed, {&probes}), FindAll(hashed, {&probes}));
  EXPECT_EQ(FindAll(sealed, {&keys}), FindAll(hashed, {&keys}));
  return sealed.bytes() - hashed.bytes();
}

TEST(KeyTableDenseTest, FindMatchesTheHashPath) {
  // Keys -5..9 less a gap at 3, in scattered order, and one NULL key.
  std::vector<int64_t> vs;
  for (int64_t i = 0; i < 15; ++i) {
    const int64_t v = i * 7 % 15 - 5;
    if (v != 3) vs.push_back(v);
  }
  vs.push_back(0);  // the NULL key's slot
  Column keys = IntsWithNulls(vs, {vs.size() - 1});
  // Every key, the gap, NULLs, and probes just and far outside [-5, 9],
  // INT64_MIN and INT64_MAX among them.
  std::vector<int64_t> ps = {-5, 9, 3, 0, 0, -6, 10, -1000, 1000,
                             INT64_MIN, INT64_MAX, 4, 0};
  Column probes = IntsWithNulls(ps, {4, 12});
  int64_t index_bytes = SealedFindMatchesHashPath(keys, probes);
  EXPECT_EQ(index_bytes, 15 * 4);  // max - min + 1 entries
  KeyTable sealed;
  InsertAll(&sealed, {&keys});
  sealed.Seal();
  std::vector<uint32_t> found = FindAll(sealed, {&probes});
  // The gap, NULL and outside probes find nothing, and the NULL build key
  // is not the 0 it is stored as.
  for (size_t i : {2u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 12u}) {
    EXPECT_EQ(found[i], KeyTable::kNoId) << "probe " << i;
  }
  for (size_t i : {0u, 1u, 3u, 11u}) {
    EXPECT_NE(found[i], KeyTable::kNoId) << "probe " << i;
  }
}

TEST(KeyTableDenseTest, RandomizedFindMatchesTheHashPath) {
  std::mt19937 rng(21);
  for (int round = 0; round < 20; ++round) {
    const int64_t base = std::uniform_int_distribution<int64_t>(
        -1000000, 1000000)(rng);
    const int span = 1 + round * 97;
    Column keys(DataType::kInt64);
    Column probes(DataType::kInt64);
    for (int i = 0; i < span; ++i) {
      if (rng() % 3 == 0) keys.AppendInt(base + rng() % span);
      int draw = static_cast<int>(rng() % (span + 20)) - 10;
      if (draw % 17 == 0) {
        probes.AppendNull();
      } else {
        probes.AppendInt(base + draw);
      }
    }
    if (keys.size() == 0) keys.AppendInt(base);
    SealedFindMatchesHashPath(keys, probes);
  }
}

TEST(KeyTableDenseTest, WideOrSparseRangesStayOnTheHashPath) {
  Column probes = Ints({INT64_MIN, INT64_MAX, 0, 1000, 5});
  // max - min overflows int64.
  EXPECT_EQ(SealedFindMatchesHashPath(Ints({INT64_MIN, INT64_MAX, 0}), probes),
            0);
  // 100 keys 1000 apart: far more than twice the 256 slots.
  std::vector<int64_t> sparse;
  for (int64_t k = 0; k < 100; ++k) sparse.push_back(k * 1000);
  EXPECT_EQ(SealedFindMatchesHashPath(Ints(sparse), probes), 0);
  // Only NULL keys: nothing to address.
  EXPECT_EQ(SealedFindMatchesHashPath(IntsWithNulls({0, 0}, {0, 1}), probes),
            0);
  // Two columns, or a double column, keep hashing.
  Column a = Ints({1, 2, 3});
  KeyTable pair;
  InsertAll(&pair, {&a, &a});
  int64_t before = pair.bytes();
  pair.Seal();
  EXPECT_EQ(pair.bytes(), before);
  Column d(DataType::kFloat64);
  for (double v : {1.0, 2.0, 3.0}) d.AppendDouble(v);
  KeyTable doubles;
  InsertAll(&doubles, {&d});
  before = doubles.bytes();
  doubles.Seal();
  EXPECT_EQ(doubles.bytes(), before);
}

/// bytes() after a join-style build: one Insert, or four partials over
/// contiguous row ranges merged in order (a 4-thread build), then Seal.
TEST(KeyTableDenseTest, BytesEqualAfterSerialAndMergedBuilds) {
  std::vector<int64_t> dense;
  std::vector<int64_t> sparse;
  for (int64_t k = 0; k < 3000; ++k) {
    dense.push_back(700 - (k * 13 % 1500));  // 1500 keys, each twice
    sparse.push_back(k * k);
  }
  for (const Column& keys : {Ints(dense), Ints(sparse)}) {
    const size_t n = keys.size();
    KeyTable serial;
    InsertAll(&serial, {&keys});
    serial.Seal();
    KeyTable merged;
    std::vector<uint32_t> ids(n);
    for (size_t w = 0; w < 4; ++w) {
      SelVector rows;
      for (size_t r = n * w / 4; r < n * (w + 1) / 4; ++r) {
        rows.push_back(static_cast<uint32_t>(r));
      }
      KeyTable partial;
      partial.Insert({&keys}, rows, ids.data());
      merged.Merge(partial);
    }
    merged.Seal();
    EXPECT_EQ(merged.bytes(), serial.bytes());
    EXPECT_EQ(FindAll(merged, {&keys}), FindAll(serial, {&keys}));
  }
}

// --- Randomized oracle ------------------------------------------------------

/// Key equality as the table defines it: NULL equals NULL, -0.0 equals 0.0,
/// ints compare exactly (Value::Compare would round them through double).
struct KeyLess {
  static int Cmp(const Value& a, const Value& b) {
    if (a.is_null() || b.is_null()) return int(b.is_null()) - int(a.is_null());
    switch (PhysicalTypeOf(a.type())) {
      case PhysicalType::kInt:
        return a.int_value() < b.int_value() ? -1
                                             : a.int_value() > b.int_value();
      case PhysicalType::kDouble:
        return a.double_value() < b.double_value()
                   ? -1
                   : a.double_value() > b.double_value();
      case PhysicalType::kString:
        return a.string_value().compare(b.string_value());
    }
    return 0;
  }
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t c = 0; c < a.size(); ++c) {
      int cmp = Cmp(a[c], b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }
};

using Oracle = std::map<std::vector<Value>, uint32_t, KeyLess>;

/// Draws column values from a small domain so batches repeat keys.
class KeyGen {
 public:
  KeyGen(std::vector<DataType> types, int domain, uint32_t seed)
      : types_(std::move(types)), domain_(domain), rng_(seed) {}

  std::vector<Column> Batch(size_t n) {
    std::vector<Column> cols;
    for (DataType t : types_) cols.emplace_back(t);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < types_.size(); ++c) Append(&cols[c]);
    }
    return cols;
  }

 private:
  void Append(Column* col) {
    int v = std::uniform_int_distribution<int>(0, domain_ - 1)(rng_);
    if (v % 97 == 3) {
      col->AppendNull();
      return;
    }
    switch (PhysicalTypeOf(col->type())) {
      case PhysicalType::kInt:
        // Spread over the high bits too, negatives included.
        col->AppendInt((static_cast<int64_t>(v) << 40) - v * 3);
        break;
      case PhysicalType::kDouble:
        col->AppendDouble(v % 5 == 0 ? (v % 2 == 0 ? -0.0 : 0.0) : v * 0.25);
        break;
      case PhysicalType::kString: {
        std::string s = "s" + std::to_string(v);
        if (v % 3 == 0) s += std::string(1, '\0') + "z";  // embedded NUL
        if (v % 7 == 0) s += std::string(130 + v % 50, 'y');  // varint >= 128
        col->AppendString(std::move(s));
        break;
      }
    }
  }

  std::vector<DataType> types_;
  int domain_;
  std::mt19937 rng_;
};

std::vector<Value> RowKey(const std::vector<Column>& cols, size_t row) {
  std::vector<Value> key;
  for (const Column& c : cols) key.push_back(c.GetValue(row));
  return key;
}

bool HasNull(const std::vector<Value>& key) {
  return std::any_of(key.begin(), key.end(),
                     [](const Value& v) { return v.is_null(); });
}

KeyColumns Pointers(const std::vector<Column>& cols) {
  KeyColumns out;
  for (const Column& c : cols) out.push_back(&c);
  return out;
}

/// Inserts `cols` rows (all of them, or a random selection) into `table`
/// and `oracle`, checking ids and first-insertion flags row by row.
void InsertChecked(const std::vector<Column>& cols, std::mt19937* rng,
                   KeyTable* table, Oracle* oracle) {
  size_t n = cols[0].size();
  bool use_sel = (*rng)() % 2 == 0;
  SelVector sel;
  for (size_t r = 0; r < n; ++r) {
    if (!use_sel || (*rng)() % 3 != 0) sel.push_back(static_cast<uint32_t>(r));
  }
  std::vector<uint32_t> ids(sel.size());
  std::vector<uint8_t> inserted(sel.size());
  if (use_sel) {
    table->Insert(Pointers(cols), sel, ids.data(), inserted.data());
  } else {
    table->Insert(Pointers(cols), n, ids.data(), inserted.data());
  }
  for (size_t i = 0; i < sel.size(); ++i) {
    auto [it, added] = oracle->try_emplace(
        RowKey(cols, sel[i]), static_cast<uint32_t>(oracle->size()));
    ASSERT_EQ(ids[i], it->second) << "row " << sel[i];
    ASSERT_EQ(inserted[i] != 0, added) << "row " << sel[i];
  }
  ASSERT_EQ(table->size(), oracle->size());
}

void CheckFind(const KeyTable& table, const Oracle& oracle,
               const std::vector<Column>& probe) {
  std::vector<uint32_t> ids = FindAll(table, Pointers(probe));
  for (size_t r = 0; r < ids.size(); ++r) {
    std::vector<Value> key = RowKey(probe, r);
    auto it = oracle.find(key);
    uint32_t want =
        HasNull(key) || it == oracle.end() ? KeyTable::kNoId : it->second;
    ASSERT_EQ(ids[r], want) << "probe row " << r;
  }
}

void CheckDecode(const KeyTable& table, const Oracle& oracle,
                 const std::vector<DataType>& types) {
  std::vector<Column> out;
  for (DataType t : types) out.emplace_back(t);
  table.DecodeAll(out.data());
  std::vector<const std::vector<Value>*> by_id(oracle.size());
  for (const auto& [key, id] : oracle) by_id[id] = &key;
  for (size_t id = 0; id < by_id.size(); ++id) {
    ASSERT_FALSE(KeyLess()(RowKey(out, id), *by_id[id]) ||
                 KeyLess()(*by_id[id], RowKey(out, id)))
        << "id " << id;
  }
}

struct KeyShape {
  const char* name;
  std::vector<DataType> types;
};

std::vector<KeyShape> Shapes() {
  return {
      {"int64", {DataType::kInt64}},
      {"double", {DataType::kFloat64}},
      {"string", {DataType::kString}},
      {"int_double", {DataType::kInt64, DataType::kFloat64}},
      {"date_string_double",
       {DataType::kDate, DataType::kString, DataType::kFloat64}},
  };
}

TEST(KeyTableOracleTest, BatchInsertAndFindMatchAMapOracle) {
  uint32_t seed = 7;
  for (const KeyShape& shape : Shapes()) {
    SCOPED_TRACE(shape.name);
    // 6000 values per column: thousands of distinct keys, so the table
    // grows from 16 slots through well over five doublings.
    KeyGen gen(shape.types, 6000, ++seed);
    std::mt19937 rng(seed);
    KeyTable table;
    Oracle oracle;
    for (int batch = 0; batch < 12; ++batch) {
      size_t n = std::uniform_int_distribution<size_t>(0, 2500)(rng);
      std::vector<Column> cols = gen.Batch(n);
      if (n == 0) {
        std::vector<uint32_t> none;
        table.Insert(Pointers(cols), 0, none.data());
        continue;
      }
      InsertChecked(cols, &rng, &table, &oracle);
      if (HasFatalFailure()) return;
      CheckFind(table, oracle, gen.Batch(500));
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(oracle.size(), 16u << 5);
    CheckDecode(table, oracle, shape.types);
  }
}

TEST(KeyTableOracleTest, DuplicatesInOneBatchInsertOnlyTheFirst) {
  Column c = Ints({4, 4, 9, 4, 9, 1});
  Column d(DataType::kString);
  for (const char* s : {"a", "a", "b\0c", "a", "b\0c", ""}) d.AppendString(s);
  KeyTable table;
  std::vector<uint8_t> inserted;
  EXPECT_EQ(InsertAll(&table, {&c, &d}, &inserted),
            (std::vector<uint32_t>{0, 0, 1, 0, 1, 2}));
  EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 0, 1, 0, 0, 1}));
  // A second batch of the same rows inserts nothing.
  EXPECT_EQ(InsertAll(&table, {&c, &d}, &inserted),
            (std::vector<uint32_t>{0, 0, 1, 0, 1, 2}));
  EXPECT_EQ(inserted, std::vector<uint8_t>(6, 0));
}

/// Keys whose hashes share their low 12 bits start probing at one slot at
/// every table size up to 4096 slots: one long probe chain that each growth
/// re-places.
TEST(KeyTableOracleTest, KeysSharingLowHashBitsStayDistinct) {
  std::vector<int64_t> colliding;
  const uint64_t zero = 0;
  const uint32_t target = HashKeyWords(&zero, 1) & 0xFFF;
  for (int64_t v = 0; colliding.size() < 400; ++v) {
    auto w = static_cast<uint64_t>(v);
    if ((HashKeyWords(&w, 1) & 0xFFF) == target) colliding.push_back(v);
  }
  // Interleave non-colliding keys so growth happens mid-chain.
  std::vector<int64_t> keys;
  for (size_t i = 0; i < colliding.size(); ++i) {
    keys.push_back(colliding[i]);
    keys.push_back(-1 - static_cast<int64_t>(i));
  }
  Column c = Ints(keys);
  KeyTable table;
  std::vector<uint32_t> ids = InsertAll(&table, {&c});
  for (size_t r = 0; r < ids.size(); ++r) ASSERT_EQ(ids[r], r);
  EXPECT_EQ(FindAll(table, {&c}), ids);
  Column again = Ints(colliding);
  std::vector<uint32_t> found = FindAll(table, {&again});
  for (size_t i = 0; i < found.size(); ++i) ASSERT_EQ(found[i], 2 * i);
}

/// Keys with equal 32-bit hashes share a slot tag, so only the stored key
/// tells them apart: one-word keys, and two-word keys equal in the first.
TEST(KeyTableOracleTest, KeysWithEqualHashesStayDistinct) {
  for (size_t width : {1, 2}) {
    std::unordered_map<uint32_t, int64_t> seen;
    int64_t a = -1;
    int64_t b = -1;
    for (int64_t v = 0; b < 0; ++v) {
      uint64_t key[2] = {7, static_cast<uint64_t>(v)};
      const uint64_t* words = width == 1 ? key + 1 : key;
      auto [it, added] = seen.emplace(HashKeyWords(words, width), v);
      if (!added) {
        a = it->second;
        b = v;
      }
    }
    Column first = Ints({7, 7, 7, 7});
    Column second = Ints({a, b, b, a});
    KeyColumns cols = {&second};
    if (width == 2) cols = {&first, &second};
    KeyTable table;
    std::vector<uint8_t> inserted;
    EXPECT_EQ(InsertAll(&table, cols, &inserted),
              (std::vector<uint32_t>{0, 1, 1, 0}))
        << width;
    EXPECT_EQ(inserted, (std::vector<uint8_t>{1, 1, 0, 0})) << width;
    EXPECT_EQ(FindAll(table, cols), (std::vector<uint32_t>{0, 1, 1, 0}))
        << width;
  }
}

TEST(KeyTableOracleTest, MergeOfGrownPartialsMatchesTheOracle) {
  uint32_t seed = 101;
  for (const KeyShape& shape : Shapes()) {
    SCOPED_TRACE(shape.name);
    KeyGen gen(shape.types, 3000, ++seed);
    std::mt19937 rng(seed);
    KeyTable merged;
    Oracle merged_oracle;
    for (int p = 0; p < 4; ++p) {
      KeyTable partial;
      Oracle partial_oracle;
      std::vector<std::vector<Column>> batches;
      for (int b = 0; b < 3; ++b) {
        batches.push_back(gen.Batch(800));
        InsertChecked(batches.back(), &rng, &partial, &partial_oracle);
        if (HasFatalFailure()) return;
      }
      ASSERT_GT(partial.size(), 16u << 5);  // grown at least four times
      std::vector<uint32_t> remap = merged.Merge(partial);
      // The partial's keys, in its id order, are looked up or appended.
      std::vector<const std::vector<Value>*> by_id(partial_oracle.size());
      for (const auto& [key, id] : partial_oracle) by_id[id] = &key;
      ASSERT_EQ(remap.size(), by_id.size());
      for (size_t id = 0; id < by_id.size(); ++id) {
        auto [it, added] = merged_oracle.try_emplace(
            *by_id[id], static_cast<uint32_t>(merged_oracle.size()));
        ASSERT_EQ(remap[id], it->second) << "partial id " << id;
      }
      ASSERT_EQ(merged.size(), merged_oracle.size());
      for (const std::vector<Column>& batch : batches) {
        CheckFind(merged, merged_oracle, batch);
        if (HasFatalFailure()) return;
      }
    }
    CheckDecode(merged, merged_oracle, shape.types);
  }
}

}  // namespace
}  // namespace fusiondb::internal
