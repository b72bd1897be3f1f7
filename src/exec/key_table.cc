#include "exec/key_table.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace fusiondb::internal {

namespace {

constexpr size_t kBlock = 1024;        // rows hashed per block
constexpr size_t kMinSlots = 16;
// Slots multiply by this when a new key would make them over half full: a
// table of n keys re-places its slots about log4(n) times on the way up.
constexpr size_t kGrowth = 4;
constexpr size_t kMaxWordColumns = 64;  // one NULL bit per column
constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ULL;

/// murmur3's 64-bit finalizer.
inline uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// A double's key word: -0.0 == 0.0, so both are the word of 0.0.
inline uint64_t DoubleWord(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t w;
  std::memcpy(&w, &v, sizeof(w));
  return w;
}

uint64_t HashBytes(const char* p, size_t n) {
  uint64_t h = kSeed ^ n;
  uint64_t w;
  for (; n >= 8; p += 8, n -= 8) {
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0x9FB21C651E98DF25ULL;
    h ^= h >> 29;
  }
  if (n > 0) {
    w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * 0x9FB21C651E98DF25ULL;
  }
  return Mix(h);
}

template <typename T>
void AppendRaw(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T ReadRaw(const char* key, size_t* pos) {
  T v;
  std::memcpy(&v, key + *pos, sizeof(v));
  *pos += sizeof(v);
  return v;
}

/// Appends one column's value at `row` in the prefix-free byte encoding;
/// returns whether it is NULL.
bool EncodeColumn(const Column& col, size_t row, std::string* out) {
  if (col.IsNull(row)) {
    out->push_back('\0');
    return true;
  }
  out->push_back('\1');
  switch (PhysicalTypeOf(col.type())) {
    case PhysicalType::kInt:
      AppendRaw(col.IntAt(row), out);
      break;
    case PhysicalType::kDouble:
      AppendRaw(DoubleWord(col.DoubleAt(row)), out);
      break;
    case PhysicalType::kString: {
      const std::string& s = col.StringAt(row);
      uint64_t len = s.size();
      while (len >= 0x80) {
        out->push_back(static_cast<char>((len & 0x7F) | 0x80));
        len >>= 7;
      }
      out->push_back(static_cast<char>(len));
      out->append(s);
      break;
    }
  }
  return false;
}

/// Reads one column's value at key[*pos] into `out`, advancing *pos.
void DecodeColumn(const char* key, size_t* pos, Column* out) {
  if (key[(*pos)++] == '\0') {
    out->AppendNull();
    return;
  }
  switch (PhysicalTypeOf(out->type())) {
    case PhysicalType::kInt:
      out->AppendInt(ReadRaw<int64_t>(key, pos));
      break;
    case PhysicalType::kDouble:
      out->AppendDouble(ReadRaw<double>(key, pos));
      break;
    case PhysicalType::kString: {
      uint64_t len = 0;
      for (int shift = 0;; shift += 7) {
        auto byte = static_cast<uint8_t>(key[(*pos)++]);
        len |= static_cast<uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) break;
      }
      out->AppendString(std::string(key + *pos, len));
      *pos += len;
      break;
    }
  }
}

}  // namespace

uint32_t HashKeyWords(const uint64_t* words, size_t n) {
  uint64_t h = kSeed;
  for (size_t c = 0; c < n; ++c) h = Mix(h ^ words[c]);
  return static_cast<uint32_t>(h);
}

void KeyTable::SetLayout(std::vector<PhysicalType> types) {
  types_ = std::move(types);
  bool fixed = types_.size() <= kMaxWordColumns;
  for (PhysicalType t : types_) fixed &= t != PhysicalType::kString;
  layout_ = fixed ? Layout::kWords : Layout::kBytes;
  if (layout_ == Layout::kBytes) offsets_ = {0};
  if (!types_.empty()) slots_.assign(kMinSlots, Slot{0, kNoId});
}

void KeyTable::CheckColumns(const KeyColumns& columns) const {
  bool same = columns.size() == types_.size();
  for (size_t c = 0; same && c < columns.size(); ++c) {
    same = PhysicalTypeOf(columns[c]->type()) == types_[c];
  }
  FUSIONDB_CHECK(same, "key columns differ from the table's key types");
}

void KeyTable::HashBlock(const KeyColumns& columns, const uint32_t* sel,
                         size_t begin, size_t m, Scratch* scratch) const {
  scratch->hashes.assign(m, kSeed);
  scratch->nulls.assign(m, 0);
  uint64_t* hashes = scratch->hashes.data();
  uint64_t* nulls = scratch->nulls.data();
  const uint32_t* rows = sel != nullptr ? sel + begin : nullptr;
  auto row = [&](size_t i) { return rows != nullptr ? rows[i] : begin + i; };
  if (layout_ == Layout::kWords) {
    // Column by column: each row's words land row-major in scratch and
    // fold into its running hash (HashKeyWords).
    const size_t width = types_.size();
    scratch->words.resize(m * width);
    for (size_t c = 0; c < width; ++c) {
      const Column& col = *columns[c];
      const uint8_t* valid = col.valid_data();
      uint64_t* words = scratch->words.data() + c;
      const bool ints = types_[c] == PhysicalType::kInt;
      const int64_t* int_data = col.ints_data();
      const double* double_data = col.doubles_data();
      for (size_t i = 0; i < m; ++i) {
        size_t r = row(i);
        uint64_t w = 0;
        if (valid[r] == 0) {
          nulls[i] |= uint64_t{1} << c;
        } else {
          w = ints ? static_cast<uint64_t>(int_data[r])
                   : DoubleWord(double_data[r]);
        }
        words[i * width] = w;
        hashes[i] = Mix(hashes[i] ^ w);
      }
    }
    return;
  }
  scratch->bytes.clear();
  scratch->offsets.resize(m + 1);
  scratch->offsets[0] = 0;
  for (size_t i = 0; i < m; ++i) {
    size_t r = row(i);
    for (const Column* col : columns) {
      if (EncodeColumn(*col, r, &scratch->bytes)) nulls[i] = 1;
    }
    scratch->offsets[i + 1] = scratch->bytes.size();
  }
  for (size_t i = 0; i < m; ++i) {
    hashes[i] = HashBytes(scratch->bytes.data() + scratch->offsets[i],
                          scratch->offsets[i + 1] - scratch->offsets[i]);
  }
}

bool KeyTable::WordsEqual(uint32_t id, const uint64_t* key,
                          uint64_t nulls) const {
  const size_t width = types_.size();
  if (width == 1) return words_[id] == key[0] && NullsOf(id) == nulls;
  return NullsOf(id) == nulls &&
         std::equal(key, key + width, words_.data() + id * width);
}

bool KeyTable::BytesEqual(uint32_t id, const char* key, size_t len) const {
  return offsets_[id + 1] - offsets_[id] == len &&
         std::memcmp(arena_.data() + offsets_[id], key, len) == 0;
}

template <typename Eq>
uint32_t KeyTable::FindOrClaim(uint32_t hash, const Eq& eq, bool* added) {
  size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  for (;; pos = (pos + 1) & mask) {
    const Slot& slot = slots_[pos];
    if (slot.id == kNoId) break;
    if (slot.hash == hash && eq(slot.id)) {
      *added = false;
      return slot.id;
    }
  }
  FUSIONDB_CHECK(size_ < kNoId, "key table overflows uint32 ids");
  // Grow only when a key is added, so the slot count is a function of the
  // key count alone.
  if (2 * (static_cast<size_t>(size_) + 1) > slots_.size()) {
    Grow();
    mask = slots_.size() - 1;
    for (pos = hash & mask; slots_[pos].id != kNoId; pos = (pos + 1) & mask) {
    }
  }
  slots_[pos] = Slot{hash, size_};
  *added = true;
  return size_++;
}

uint32_t KeyTable::AddWords(uint32_t hash, const uint64_t* key, uint64_t nulls,
                            bool* added) {
  uint32_t id = FindOrClaim(
      hash, [&](uint32_t other) { return WordsEqual(other, key, nulls); },
      added);
  if (*added) {
    words_.insert(words_.end(), key, key + types_.size());
    // NULL masks are stored from the first key that has a NULL on.
    if (nulls != 0 || !nulls_.empty()) {
      nulls_.resize(id, 0);
      nulls_.push_back(nulls);
    }
  }
  return id;
}

uint32_t KeyTable::AddBytes(uint32_t hash, const char* key, size_t len,
                            bool* added) {
  uint32_t id = FindOrClaim(
      hash, [&](uint32_t other) { return BytesEqual(other, key, len); }, added);
  if (*added) {
    arena_.append(key, len);
    offsets_.push_back(arena_.size());
  }
  return id;
}

template <typename Eq>
uint32_t KeyTable::Lookup(uint32_t hash, const Eq& eq) const {
  const size_t mask = slots_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const Slot& slot = slots_[pos];
    if (slot.id == kNoId) return kNoId;
    if (slot.hash == hash && eq(slot.id)) return slot.id;
  }
}

void KeyTable::Grow() {
  // Re-places every slot from its stored hash: no key is re-read.
  std::vector<Slot> old(slots_.size() * kGrowth, Slot{0, kNoId});
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNoId) continue;
    size_t pos = slot.hash & mask;
    while (slots_[pos].id != kNoId) pos = (pos + 1) & mask;
    slots_[pos] = slot;
  }
}

uint32_t KeyTable::AddScratchKey(const Scratch& s, size_t i, bool* added) {
  auto hash = static_cast<uint32_t>(s.hashes[i]);
  if (layout_ == Layout::kWords) {
    return AddWords(hash, s.words.data() + i * types_.size(), s.nulls[i],
                    added);
  }
  return AddBytes(hash, s.bytes.data() + s.offsets[i],
                  s.offsets[i + 1] - s.offsets[i], added);
}

uint32_t KeyTable::FindScratchKey(const Scratch& s, size_t i) const {
  if (s.nulls[i] != 0) return kNoId;
  auto hash = static_cast<uint32_t>(s.hashes[i]);
  if (layout_ == Layout::kWords) {
    const uint64_t* key = s.words.data() + i * types_.size();
    return Lookup(hash, [&](uint32_t id) { return WordsEqual(id, key, 0); });
  }
  const char* key = s.bytes.data() + s.offsets[i];
  const size_t len = s.offsets[i + 1] - s.offsets[i];
  return Lookup(hash, [&](uint32_t id) { return BytesEqual(id, key, len); });
}

void KeyTable::InsertRows(const KeyColumns& columns, const uint32_t* sel,
                          size_t n, uint32_t* ids, uint8_t* inserted) {
  if (n == 0) return;
  FUSIONDB_CHECK(!sealed_, "inserting into a sealed key table");
  if (layout_ == Layout::kUnset) {
    std::vector<PhysicalType> types;
    for (const Column* col : columns) {
      types.push_back(PhysicalTypeOf(col->type()));
    }
    SetLayout(std::move(types));
  } else {
    CheckColumns(columns);
  }
  if (types_.empty()) {
    // The one empty key (a scalar aggregate's): every row is id 0, and
    // nothing is hashed.
    std::fill(ids, ids + n, 0);
    if (inserted != nullptr) {
      std::fill(inserted, inserted + n, 0);
      inserted[0] = size_ == 0;
    }
    size_ = 1;
    return;
  }
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t m = std::min(kBlock, n - begin);
    HashBlock(columns, sel, begin, m, &scratch_);
    for (size_t i = 0; i < m; ++i) {
      bool added;
      ids[begin + i] = AddScratchKey(scratch_, i, &added);
      if (inserted != nullptr) inserted[begin + i] = added;
    }
  }
}

void KeyTable::Insert(const KeyColumns& columns, size_t n, uint32_t* ids,
                      uint8_t* inserted) {
  InsertRows(columns, nullptr, n, ids, inserted);
}

void KeyTable::Insert(const KeyColumns& columns, const SelVector& sel,
                      uint32_t* ids, uint8_t* inserted) {
  InsertRows(columns, sel.data(), sel.size(), ids, inserted);
}

void KeyTable::Seal() {
  sealed_ = true;
  if (types_.size() != 1 || types_[0] != PhysicalType::kInt) return;
  bool any = false;
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (uint32_t id = 0; id < size_; ++id) {
    if (NullsOf(id) != 0) continue;
    const auto v = static_cast<int64_t>(words_[id]);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    any = true;
  }
  // hi - lo in uint64_t cannot overflow; the index holds hi - lo + 1
  // entries of 4 bytes, at most the 8 bytes per slot of slots_.
  if (!any || static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) >=
                  2 * slots_.size()) {
    return;
  }
  dense_min_ = lo;
  dense_.assign(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1,
                kNoId);
  for (uint32_t id = 0; id < size_; ++id) {
    if (NullsOf(id) != 0) continue;
    dense_[words_[id] - static_cast<uint64_t>(lo)] = id;
  }
}

void KeyTable::FindDense(const Column& column, size_t n, uint32_t* ids) const {
  const uint8_t* valid = column.valid_data();
  const int64_t* values = column.ints_data();
  const uint64_t span = dense_.size();
  const auto lo = static_cast<uint64_t>(dense_min_);
  for (size_t i = 0; i < n; ++i) {
    // Below the range wraps to a large offset, so one compare bounds both
    // ends; a NULL or out-of-range probe reads entry 0 and discards it.
    const uint64_t off = static_cast<uint64_t>(values[i]) - lo;
    const bool in = (valid[i] != 0) & (off < span);
    const uint32_t id = dense_[in ? off : 0];
    ids[i] = in ? id : kNoId;
  }
}

void KeyTable::Find(const KeyColumns& columns, size_t n, Scratch* scratch,
                    uint32_t* ids) const {
  if (size_ == 0) {
    std::fill(ids, ids + n, kNoId);
    return;
  }
  CheckColumns(columns);
  if (types_.empty()) {
    std::fill(ids, ids + n, 0);
    return;
  }
  if (!dense_.empty()) {
    FindDense(*columns[0], n, ids);
    return;
  }
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t m = std::min(kBlock, n - begin);
    HashBlock(columns, nullptr, begin, m, scratch);
    for (size_t i = 0; i < m; ++i) ids[begin + i] = FindScratchKey(*scratch, i);
  }
}

void KeyTable::DecodeAll(Column* out) const {
  if (layout_ == Layout::kBytes) {
    for (uint32_t id = 0; id < size_; ++id) {
      size_t pos = offsets_[id];
      for (size_t c = 0; c < types_.size(); ++c) {
        DecodeColumn(arena_.data(), &pos, &out[c]);
      }
    }
    return;
  }
  const size_t width = types_.size();
  for (size_t c = 0; c < width; ++c) {
    Column& col = out[c];
    col.Reserve(col.size() + size_);
    for (uint32_t id = 0; id < size_; ++id) {
      uint64_t w = words_[id * width + c];
      if ((NullsOf(id) >> c) & 1) {
        col.AppendNull();
      } else if (types_[c] == PhysicalType::kInt) {
        col.AppendInt(static_cast<int64_t>(w));
      } else {
        double v;
        std::memcpy(&v, &w, sizeof(v));
        col.AppendDouble(v);
      }
    }
  }
}

std::vector<uint32_t> KeyTable::Merge(const KeyTable& partial) {
  std::vector<uint32_t> remap(partial.size_);
  if (partial.size_ == 0) return remap;
  FUSIONDB_CHECK(!sealed_, "merging into a sealed key table");
  if (layout_ == Layout::kUnset) SetLayout(partial.types_);
  FUSIONDB_CHECK(layout_ == partial.layout_ && types_ == partial.types_,
                 "merging key tables of different key types");
  if (types_.empty()) {
    size_ = 1;  // the one empty key; remap[0] == 0
    return remap;
  }
  // The partial's hashes come from its slots, so no key is re-hashed.
  std::vector<uint32_t> hashes(partial.size_);
  for (const Slot& slot : partial.slots_) {
    if (slot.id != kNoId) hashes[slot.id] = slot.hash;
  }
  const size_t width = types_.size();
  bool added;
  for (uint32_t id = 0; id < partial.size_; ++id) {
    if (layout_ == Layout::kWords) {
      remap[id] = AddWords(hashes[id], partial.words_.data() + id * width,
                           partial.NullsOf(id), &added);
    } else {
      const uint64_t begin = partial.offsets_[id];
      remap[id] = AddBytes(hashes[id], partial.arena_.data() + begin,
                           partial.offsets_[id + 1] - begin, &added);
    }
  }
  return remap;
}

int64_t KeyTable::bytes() const {
  return static_cast<int64_t>(
      slots_.size() * sizeof(Slot) +
      (words_.size() + nulls_.size() + offsets_.size()) * sizeof(uint64_t) +
      arena_.size() + dense_.size() * sizeof(uint32_t));
}

}  // namespace fusiondb::internal
