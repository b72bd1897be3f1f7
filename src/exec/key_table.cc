#include "exec/key_table.h"

#include <cstring>

#include "common/check.h"

namespace fusiondb::internal {

namespace {

template <typename T>
void AppendRaw(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T ReadRaw(const std::string& key, size_t* pos) {
  T v;
  std::memcpy(&v, key.data() + *pos, sizeof(v));
  *pos += sizeof(v);
  return v;
}

/// Appends one column's value at `row`; returns whether it is NULL.
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
      // -0.0 == 0.0, so both encode as 0.0.
      AppendRaw(col.DoubleAt(row) == 0.0 ? 0.0 : col.DoubleAt(row), out);
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
void DecodeColumn(const std::string& key, size_t* pos, Column* out) {
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
      out->AppendString(key.substr(*pos, len));
      *pos += len;
      break;
    }
  }
}

}  // namespace

bool KeyTable::Encode(const KeyColumns& columns, size_t row) {
  key_.clear();
  bool has_null = false;
  for (const Column* col : columns) has_null |= EncodeColumn(*col, row, &key_);
  return has_null;
}

uint32_t KeyTable::InsertEncoded(bool* inserted) {
  FUSIONDB_CHECK(ids_.size() < kNoId, "key table overflows uint32 ids");
  auto [it, added] = ids_.try_emplace(key_, static_cast<uint32_t>(ids_.size()));
  if (added) key_bytes_ += static_cast<int64_t>(key_.size());
  *inserted = added;
  return it->second;
}

KeyTable::Slot KeyTable::Insert(const KeyColumns& columns, size_t row) {
  Slot slot;
  slot.has_null = Encode(columns, row);
  slot.id = InsertEncoded(&slot.inserted);
  return slot;
}

uint32_t KeyTable::Find(const KeyColumns& columns, size_t row) {
  if (Encode(columns, row)) return kNoId;
  auto it = ids_.find(key_);
  return it == ids_.end() ? kNoId : it->second;
}

std::vector<const std::string*> KeyTable::KeysById() const {
  std::vector<const std::string*> keys(ids_.size());
  for (const auto& [key, id] : ids_) keys[id] = &key;
  return keys;
}

void KeyTable::DecodeAll(Column* out) const {
  for (const std::string* key : KeysById()) {
    size_t pos = 0;
    for (size_t c = 0; pos < key->size(); ++c) DecodeColumn(*key, &pos, &out[c]);
  }
}

std::vector<uint32_t> KeyTable::Merge(const KeyTable& partial) {
  std::vector<uint32_t> remap;
  remap.reserve(partial.size());
  bool inserted;
  for (const std::string* key : partial.KeysById()) {
    key_ = *key;
    remap.push_back(InsertEncoded(&inserted));
  }
  return remap;
}

}  // namespace fusiondb::internal
