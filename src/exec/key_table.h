// KeyTable: the executor's one hash table over row keys, shared by join
// build and probe, GROUP BY, window partitions, MarkDistinct and DISTINCT
// aggregates. Key format (-0.0 encodes as 0.0), NULL semantics, ids, the
// memory formula and the merge remap: DESIGN.md §6.4.
#ifndef FUSIONDB_EXEC_KEY_TABLE_H_
#define FUSIONDB_EXEC_KEY_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/chunk.h"

namespace fusiondb::internal {

/// The key columns of a set of rows, in key order: any columns of equal
/// length (a chunk's, or evaluated off one).
using KeyColumns = std::vector<const Column*>;

/// `chunk`'s columns at `indexes`, as key columns.
inline KeyColumns KeyColumnsOf(const Chunk& chunk,
                               const std::vector<int>& indexes) {
  KeyColumns columns;
  for (int idx : indexes) columns.push_back(&chunk.columns[idx]);
  return columns;
}

class KeyTable {
 public:
  static constexpr uint32_t kNoId = UINT32_MAX;

  struct Slot {
    uint32_t id;
    bool inserted;  // this call added the key
    bool has_null;  // some key column is NULL at the row
  };

  /// Looks up the key of `row`, adding it under the next id when new.
  Slot Insert(const KeyColumns& columns, size_t row);

  /// The id of `row`'s key, or kNoId when it is absent or has a NULL column
  /// (an equi-join probe: NULL matches nothing). Encodes into the table's
  /// scratch buffer, so one thread probes a table at a time.
  uint32_t Find(const KeyColumns& columns, size_t row);

  /// Appends every key, in id order, to out[0..k): one typed output column
  /// per key column, whose type says how to read its bytes.
  void DecodeAll(Column* out) const;

  /// Folds in a partial table built over other rows: its keys are looked
  /// up in its id order and new ones appended here in that order. Returns
  /// the remap from each of `partial`'s ids to its id here.
  std::vector<uint32_t> Merge(const KeyTable& partial);

  size_t size() const { return ids_.size(); }

  /// Memory metric: a fixed per-key overhead (map node, bucket slot, id)
  /// plus the encoded key bytes. It depends only on the set of keys, so it
  /// is the same at every thread count.
  int64_t bytes() const {
    return static_cast<int64_t>(ids_.size()) * 48 + key_bytes_;
  }

 private:
  /// Encodes `row`'s key into key_; returns whether any column is NULL.
  bool Encode(const KeyColumns& columns, size_t row);
  uint32_t InsertEncoded(bool* inserted);
  std::vector<const std::string*> KeysById() const;

  std::unordered_map<std::string, uint32_t> ids_;
  int64_t key_bytes_ = 0;
  std::string key_;  // scratch
};

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_KEY_TABLE_H_
