// KeyTable: the executor's one hash table over row keys, shared by join
// build and probe, GROUP BY, window partitions and DISTINCT aggregates. Key format (-0.0 is 0.0), NULL semantics, ids, the layout,
// the memory formula and the merge remap: DESIGN.md §6.4.
#ifndef FUSIONDB_EXEC_KEY_TABLE_H_
#define FUSIONDB_EXEC_KEY_TABLE_H_

#include <cstdint>
#include <string>
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

/// The 32-bit hash of a key of `n` fixed-width words (one per int- or
/// double-physical column, -0.0 normalized, 0 for NULL). A key's probe
/// starts at the slot its low bits select; tests use this to build keys
/// that collide.
uint32_t HashKeyWords(const uint64_t* words, size_t n);

class KeyTable {
 public:
  static constexpr uint32_t kNoId = UINT32_MAX;

  /// A prober's per-block buffers: hashes and normalized keys. Find keeps
  /// its state here rather than in the table, so threads that each own a
  /// Scratch may probe one table at once.
  struct Scratch {
    std::vector<uint64_t> hashes;
    std::vector<uint64_t> words;    // fixed-width keys, row-major
    std::vector<uint64_t> nulls;    // per row: bit c set when column c is NULL
    std::string bytes;              // byte keys, concatenated
    std::vector<uint64_t> offsets;  // byte key i is [offsets[i], offsets[i+1])
  };

  /// Looks up the keys of rows [0, n) in row order, adding each new key
  /// under the next id. ids[i] receives row i's id and, when `inserted` is
  /// given, inserted[i] whether row i added its key: of equal keys, only
  /// the first row to arrive, in this call or an earlier one, adds it.
  void Insert(const KeyColumns& columns, size_t n, uint32_t* ids,
              uint8_t* inserted = nullptr);
  /// As above over the rows `sel` selects, in selection order: ids[i] and
  /// inserted[i] are those of row sel[i].
  void Insert(const KeyColumns& columns, const SelVector& sel, uint32_t* ids,
              uint8_t* inserted = nullptr);

  /// Declares the table complete: no key is added after. A table keyed on
  /// one int-physical column whose non-NULL keys span at most twice the
  /// slot count then gets a direct-address index (at most as many bytes as
  /// the slots), which Find reads instead of hashing.
  void Seal();

  /// ids[i] receives the id of row i's key for rows [0, n), or kNoId when
  /// the key is absent or has a NULL column (an equi-join probe: NULL
  /// matches nothing).
  void Find(const KeyColumns& columns, size_t n, Scratch* scratch,
            uint32_t* ids) const;

  /// Appends every key, in id order, to out[0..k): one typed output column
  /// per key column, whose type says how to read its stored form.
  void DecodeAll(Column* out) const;

  /// Folds in a partial table built over other rows: its keys are looked
  /// up in its id order and new ones appended here in that order. Returns
  /// the remap from each of `partial`'s ids to its id here.
  std::vector<uint32_t> Merge(const KeyTable& partial);

  size_t size() const { return size_; }

  /// Memory metric: 8 bytes per slot plus the key store, 8 bytes per key
  /// column per key for fixed-width keys (and 8 per key for NULL flags once
  /// any key has a NULL), or the encoded key bytes plus an 8-byte offset
  /// per key, plus 4 bytes per direct-address entry (max - min + 1 of a
  /// sealed table's index). The slot count is 16 times a power of four,
  /// the smallest such count at least twice the key count: a function of
  /// the key count, so the figure depends only on the set of keys and is
  /// the same at every thread count.
  int64_t bytes() const;

 private:
  enum class Layout : uint8_t { kUnset, kWords, kBytes };

  /// A hash slot: the key's 32-bit hash and its id (kNoId when empty).
  struct Slot {
    uint32_t hash;
    uint32_t id;
  };

  void InsertRows(const KeyColumns& columns, const uint32_t* sel, size_t n,
                  uint32_t* ids, uint8_t* inserted);
  /// Fixes the layout from the key columns' physical types.
  void SetLayout(std::vector<PhysicalType> types);
  void CheckColumns(const KeyColumns& columns) const;
  /// Fills scratch with rows [begin, begin + m) (of `sel` when set):
  /// hashes, NULL masks, and the normalized keys in this table's layout.
  void HashBlock(const KeyColumns& columns, const uint32_t* sel, size_t begin,
                 size_t m, Scratch* scratch) const;
  /// The id of scratch key i, added under the next id when absent.
  uint32_t AddScratchKey(const Scratch& s, size_t i, bool* added);
  /// The id of scratch key i, or kNoId when absent or NULL.
  uint32_t FindScratchKey(const Scratch& s, size_t i) const;
  /// Find over the direct-address index: rows [0, n) of `column`.
  void FindDense(const Column& column, size_t n, uint32_t* ids) const;

  /// The id of the key that hashes to `hash` and satisfies `eq`. When it
  /// is absent, claims a slot for it under the next id and sets *added;
  /// the caller then appends the key to the store.
  template <typename Eq>
  uint32_t FindOrClaim(uint32_t hash, const Eq& eq, bool* added);
  template <typename Eq>
  uint32_t Lookup(uint32_t hash, const Eq& eq) const;
  /// Quadruples the slots, placing each from its stored hash.
  void Grow();

  /// The id of a key in this table's layout, added when absent.
  uint32_t AddWords(uint32_t hash, const uint64_t* key, uint64_t nulls,
                    bool* added);
  uint32_t AddBytes(uint32_t hash, const char* key, size_t len, bool* added);
  uint64_t NullsOf(uint32_t id) const {
    return nulls_.empty() ? 0 : nulls_[id];
  }
  bool WordsEqual(uint32_t id, const uint64_t* key, uint64_t nulls) const;
  bool BytesEqual(uint32_t id, const char* key, size_t len) const;

  Layout layout_ = Layout::kUnset;
  std::vector<PhysicalType> types_;  // per key column
  uint32_t size_ = 0;
  std::vector<Slot> slots_;  // open addressing, linear probing
  // kWords: types_.size() words per key in id order; NULL masks per key,
  // empty while no key has a NULL column.
  std::vector<uint64_t> words_;
  std::vector<uint64_t> nulls_;
  // kBytes: prefix-free encoded keys in id order; key i is
  // arena_[offsets_[i], offsets_[i + 1]).
  std::string arena_;
  std::vector<uint64_t> offsets_;
  // Sealed one-int-column tables: dense_[v - dense_min_] is the id of key
  // v, or kNoId; empty when the keys are too sparse or the table unsealed.
  std::vector<uint32_t> dense_;
  int64_t dense_min_ = 0;
  bool sealed_ = false;
  Scratch scratch_;  // Insert's
};

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_KEY_TABLE_H_
