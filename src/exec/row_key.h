// RowKeyEncoder: serializes a row's key columns into a flat byte string so
// hash tables key on std::string instead of std::vector<Value>. This is the
// usual engine trick for group-by / join / distinct keys: one buffer reuse
// per row instead of per-value boxing.
//
// Encoding per column: 1 null byte; when valid, 8 raw bytes for numeric
// physical types or varint length + bytes for strings. The encoding is
// prefix-free per column, so equal encodings imply structurally equal keys
// (NULL == NULL, matching SQL grouping semantics).
#ifndef FUSIONDB_EXEC_ROW_KEY_H_
#define FUSIONDB_EXEC_ROW_KEY_H_

#include <cstring>
#include <string>
#include <vector>

#include "types/chunk.h"

namespace fusiondb {

class RowKeyEncoder {
 public:
  /// Encodes the key of `row` drawn from `columns[indexes]` into *out
  /// (cleared first). Returns true when any key component is NULL.
  static bool Encode(const Chunk& chunk, const std::vector<int>& indexes,
                     size_t row, std::string* out) {
    out->clear();
    bool has_null = false;
    for (int idx : indexes) {
      has_null |= EncodeColumn(chunk.columns[idx], row, out);
    }
    return has_null;
  }

  /// Same encoding over a column-pointer view: key columns that need not be
  /// contiguous in (or belong to) any chunk. The compiled pipeline encodes
  /// group keys read from its morsel or evaluated off it; the bytes match
  /// the chunk overload column-for-column.
  static bool Encode(const std::vector<const Column*>& columns, size_t row,
                     std::string* out) {
    out->clear();
    bool has_null = false;
    for (const Column* col : columns) {
      has_null |= EncodeColumn(*col, row, out);
    }
    return has_null;
  }

 private:
  static bool EncodeColumn(const Column& col, size_t row, std::string* out) {
    if (col.IsNull(row)) {
      out->push_back('\0');
      return true;
    }
    out->push_back('\1');
    switch (PhysicalTypeOf(col.type())) {
      case PhysicalType::kInt: {
        int64_t v = col.IntAt(row);
        AppendRaw(&v, sizeof(v), out);
        break;
      }
      case PhysicalType::kDouble: {
        double v = col.DoubleAt(row);
        AppendRaw(&v, sizeof(v), out);
        break;
      }
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

  static void AppendRaw(const void* p, size_t n, std::string* out) {
    out->append(static_cast<const char*>(p), n);
  }
};

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_ROW_KEY_H_
