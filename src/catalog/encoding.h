// Columnar page encoding for table storage.
//
// Tables store encoded pages, and scans decode them — mirroring the paper's
// environment, where every scanned byte costs S3 transfer plus Parquet
// decode. This keeps the engine's scan cost proportional to the
// bytes-scanned metric, which is what makes the Figure 1 (latency) and
// Figure 2 (data read) shapes move together.
//
// Formats (one page per column per partition):
//   bool/int64/date: validity bitmap + zigzag-delta varints
//   float64:         validity bitmap + XOR-with-previous 8-byte words
//   string:          validity bitmap + varint length + bytes
//
// A NULL row still takes a delta (0) or an XOR word in the numeric
// formats, and nothing in the string format. Decoding writes every NULL
// slot as 0, 0.0 or the empty string whatever the page holds there, so a
// decoded column is the same bytes as one built by Column::AppendNull.
#ifndef FUSIONDB_CATALOG_ENCODING_H_
#define FUSIONDB_CATALOG_ENCODING_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "types/column.h"

namespace fusiondb {

/// One encoded column page.
struct EncodedColumn {
  DataType type = DataType::kInt64;
  uint32_t num_rows = 0;
  std::string buffer;

  int64_t ByteSize() const { return static_cast<int64_t>(buffer.size()); }
};

/// Encodes a column into a page.
EncodedColumn EncodeColumn(const Column& column);

/// Decodes a page back into a column, NULL slots zero. Fails with an
/// ExecutionError on a corrupt page: a short bitmap, float64 run or string,
/// a truncated varint, or one longer than ten bytes.
Result<Column> DecodeColumn(const EncodedColumn& page);

}  // namespace fusiondb

#endif  // FUSIONDB_CATALOG_ENCODING_H_
