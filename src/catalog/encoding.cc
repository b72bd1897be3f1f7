#include "catalog/encoding.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace fusiondb {

namespace {

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// The longest varint of a 64-bit value.
constexpr size_t kMaxVarintBytes = 10;

/// Decodes the varint at `p`, reading at most `avail` bytes. Returns the
/// bytes read, or 0 when it is cut off or longer than kMaxVarintBytes. The
/// one place that knows the varint format; a caller with kMaxVarintBytes
/// readable bytes passes that constant, and the loop has no bounds check.
size_t DecodeVarint(const uint8_t* p, size_t avail, uint64_t* out) {
  const size_t limit = std::min(avail, kMaxVarintBytes);
  uint64_t v = 0;
  for (size_t i = 0; i < limit; ++i) {
    v |= static_cast<uint64_t>(p[i] & 0x7F) << (7 * i);
    if ((p[i] & 0x80) == 0) {
      *out = v;
      return i + 1;
    }
  }
  return 0;
}

bool GetVarint(const std::string& buf, size_t* pos, uint64_t* out) {
  const size_t len =
      DecodeVarint(reinterpret_cast<const uint8_t*>(buf.data()) + *pos,
                   buf.size() - *pos, out);
  *pos += len;
  return len != 0;
}

/// Writes valid[i] = bit i of the bitmap, 0 or 1, for rows [0, n): whole
/// bytes eight rows at a time, then the tail row by row.
void ExpandBitmap(const uint8_t* bitmap, size_t n, uint8_t* valid) {
  static_assert(std::endian::native == std::endian::little,
                "the eight-row expansion stores row i in byte i of a word");
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Byte b of the product is the bitmap byte; the mask keeps its bit b
    // there; adding 0x7F carries any set bit into bit 7 of its own byte.
    uint64_t w = (bitmap[i / 8] * 0x0101010101010101ULL) &
                 0x8040201008040201ULL;
    w = ((w + 0x7F7F7F7F7F7F7F7FULL) >> 7) & 0x0101010101010101ULL;
    std::memcpy(valid + i, &w, sizeof(w));
  }
  for (; i < n; ++i) valid[i] = (bitmap[i / 8] >> (i % 8)) & 1;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

EncodedColumn EncodeColumn(const Column& column) {
  EncodedColumn page;
  page.type = column.type();
  page.num_rows = static_cast<uint32_t>(column.size());
  std::string& out = page.buffer;
  size_t n = column.size();
  // Validity bitmap.
  out.reserve(n / 8 + n);
  for (size_t i = 0; i < n; i += 8) {
    uint8_t byte = 0;
    for (size_t b = 0; b < 8 && i + b < n; ++b) {
      if (column.IsValid(i + b)) byte |= static_cast<uint8_t>(1u << b);
    }
    out.push_back(static_cast<char>(byte));
  }
  switch (PhysicalTypeOf(column.type())) {
    case PhysicalType::kInt: {
      int64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        int64_t v = column.IsValid(i) ? column.IntAt(i) : prev;
        // The delta wraps modulo 2^64, as the decoder's running sum does.
        PutVarint(ZigZag(static_cast<int64_t>(static_cast<uint64_t>(v) -
                                              static_cast<uint64_t>(prev))),
                  &out);
        prev = v;
      }
      break;
    }
    case PhysicalType::kDouble: {
      uint64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        double d = column.IsValid(i) ? column.DoubleAt(i) : 0.0;
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        uint64_t xored = bits ^ prev;
        char word[8];
        std::memcpy(word, &xored, sizeof(word));
        out.append(word, sizeof(word));
        prev = bits;
      }
      break;
    }
    case PhysicalType::kString: {
      for (size_t i = 0; i < n; ++i) {
        if (!column.IsValid(i)) continue;
        const std::string& s = column.StringAt(i);
        PutVarint(s.size(), &out);
        out.append(s);
      }
      break;
    }
  }
  return page;
}

Result<Column> DecodeColumn(const EncodedColumn& page) {
  Column out(page.type);
  const size_t n = page.num_rows;
  out.Resize(n);
  const std::string& buf = page.buffer;
  const auto* data = reinterpret_cast<const uint8_t*>(buf.data());
  const size_t bitmap_bytes = (n + 7) / 8;
  if (buf.size() < bitmap_bytes) {
    return Status::ExecutionError("corrupt page: truncated validity bitmap");
  }
  uint8_t* valid = out.mutable_valid_data();
  ExpandBitmap(data, n, valid);
  size_t pos = bitmap_bytes;
  switch (PhysicalTypeOf(page.type)) {
    case PhysicalType::kInt: {
      // A NULL slot's delta is 0, so `prev` runs on through it; the slot
      // itself is written as 0.
      int64_t* ints = out.mutable_ints_data();
      uint64_t prev = 0;
      size_t i = 0;
      for (; i < n && buf.size() - pos >= kMaxVarintBytes; ++i) {
        uint64_t raw;
        const size_t len = DecodeVarint(data + pos, kMaxVarintBytes, &raw);
        if (len == 0) {
          return Status::ExecutionError("corrupt page: truncated varint");
        }
        pos += len;
        prev += static_cast<uint64_t>(UnZigZag(raw));
        ints[i] = static_cast<int64_t>(prev & -uint64_t{valid[i]});
      }
      for (; i < n; ++i) {
        uint64_t raw;
        if (!GetVarint(buf, &pos, &raw)) {
          return Status::ExecutionError("corrupt page: truncated varint");
        }
        prev += static_cast<uint64_t>(UnZigZag(raw));
        ints[i] = static_cast<int64_t>(prev & -uint64_t{valid[i]});
      }
      break;
    }
    case PhysicalType::kDouble: {
      if ((buf.size() - pos) / 8 < n) {
        return Status::ExecutionError("corrupt page: truncated float64");
      }
      double* doubles = out.mutable_doubles_data();
      uint64_t prev = 0;
      for (size_t i = 0; i < n; ++i, pos += 8) {
        uint64_t xored;
        std::memcpy(&xored, data + pos, sizeof(xored));
        prev ^= xored;
        const uint64_t bits = prev & -uint64_t{valid[i]};
        std::memcpy(&doubles[i], &bits, sizeof(bits));
      }
      break;
    }
    case PhysicalType::kString: {
      std::string* strings = out.mutable_strings_data();
      for (size_t i = 0; i < n; ++i) {
        if (valid[i] == 0) continue;
        uint64_t len;
        if (!GetVarint(buf, &pos, &len) || len > buf.size() - pos) {
          return Status::ExecutionError("corrupt page: truncated string");
        }
        strings[i].assign(buf.data() + pos, len);
        pos += len;
      }
      break;
    }
  }
  return out;
}

}  // namespace fusiondb
