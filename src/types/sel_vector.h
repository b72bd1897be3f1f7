// SelVector: a selection vector — the row indexes of a chunk that survive a
// predicate, in ascending order. Filters narrow a SelVector instead of
// producing byte masks, so downstream work (further conjuncts, gathers,
// masked aggregation) touches only surviving rows.
#ifndef FUSIONDB_TYPES_SEL_VECTOR_H_
#define FUSIONDB_TYPES_SEL_VECTOR_H_

#include <cstdint>
#include <vector>

namespace fusiondb {

/// An ascending list of row indexes into a chunk. Chunks are bounded by the
/// executor's chunk size, so 32-bit indexes always suffice and halve the
/// selection's cache footprint relative to size_t.
class SelVector {
 public:
  SelVector() = default;

  /// The identity selection [0, n): every row selected.
  static SelVector Dense(size_t n) {
    SelVector s;
    s.sel_.resize(n);
    for (size_t i = 0; i < n; ++i) s.sel_[i] = static_cast<uint32_t>(i);
    return s;
  }

  size_t size() const { return sel_.size(); }
  bool empty() const { return sel_.empty(); }
  uint32_t operator[](size_t i) const { return sel_[i]; }
  const uint32_t* data() const { return sel_.data(); }

  void clear() { sel_.clear(); }
  void reserve(size_t n) { sel_.reserve(n); }
  void push_back(uint32_t row) { sel_.push_back(row); }
  /// Drops all but the first `n` entries (used by in-place narrowing).
  void resize(size_t n) { sel_.resize(n); }

  std::vector<uint32_t>& indexes() { return sel_; }
  const std::vector<uint32_t>& indexes() const { return sel_; }

  auto begin() const { return sel_.begin(); }
  auto end() const { return sel_.end(); }

 private:
  std::vector<uint32_t> sel_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_TYPES_SEL_VECTOR_H_
