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

  /// Intersection of two ascending selections (two-pointer merge).
  static SelVector Intersect(const SelVector& a, const SelVector& b) {
    SelVector out;
    out.reserve(a.size() < b.size() ? a.size() : b.size());
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        out.push_back(a[i]);
        ++i;
        ++j;
      }
    }
    return out;
  }

  /// Union of two ascending selections (two-pointer merge, deduplicating).
  static SelVector Union(const SelVector& a, const SelVector& b) {
    SelVector out;
    out.reserve(a.size() + b.size());
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        out.push_back(a[i++]);
      } else if (b[j] < a[i]) {
        out.push_back(b[j++]);
      } else {
        out.push_back(a[i]);
        ++i;
        ++j;
      }
    }
    while (i < a.size()) out.push_back(a[i++]);
    while (j < b.size()) out.push_back(b[j++]);
    return out;
  }

  /// Removes every index in ascending `remove` from this selection.
  void Subtract(const SelVector& remove) {
    size_t out = 0;
    size_t j = 0;
    for (size_t i = 0; i < sel_.size(); ++i) {
      while (j < remove.size() && remove[j] < sel_[i]) ++j;
      if (j < remove.size() && remove[j] == sel_[i]) continue;
      sel_[out++] = sel_[i];
    }
    sel_.resize(out);
  }

 private:
  std::vector<uint32_t> sel_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_TYPES_SEL_VECTOR_H_
