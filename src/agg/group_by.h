#ifndef OLAP_AGG_GROUP_BY_H_
#define OLAP_AGG_GROUP_BY_H_

#include <cstdint>
#include <vector>

#include "agg/lattice.h"
#include "common/value.h"

namespace olap {

// The dense result of one group-by: an array over the cross product of the
// kept dimensions' extents, ⊥-initialised, with sum aggregation.
class GroupByResult {
 public:
  GroupByResult() = default;
  // `kept_dims` are the dimensions in the group-by (ascending);
  // `extents[i]` is the axis size of kept_dims[i].
  GroupByResult(GroupByMask mask, std::vector<int> kept_dims,
                std::vector<int> extents);

  GroupByMask mask() const { return mask_; }
  const std::vector<int>& kept_dims() const { return kept_dims_; }
  const std::vector<int>& extents() const { return extents_; }
  int64_t num_cells() const { return static_cast<int64_t>(cells_.size()); }

  // Row-major strides over extents(), in kept_dims() order: the index of
  // `coords` is sum(coords[i] * strides()[i]). Exposed so chunk-native
  // inner loops can maintain indices incrementally instead of re-deriving
  // them per cell.
  const std::vector<int64_t>& strides() const { return strides_; }

  // `coords` indexes the kept dimensions, in kept_dims() order.
  CellValue Get(const std::vector<int>& coords) const;
  void Accumulate(const std::vector<int>& coords, CellValue v);

  // Direct-index variants for hot loops that precompute indices via
  // strides(). `idx` must be in [0, num_cells()).
  CellValue GetAt(int64_t idx) const { return CellValue::FromStorage(cells_[idx]); }
  void AccumulateAt(int64_t idx, CellValue v) {
    cells_[idx] = CellValue::ToStorage(CellValue::FromStorage(cells_[idx]) + v);
  }

  // Sentinel-encoded raw cell access for the vector kernels: the serving
  // loops (batch_eval's strided view sums) read raw_cells() with
  // CellValue::IsStorageNull tests, and the chunk aggregator's unit-stride
  // rows merge straight into mutable_raw_cells() via
  // kernels::MergeWeightedRunIntoSentinel.
  const double* raw_cells() const { return cells_.data(); }
  double* mutable_raw_cells() { return cells_.data(); }

  // Adds every non-⊥ cell of `other` (same mask and extents) into this
  // result. Slots that are ⊥ on both sides stay ⊥. This is the merge step
  // of partitioned aggregation: merging partials in ascending partition
  // order keeps results deterministic at every thread count.
  void MergeFrom(const GroupByResult& other);

  // Number of non-⊥ result cells.
  int64_t CountNonNull() const;

  friend bool operator==(const GroupByResult& a, const GroupByResult& b) {
    if (a.mask_ != b.mask_ || a.extents_ != b.extents_) return false;
    for (size_t i = 0; i < a.cells_.size(); ++i) {
      if (CellValue::FromStorage(a.cells_[i]) != CellValue::FromStorage(b.cells_[i]))
        return false;
    }
    return true;
  }

 private:
  int64_t IndexOf(const std::vector<int>& coords) const;

  GroupByMask mask_ = 0;
  std::vector<int> kept_dims_;
  std::vector<int> extents_;
  std::vector<int64_t> strides_;
  std::vector<double> cells_;
};

}  // namespace olap

#endif  // OLAP_AGG_GROUP_BY_H_
