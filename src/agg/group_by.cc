#include "agg/group_by.h"

#include <cassert>

#include "agg/kernels.h"

namespace olap {

GroupByResult::GroupByResult(GroupByMask mask, std::vector<int> kept_dims,
                             std::vector<int> extents)
    : mask_(mask), kept_dims_(std::move(kept_dims)), extents_(std::move(extents)) {
  assert(kept_dims_.size() == extents_.size());
  int64_t n = 1;
  strides_.assign(extents_.size(), 1);
  for (size_t i = extents_.size(); i-- > 0;) {
    strides_[i] = n;
    n *= extents_[i];
  }
  cells_.assign(n, CellValue::NullStorage());
}

int64_t GroupByResult::IndexOf(const std::vector<int>& coords) const {
  assert(coords.size() == extents_.size());
  int64_t idx = 0;
  for (size_t i = 0; i < coords.size(); ++i) {
    assert(coords[i] >= 0 && coords[i] < extents_[i]);
    idx += coords[i] * strides_[i];
  }
  return idx;
}

void GroupByResult::MergeFrom(const GroupByResult& other) {
  assert(mask_ == other.mask_ && extents_ == other.extents_);
  // At w == 1.0 the kernel's fma/mul semantics reduce to exactly the old
  // per-cell CellValue addition (see agg/kernels.h), so partitioned merges
  // stay bit-identical to the historical path.
  kernels::MergeWeightedSentinelRun(1.0, other.cells_.data(), cells_.data(),
                                    static_cast<int64_t>(cells_.size()));
}

CellValue GroupByResult::Get(const std::vector<int>& coords) const {
  return CellValue::FromStorage(cells_[IndexOf(coords)]);
}

void GroupByResult::Accumulate(const std::vector<int>& coords, CellValue v) {
  int64_t idx = IndexOf(coords);
  CellValue sum = CellValue::FromStorage(cells_[idx]) + v;
  cells_[idx] = CellValue::ToStorage(sum);
}

int64_t GroupByResult::CountNonNull() const {
  int64_t n = 0;
  for (double raw : cells_) {
    if (!CellValue::IsStorageNull(raw)) ++n;
  }
  return n;
}

}  // namespace olap
