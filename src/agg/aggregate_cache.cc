#include "agg/aggregate_cache.h"

#include <algorithm>
#include <numeric>

#include "agg/kernels.h"
#include "common/metrics.h"

namespace olap {

namespace {

// Residency accounting; serving (agg.cache.lookups/hits/misses) is
// counted by BatchCellEvaluator, the only code that sums views.
struct CacheMetrics {
  Counter* views_kept;
  Counter* views_dropped;

  static const CacheMetrics& Get() {
    static CacheMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return CacheMetrics{reg.counter("cache.invalidate.views_kept"),
                          reg.counter("cache.invalidate.views_dropped")};
    }();
    return m;
  }
};

// Adds to `counts` (one counter per cell of `view`) the number of non-⊥
// cells of `chunk` (chunk id `id` of `layout`) that project onto each view
// cell: the contribution-count sidecar's build pass. Walks the chunk in
// last-dimension rows like AccumulateChunkIntoGroupBys, skipping rows and
// cells outside the layout extents.
void CountChunkIntoGroupBy(const ChunkLayout& layout, ChunkId id,
                           const Chunk& chunk, const GroupByResult& view,
                           int32_t* counts) {
  const int n = layout.num_dims();
  if (n == 0) {
    if (chunk.size() > 0 && !chunk.IsNull(0)) ++counts[0];
    return;
  }
  const std::vector<int>& extents = layout.extents();
  const std::vector<int>& csize = layout.chunk_sizes();
  const std::vector<int> base = layout.ChunkBase(id);
  std::vector<int64_t> stride(n, 0);
  const std::vector<int>& kept = view.kept_dims();
  for (size_t i = 0; i < kept.size(); ++i) stride[kept[i]] = view.strides()[i];
  int64_t idx = 0;
  for (int d = 0; d < n; ++d) idx += static_cast<int64_t>(base[d]) * stride[d];

  const int last = n - 1;
  const int row_cap = csize[last];
  const int row_len = std::min(row_cap, extents[last] - base[last]);
  const int64_t s = stride[last];
  const uint64_t* bits = chunk.NullBits().words();
  std::vector<int> coords = base;
  int oob_dims = 0;  // #leading dims whose coordinate exceeds the extent.
  const int64_t rows = layout.cells_per_chunk() / row_cap;
  int64_t off = 0;
  for (int64_t row = 0; row < rows; ++row, off += row_cap) {
    if (oob_dims == 0 && row_len > 0) {
      if (s == 0) {
        counts[idx] +=
            static_cast<int32_t>(kernels::PopcountRange(bits, off, row_len));
      } else {
        for (int k = 0; k < row_len; ++k) {
          if (kernels::detail::TestBit(bits, off + k)) ++counts[idx + k * s];
        }
      }
    }
    int d = last - 1;
    while (d >= 0) {
      const bool was_oob = coords[d] >= extents[d];
      ++coords[d];
      idx += stride[d];
      if (coords[d] < base[d] + csize[d]) {
        oob_dims += static_cast<int>(coords[d] >= extents[d]) -
                    static_cast<int>(was_oob);
        break;
      }
      coords[d] = base[d];
      idx -= static_cast<int64_t>(csize[d]) * stride[d];
      oob_dims -= static_cast<int>(was_oob);
      --d;
    }
    if (d < 0) break;
  }
}

}  // namespace

AggregateCache::AggregateCache(const Cube& cube,
                               const std::vector<GroupByMask>& masks,
                               int threads, const CancellationToken& cancel)
    : masks_(masks) {
  ChunkAggregator aggregator(cube);
  std::vector<int> order(cube.num_dims());
  std::iota(order.begin(), order.end(), 0);
  views_ = aggregator.Compute(masks_, order, /*disk=*/nullptr, threads, cancel);
  resident_.assign(views_.size(), 1);
}

AggregateCache::AggregateCache(const Cube& cube,
                               const std::vector<GroupByMask>& masks,
                               SimulatedDisk* disk, int threads,
                               const CancellationToken& cancel)
    : masks_(masks) {
  ChunkAggregator aggregator(cube);
  std::vector<int> order(cube.num_dims());
  std::iota(order.begin(), order.end(), 0);
  Result<std::vector<GroupByResult>> streamed =
      disk != nullptr
          ? aggregator.ComputeOutOfCore(masks_, order, disk, cancel)
          : Result<std::vector<GroupByResult>>(
                Status(StatusCode::kFailedPrecondition, "no disk"));
  if (streamed.ok()) {
    views_ = *std::move(streamed);
  } else if (streamed.status().code() == StatusCode::kCancelled ||
             streamed.status().code() == StatusCode::kDeadlineExceeded) {
    // The query is being torn down; a full in-memory scan now would be
    // wasted work. Leave the cache empty — the owner must discard it.
  } else {
    // The in-memory pass is always available and value-equivalent.
    views_ = aggregator.Compute(masks_, order, /*disk=*/nullptr, threads,
                                cancel);
  }
  resident_.assign(views_.size(), 1);
}

AggregateCache AggregateCache::BuildGreedy(const Cube& cube, int max_views) {
  Lattice lattice(cube.layout());
  SelectedViews selected = SelectViewsGreedy(lattice, max_views);
  return AggregateCache(cube, selected.views);
}

int64_t AggregateCache::TotalCells() const {
  int64_t total = 0;
  for (int i = 0; i < num_views(); ++i) {
    if (resident_[i]) total += views_[i].num_cells();
  }
  return total;
}

const GroupByResult* AggregateCache::SmallestCovering(GroupByMask needed) const {
  int best = -1;
  for (int i = 0; i < num_views(); ++i) {
    if (!resident_[i] || (needed & masks_[i]) != needed) continue;
    if (best < 0 || views_[i].num_cells() < views_[best].num_cells()) best = i;
  }
  return best < 0 ? nullptr : &views_[best];
}

void AggregateCache::EnableIncrementalMaintenance(const Cube& cube) {
  counts_.assign(views_.size(), {});
  for (size_t g = 0; g < views_.size(); ++g) {
    if (resident_[g]) {
      counts_[g].assign(static_cast<size_t>(views_[g].num_cells()), 0);
    }
  }
  const ChunkLayout& layout = cube.layout();
  cube.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    for (size_t g = 0; g < views_.size(); ++g) {
      if (!resident_[g]) continue;
      CountChunkIntoGroupBy(layout, id, chunk, views_[g], counts_[g].data());
    }
  });
  incremental_ = true;
}

void AggregateCache::PatchCellDelta(const std::vector<int>& coords,
                                    double old_storage, double new_storage) {
  if (!incremental_) {
    DropResidentViews();
    return;
  }
  const double null_storage = CellValue::ToStorage(CellValue::Null());
  const bool had_old = !CellValue::IsStorageNull(old_storage);
  const bool has_new = !CellValue::IsStorageNull(new_storage);
  int64_t kept = 0;
  for (size_t g = 0; g < views_.size(); ++g) {
    if (!resident_[g]) continue;
    GroupByResult& view = views_[g];
    const std::vector<int>& dims = view.kept_dims();
    int64_t idx = 0;
    for (size_t i = 0; i < dims.size(); ++i) {
      idx += static_cast<int64_t>(coords[dims[i]]) * view.strides()[i];
    }
    int32_t& count = counts_[g][idx];
    if (had_old) {
      view.AccumulateAt(idx, CellValue(-old_storage));
      --count;
    }
    if (has_new) {
      view.AccumulateAt(idx, CellValue(new_storage));
      ++count;
    }
    if (count == 0) view.mutable_raw_cells()[idx] = null_storage;
    ++kept;
  }
  CacheMetrics::Get().views_kept->Increment(kept);
}

void AggregateCache::DropResidentViews() {
  int64_t dropped = 0;
  for (size_t g = 0; g < views_.size(); ++g) {
    if (!resident_[g]) continue;
    views_[g] = GroupByResult();
    if (g < counts_.size()) {
      counts_[g].clear();
      counts_[g].shrink_to_fit();
    }
    resident_[g] = 0;
    ++dropped;
  }
  incremental_ = false;
  CacheMetrics::Get().views_dropped->Increment(dropped);
}

}  // namespace olap
