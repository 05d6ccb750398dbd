#include "agg/chunk_aggregator.h"

#include <algorithm>

#include "agg/kernels.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace olap {

namespace {

// Partition-plan knobs. The plan must depend only on the workload — never
// on the thread count — so results stay bit-identical however the
// partitions are scheduled.
constexpr int64_t kMinChunksPerPartition = 4;
constexpr int64_t kMaxPartitions = 32;
// Cap on the total number of partial group-by cells alive at once
// (kMaxPartialCells * 8 bytes of transient memory).
constexpr int64_t kMaxPartialCells = int64_t{1} << 22;
// Below this much total work (cells × masks) the rollup stays on the
// single-partition path: partial buffers aren't worth their setup, and the
// result is then bitwise equal to the naive cell-order sum (partitioning
// re-associates floating-point addition across partition boundaries; it
// stays bit-identical across thread counts either way).
constexpr int64_t kMinWorkForPartitioning = int64_t{1} << 16;

}  // namespace

int64_t RollupPartitionCount(int64_t num_visited, int64_t cells_scanned,
                             int64_t cells_per_chunk, int64_t total_view_cells,
                             int64_t num_masks) {
  num_masks = std::max<int64_t>(1, num_masks);
  total_view_cells = std::max<int64_t>(1, total_view_cells);
  if (cells_scanned * num_masks < kMinWorkForPartitioning) return 1;
  const int64_t by_mem = std::max<int64_t>(1, kMaxPartialCells / total_view_cells);
  // Each partition pays ~total_view_cells of partial-buffer allocation and
  // merge on top of its share of the scan, so cap the partition count to
  // keep that overhead under ~25% of the scan work. Coarse views (the
  // common rollup case) leave this unconstrained; near-full-rank views
  // collapse toward the direct single-partition path.
  const int64_t by_merge_cost = std::max<int64_t>(
      1, num_visited * cells_per_chunk * num_masks / (4 * total_view_cells));
  return std::max<int64_t>(
      1, std::min<int64_t>({(num_visited + kMinChunksPerPartition - 1) /
                                kMinChunksPerPartition,
                            by_mem, by_merge_cost, kMaxPartitions}));
}

void AccumulateChunkIntoGroupBys(const ChunkLayout& layout, ChunkId id,
                                 const Chunk& chunk,
                                 std::vector<GroupByResult>* out) {
  const int n = layout.num_dims();
  const std::vector<int>& extents = layout.extents();
  const std::vector<int>& csize = layout.chunk_sizes();
  const std::vector<int> base = layout.ChunkBase(id);
  const size_t num_gb = out->size();

  if (n == 0) {  // Zero-dimensional cube: one cell, every group-by is root.
    if (chunk.size() > 0 && !chunk.IsNull(0)) {
      for (size_t g = 0; g < num_gb; ++g) {
        (*out)[g].AccumulateAt(0, CellValue(chunk.ValueAt(0)));
      }
    }
    return;
  }

  // Per group-by, per cube dimension: the output-index stride of that
  // dimension (0 when the group-by drops it), plus the output index of the
  // projection of each row's first cell. The row loop maintains each output
  // index incrementally as the odometer advances — no per-cell coordinate
  // projection or allocation.
  std::vector<std::vector<int64_t>> stride(num_gb, std::vector<int64_t>(n, 0));
  std::vector<int64_t> gb_idx(num_gb, 0);
  for (size_t g = 0; g < num_gb; ++g) {
    const GroupByResult& r = (*out)[g];
    const std::vector<int>& kept = r.kept_dims();
    for (size_t i = 0; i < kept.size(); ++i) stride[g][kept[i]] = r.strides()[i];
    int64_t idx = 0;
    for (int d = 0; d < n; ++d) idx += static_cast<int64_t>(base[d]) * stride[g][d];
    gb_idx[g] = idx;
  }

  // Row-tiled walk: the outer odometer covers the leading dimensions
  // (still last-dimension-fastest, the visit order of
  // ChunkLayout::ForEachCellInChunk), and the whole last-dimension row —
  // the unit-stride direction of both the chunk and any group-by that
  // keeps the last dimension — is processed by one kernel call:
  //
  //   stride[last] == 0  (row collapses onto one output cell, the Lemma 5.1
  //                      varying-dimension-first shape): one MaskedRunSum,
  //                      then a single ⊥-aware accumulate of the row total.
  //                      This re-associates the in-row sum into the kernel's
  //                      fixed 4-lane shape — deterministic and
  //                      thread-count-invariant, exact on integer data.
  //   stride[last] == 1  (row maps 1:1 onto contiguous output cells): one
  //                      weighted-merge kernel at w == 1.0, which is
  //                      bit-identical to the per-cell CellValue addition.
  //   other strides      (not produced by GroupByResult's row-major layout,
  //                      kept for generality): scalar bit-walk.
  //
  // Rows whose leading coordinates exceed the extents are skipped, and the
  // in-extent row length clips padded trailing cells, so a malformed chunk
  // can never corrupt an aggregate (the old per-cell oob_dims defense).
  const int last = n - 1;
  const int row_cap = csize[last];
  const int row_len = std::min(row_cap, extents[last] - base[last]);
  const double* vals = chunk.ValuesSpan();
  const uint64_t* bits = chunk.NullBits().words();
  std::vector<int> coords = base;
  int oob_dims = 0;  // #leading dims whose coordinate exceeds the extent.
  const int64_t rows = layout.cells_per_chunk() / row_cap;
  int64_t off = 0;
  for (int64_t row = 0; row < rows; ++row, off += row_cap) {
    if (oob_dims == 0 && row_len > 0) {
      bool row_summed = false;
      kernels::RunSum row_sum;
      for (size_t g = 0; g < num_gb; ++g) {
        const int64_t s = stride[g][last];
        if (s == 0) {
          if (!row_summed) {
            row_sum = kernels::MaskedRunSum(vals + off, bits, off, row_len);
            row_summed = true;
          }
          if (row_sum.count > 0) {
            (*out)[g].AccumulateAt(gb_idx[g], CellValue(row_sum.sum));
          }
        } else if (s == 1) {
          kernels::MergeWeightedRunIntoSentinel(
              1.0, vals + off, bits, off,
              (*out)[g].mutable_raw_cells() + gb_idx[g], row_len);
        } else {
          for (int k = 0; k < row_len; ++k) {
            if (kernels::detail::TestBit(bits, off + k)) {
              (*out)[g].AccumulateAt(gb_idx[g] + k * s,
                                     CellValue(vals[off + k]));
            }
          }
        }
      }
    }
    int d = last - 1;
    while (d >= 0) {
      const bool was_oob = coords[d] >= extents[d];
      ++coords[d];
      for (size_t g = 0; g < num_gb; ++g) gb_idx[g] += stride[g][d];
      if (coords[d] < base[d] + csize[d]) {
        oob_dims += static_cast<int>(coords[d] >= extents[d]) -
                    static_cast<int>(was_oob);
        break;
      }
      coords[d] = base[d];  // Chunk bases are always inside the extents.
      for (size_t g = 0; g < num_gb; ++g) {
        gb_idx[g] -= static_cast<int64_t>(csize[d]) * stride[g][d];
      }
      oob_dims -= static_cast<int>(was_oob);
      --d;
    }
    if (d < 0) break;
  }
}

GroupByResult MakeGroupByShell(const Cube& cube, GroupByMask mask) {
  std::vector<int> kept, extents;
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (mask & (GroupByMask{1} << d)) {
      kept.push_back(d);
      extents.push_back(cube.layout().extents()[d]);
    }
  }
  return GroupByResult(mask, std::move(kept), std::move(extents));
}

std::vector<GroupByResult> ChunkAggregator::Compute(
    const std::vector<GroupByMask>& masks, const std::vector<int>& order,
    SimulatedDisk* disk, int threads, const CancellationToken& cancel) {
  TraceSpan span("agg.rollup");
  stats_ = AggStats{};
  std::vector<GroupByResult> out;
  out.reserve(masks.size());
  for (GroupByMask mask : masks) out.push_back(MakeGroupByShell(cube_, mask));

  const ChunkLayout& layout = cube_.layout();
  Lattice lattice(layout);
  for (GroupByMask mask : masks) {
    stats_.mmst_memory_cells += lattice.MemoryRequirementCells(mask, order);
  }

  // Serial traversal pre-pass: walk the chunk grid with an odometer where
  // order[0] increments fastest, recording the stored chunks in visit
  // order. Stats and disk charging happen here, in traversal order, so
  // they do not depend on `threads`.
  const int n = layout.num_dims();
  std::vector<int> chunk_coords(n, 0);
  const std::vector<int>& grid = layout.chunks_per_dim();
  std::vector<std::pair<ChunkId, const Chunk*>> visit;
  while (true) {
    ++stats_.chunks_visited;
    ChunkId id = layout.ChunkIdAt(chunk_coords);
    const Chunk* chunk = cube_.FindChunk(id);
    if (chunk != nullptr) {
      ++stats_.chunks_read;
      if (disk != nullptr) disk->ReadChunk(id);
      stats_.cells_scanned += chunk->CountNonNull();
      visit.emplace_back(id, chunk);
    }
    // Odometer over chunk coords in the requested dimension order.
    int pos = 0;
    while (pos < n) {
      int dim = order[pos];
      if (++chunk_coords[dim] < grid[dim]) break;
      chunk_coords[dim] = 0;
      ++pos;
    }
    if (pos == n) break;
  }

  // Accumulation: the visit list is cut into contiguous partitions; each
  // partition projects its cells onto every group-by in one traversal
  // (incremental stride-table indices, no per-cell coordinate vectors), and
  // the per-partition partials merge in ascending partition order. The
  // partition count depends only on the workload — visit-list length and
  // partial-buffer memory — so the cell-consumption and merge orders, and
  // therefore every floating-point sum, are identical at every thread
  // count; `threads` only changes which worker runs which partition.
  const int64_t num_visited = static_cast<int64_t>(visit.size());
  int64_t total_view_cells = 0;
  for (const GroupByResult& g : out) total_view_cells += g.num_cells();
  const int64_t num_partitions =
      RollupPartitionCount(num_visited, stats_.cells_scanned,
                           layout.cells_per_chunk(), total_view_cells,
                           static_cast<int64_t>(masks.size()));

  if (num_partitions <= 1) {
    for (const auto& [id, chunk] : visit) {
      if (cancel.ShouldStop()) break;  // Caller discards the partial result.
      AccumulateChunkIntoGroupBys(layout, id, *chunk, &out);
    }
  } else {
    std::vector<std::vector<GroupByResult>> partials(num_partitions);
    auto run_partition = [&](int64_t p) {
      std::vector<GroupByResult>& mine = partials[p];
      mine.reserve(masks.size());
      for (GroupByMask mask : masks) mine.push_back(MakeGroupByShell(cube_, mask));
      const int64_t begin = p * num_visited / num_partitions;
      const int64_t end = (p + 1) * num_visited / num_partitions;
      for (int64_t i = begin; i < end; ++i) {
        if (cancel.ShouldStop()) return;  // Partition stays partial; see below.
        AccumulateChunkIntoGroupBys(layout, visit[i].first, *visit[i].second,
                                    &mine);
      }
    };
    ThreadPool::Shared().ParallelFor(
        num_partitions, threads,
        stats_.cells_scanned * static_cast<int64_t>(masks.size()),
        run_partition, cancel);
    for (int64_t p = 0; p < num_partitions; ++p) {
      // A cancelled run may have skipped partitions outright, leaving
      // their shell vectors unbuilt — skip them; the result is discarded.
      if (partials[p].size() != out.size()) continue;
      for (size_t m = 0; m < out.size(); ++m) out[m].MergeFrom(partials[p][m]);
    }
  }

  span.SetDetail("masks=" + std::to_string(masks.size()) +
                 " chunks=" + std::to_string(stats_.chunks_read));
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* rollups = reg.counter("agg.rollups");
  static Counter* chunks_read = reg.counter("agg.chunks_read");
  static Counter* cells_scanned = reg.counter("agg.cells_scanned");
  static Gauge* mmst = reg.gauge("agg.mmst_memory_cells");
  rollups->Increment();
  chunks_read->Increment(stats_.chunks_read);
  cells_scanned->Increment(stats_.cells_scanned);
  mmst->Set(stats_.mmst_memory_cells);
  return out;
}

Result<std::vector<GroupByResult>> ChunkAggregator::ComputeOutOfCore(
    const std::vector<GroupByMask>& masks, const std::vector<int>& order,
    SimulatedDisk* disk, const CancellationToken& cancel) {
  TraceSpan span("agg.rollup_outofcore");
  if (disk == nullptr || !disk->has_backing()) {
    Status status =
        Status::FailedPrecondition("out-of-core rollup needs a backing file");
    span.SetError(status);
    return status;
  }
  stats_ = AggStats{};
  std::vector<GroupByResult> out;
  out.reserve(masks.size());
  for (GroupByMask mask : masks) out.push_back(MakeGroupByShell(cube_, mask));

  const ChunkLayout& layout = cube_.layout();
  Lattice lattice(layout);
  for (GroupByMask mask : masks) {
    stats_.mmst_memory_cells += lattice.MemoryRequirementCells(mask, order);
  }

  // Same odometer traversal as Compute, but "stored" means present in the
  // backing file's chunk index — the data never has to be in memory.
  const CubeChunkIndex& index = disk->backing_index();
  const int n = layout.num_dims();
  std::vector<int> chunk_coords(n, 0);
  const std::vector<int>& grid = layout.chunks_per_dim();
  std::vector<ChunkId> visit;
  while (true) {
    ++stats_.chunks_visited;
    ChunkId id = layout.ChunkIdAt(chunk_coords);
    if (index.entries.count(id) > 0) {
      ++stats_.chunks_read;
      visit.push_back(id);
    }
    int pos = 0;
    while (pos < n) {
      int dim = order[pos];
      if (++chunk_coords[dim] < grid[dim]) break;
      chunk_coords[dim] = 0;
      ++pos;
    }
    if (pos == n) break;
  }

  // The partition plan is Compute's, with the one out-of-core difference
  // that cells_scanned is unknown before the stream runs, so the work
  // estimate uses whole-chunk cell counts. Still workload-only.
  const int64_t num_visited = static_cast<int64_t>(visit.size());
  int64_t total_view_cells = 0;
  for (const GroupByResult& g : out) total_view_cells += g.num_cells();
  const int64_t num_partitions = RollupPartitionCount(
      num_visited, num_visited * layout.cells_per_chunk(),
      layout.cells_per_chunk(), total_view_cells,
      static_cast<int64_t>(masks.size()));

  std::vector<std::vector<GroupByResult>> partials;
  if (num_partitions > 1) {
    partials.resize(num_partitions);
    for (int64_t p = 0; p < num_partitions; ++p) {
      partials[p].reserve(masks.size());
      for (GroupByMask mask : masks) {
        partials[p].push_back(MakeGroupByShell(cube_, mask));
      }
    }
  }
  // Chunks arrive in visit order; each goes to the partition owning its
  // visit index.
  int64_t next = 0;
  Status stream_status = disk->ReadSchedule(
      visit,
      [&](ChunkId id, const Chunk& chunk) {
        stats_.cells_scanned += chunk.CountNonNull();
        std::vector<GroupByResult>* sink =
            num_partitions > 1 ? &partials[next * num_partitions / num_visited]
                               : &out;
        AccumulateChunkIntoGroupBys(layout, id, chunk, sink);
        ++next;
      },
      cancel);
  if (!stream_status.ok()) {
    span.SetError(stream_status);
    return stream_status;
  }
  if (num_partitions > 1) {
    for (int64_t p = 0; p < num_partitions; ++p) {
      for (size_t m = 0; m < out.size(); ++m) out[m].MergeFrom(partials[p][m]);
    }
  }

  span.SetDetail("masks=" + std::to_string(masks.size()) +
                 " chunks=" + std::to_string(stats_.chunks_read));
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* rollups = reg.counter("agg.rollups");
  static Counter* chunks_read = reg.counter("agg.chunks_read");
  static Counter* cells_scanned = reg.counter("agg.cells_scanned");
  static Gauge* mmst = reg.gauge("agg.mmst_memory_cells");
  rollups->Increment();
  chunks_read->Increment(stats_.chunks_read);
  cells_scanned->Increment(stats_.cells_scanned);
  mmst->Set(stats_.mmst_memory_cells);
  return out;
}

}  // namespace olap
