#ifndef OLAP_AGG_CHUNK_AGGREGATOR_H_
#define OLAP_AGG_CHUNK_AGGREGATOR_H_

#include <cstdint>
#include <vector>

#include "agg/group_by.h"
#include "agg/lattice.h"
#include "common/cancellation.h"
#include "cube/cube.h"
#include "storage/simulated_disk.h"

namespace olap {

// Statistics from one aggregation pass.
struct AggStats {
  int64_t chunks_visited = 0;   // Chunk-grid cells traversed.
  int64_t chunks_read = 0;      // Chunks that actually held data.
  int64_t cells_scanned = 0;    // Non-⊥ input cells.
  int64_t mmst_memory_cells = 0;  // Analytic Zhao memory bound for the pass.
};

// Zhao-style aggregator: reads chunks in an explicit dimension order
// (order[0] varies fastest) and accumulates every requested group-by in one
// pass. Optionally charges each chunk read to a SimulatedDisk.
//
// The numeric results equal a per-cell scan of the cube (tested); what the
// dimension order changes is the I/O pattern and the analytic memory bound
// (AggStats::mmst_memory_cells) — which is what the paper's Lemma 5.1
// argument and the Zhao MMST are about.
class ChunkAggregator {
 public:
  explicit ChunkAggregator(const Cube& cube) : cube_(cube) {}

  // `order`: permutation of dimensions; order[0] is read fastest.
  // `disk` may be null.
  //
  // The stored chunks (in traversal order) are split into a deterministic
  // sequence of contiguous partitions whose count depends only on the
  // workload (never on `threads`); each partition accumulates every
  // requested group-by in one pass over its chunks, and the per-partition
  // partials are merged in ascending partition order. `threads` > 1 runs
  // the partitions in parallel on the shared pool; because the partition
  // plan and the merge order are thread-independent, the results are
  // bit-identical at every thread count. Stats and disk charging come from
  // a serial traversal pre-pass and are likewise unchanged.
  //
  // `cancel` is polled at chunk/partition granularity. A pass that
  // observes a stop request returns early with *incomplete* partials — the
  // caller owns checking the token afterwards and must discard the result
  // (never publish it into a cache).
  std::vector<GroupByResult> Compute(const std::vector<GroupByMask>& masks,
                                     const std::vector<int>& order,
                                     SimulatedDisk* disk = nullptr,
                                     int threads = 1,
                                     const CancellationToken& cancel = {});

  // Out-of-core variant: reads the chunk data from `disk`'s backing file
  // (which must store this aggregator's cube) instead of the in-memory
  // chunk map, streaming the traversal through SimulatedDisk::ReadSchedule
  // (coalesced ranged reads, delivered in traversal order). The traversal
  // order, the workload-only partition plan and the ascending partial
  // merge follow Compute's, so the views equal Compute's (bitwise on
  // exactly-summable data: the plan estimates work from whole-chunk cell
  // counts, which may cut different partitions).
  // kFailedPrecondition without a backing file; read errors propagate
  // once the walk's retries are spent; `cancel` is polled per ranged read
  // and a stop request returns kCancelled / kDeadlineExceeded.
  Result<std::vector<GroupByResult>> ComputeOutOfCore(
      const std::vector<GroupByMask>& masks, const std::vector<int>& order,
      SimulatedDisk* disk, const CancellationToken& cancel = {});

  const AggStats& stats() const { return stats_; }

 private:
  const Cube& cube_;
  AggStats stats_;
};

// Accumulates every non-⊥ cell of `chunk` (chunk id `id` of `layout`) into
// each group-by of `out` in row-major offset order, maintaining one
// incrementally-updated output index per group-by (no per-cell coordinate
// vectors). Padded cells beyond the layout extents are always ⊥, so the
// null check alone keeps them out. Shared by ChunkAggregator and the
// batched derived-cell evaluator.
void AccumulateChunkIntoGroupBys(const ChunkLayout& layout, ChunkId id,
                                 const Chunk& chunk,
                                 std::vector<GroupByResult>* out);

// Helper shared with the engine: makes one GroupByResult shell for `mask`
// over `cube`'s position extents.
GroupByResult MakeGroupByShell(const Cube& cube, GroupByMask mask);

// The roll-up partition plan shared by Compute and ComputeOutOfCore: how
// many contiguous partitions a visit list of `num_visited` stored chunks is
// cut into, given the input-cell work estimate `cells_scanned` and the
// summed cell count of the requested views. Depends only on the workload,
// never on the thread count. Partition p owns visit indices
// [p * num_visited / count, (p + 1) * num_visited / count), and the
// partials merge in ascending p.
int64_t RollupPartitionCount(int64_t num_visited, int64_t cells_scanned,
                             int64_t cells_per_chunk, int64_t total_view_cells,
                             int64_t num_masks);

}  // namespace olap

#endif  // OLAP_AGG_CHUNK_AGGREGATOR_H_
