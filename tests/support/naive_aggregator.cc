#include "support/naive_aggregator.h"

#include "agg/chunk_aggregator.h"

namespace olap {

std::vector<GroupByResult> NaiveAggregator::Compute(
    const Cube& cube, const std::vector<GroupByMask>& masks) {
  std::vector<GroupByResult> out;
  out.reserve(masks.size());
  for (GroupByMask mask : masks) out.push_back(MakeGroupByShell(cube, mask));
  cube.ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
    for (GroupByResult& g : out) g.AccumulateFull(coords, v);
  });
  return out;
}

}  // namespace olap
