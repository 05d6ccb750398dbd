#include "support/naive_aggregator.h"

#include "rules/evaluator.h"

#include "agg/chunk_aggregator.h"

namespace olap {

std::vector<GroupByResult> NaiveAggregator::Compute(
    const Cube& cube, const std::vector<GroupByMask>& masks) {
  std::vector<GroupByResult> out;
  out.reserve(masks.size());
  for (GroupByMask mask : masks) out.push_back(MakeGroupByShell(cube, mask));
  std::vector<int> kept;
  cube.ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
    for (GroupByResult& g : out) {
      // Project the full-rank coordinate onto the group-by's kept dims.
      kept.resize(g.kept_dims().size());
      for (size_t i = 0; i < kept.size(); ++i) kept[i] = coords[g.kept_dims()[i]];
      g.Accumulate(kept, v);
    }
  });
  return out;
}

CellValue EvaluateCell(const Cube& cube, const CellRef& ref) {
  return CellEvaluator(cube, nullptr).Evaluate(ref);
}

}  // namespace olap
