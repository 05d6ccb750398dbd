#ifndef OLAP_TESTS_SUPPORT_NAIVE_AGGREGATOR_H_
#define OLAP_TESTS_SUPPORT_NAIVE_AGGREGATOR_H_

#include <vector>

#include "agg/group_by.h"
#include "cube/cube.h"

namespace olap {

// Simple whole-cube scanner: visits every stored cell once and projects it
// onto each requested group-by. The oracle against which ChunkAggregator is
// tested.
class NaiveAggregator {
 public:
  // Computes the requested group-bys of `cube` (sum over dropped dims).
  static std::vector<GroupByResult> Compute(const Cube& cube,
                                            const std::vector<GroupByMask>& masks);
};

// The per-cell oracle for one cell: its stored value when `ref` is a leaf,
// else the weighted roll-up of its leaves — CellEvaluator with no rules and
// no batch.
CellValue EvaluateCell(const Cube& cube, const CellRef& ref);

}  // namespace olap

#endif  // OLAP_TESTS_SUPPORT_NAIVE_AGGREGATOR_H_
