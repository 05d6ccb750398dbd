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

}  // namespace olap

#endif  // OLAP_TESTS_SUPPORT_NAIVE_AGGREGATOR_H_
