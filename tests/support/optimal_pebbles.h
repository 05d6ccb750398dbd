#ifndef OLAP_TESTS_SUPPORT_OPTIMAL_PEBBLES_H_
#define OLAP_TESTS_SUPPORT_OPTIMAL_PEBBLES_H_

#include "whatif/merge_graph.h"

namespace olap {

// Exhaustive branch-and-bound minimiser of the peak pebble count (the
// pebbling game of whatif/pebbling.h): the oracle the greedy heuristic is
// tested against. Exponential — intended for test graphs (<= ~14 nodes).
// Returns the optimal peak, or -1 when the graph exceeds `max_nodes`.
int OptimalPeakPebbles(const MergeGraph& g, int max_nodes = 14);

}  // namespace olap

#endif  // OLAP_TESTS_SUPPORT_OPTIMAL_PEBBLES_H_
