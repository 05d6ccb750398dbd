#ifndef OLAP_WHATIF_PEBBLING_H_
#define OLAP_WHATIF_PEBBLING_H_

#include <vector>

#include "whatif/merge_graph.h"

namespace olap {

// Pebbling of the merge dependency graph (Sec. 5.2). Reading a chunk places
// a pebble on its node; a pebble can be removed from a node iff all of the
// node's neighbours have been pebbled (i.e. every chunk it must merge with
// has been read). The number of pebbles simultaneously in use is the number
// of chunks co-resident in memory; the goal is an order of reads minimising
// the peak.

struct PebbleResult {
  // Node visit order (one pebble placement per node; covers all nodes).
  std::vector<int> order;
  // Maximum number of simultaneously pebbled nodes.
  int peak_pebbles = 0;
};

// The paper's greedy heuristic:
//   cost(x) = min over neighbours y of deg(y) - 1   (0 for isolated nodes);
//   start each component at its minimum-cost node;
//   repeatedly (a) remove any removable pebble, else (b) place a pebble on
//   an unpebbled neighbour of the pebbled region, preferring nodes whose
//   placement lets some pebble (possibly its own) be removed, breaking ties
//   by smaller cost, then smaller node index.
// Always pebbles every node (Lemma 5.2) and never uses more than
// max_degree + 1 pebbles.
PebbleResult HeuristicPebble(const MergeGraph& g);

// The peak pebble count of pebbling the nodes in exactly the given order
// (one placement per step, every removable pebble removed after each
// placement), computed in O(V + E). Used to evaluate naive chunk-read
// orders against the heuristic.
int PeakPebblesForOrder(const MergeGraph& g, const std::vector<int>& order);

}  // namespace olap

#endif  // OLAP_WHATIF_PEBBLING_H_
