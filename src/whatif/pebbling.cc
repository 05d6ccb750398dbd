#include "whatif/pebbling.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace olap {

namespace {

// cost(x) = min over neighbours y of deg(y) - 1 (Sec. 5.2); 0 when isolated.
std::vector<int> NodeCosts(const MergeGraph& g) {
  std::vector<int> cost(g.num_nodes(), 0);
  for (int v = 0; v < g.num_nodes(); ++v) {
    int best = std::numeric_limits<int>::max();
    for (int w : g.neighbors(v)) best = std::min(best, g.degree(w) - 1);
    cost[v] = g.neighbors(v).empty() ? 0 : best;
  }
  return cost;
}

// True if all neighbours of `v` are pebbled (ever), i.e. v's pebble is
// removable.
bool Removable(const MergeGraph& g, const std::vector<bool>& pebbled_ever, int v) {
  for (int w : g.neighbors(v)) {
    if (!pebbled_ever[w]) return false;
  }
  return true;
}

}  // namespace

PebbleResult HeuristicPebble(const MergeGraph& g) {
  PebbleResult result;
  const int n = g.num_nodes();
  std::vector<int> cost = NodeCosts(g);
  std::vector<bool> in_p(n, false);   // Pebbled at some point.
  std::vector<bool> in_q(n, false);   // Currently holding a pebble.
  int q_count = 0;

  auto place = [&](int v) {
    in_p[v] = true;
    in_q[v] = true;
    ++q_count;
    result.order.push_back(v);
    result.peak_pebbles = std::max(result.peak_pebbles, q_count);
  };
  auto drain_removals = [&]() {
    bool removed = true;
    while (removed) {
      removed = false;
      for (int v = 0; v < n; ++v) {
        if (in_q[v] && Removable(g, in_p, v)) {
          in_q[v] = false;
          --q_count;
          removed = true;
        }
      }
    }
  };

  for (const std::vector<int>& comp : g.ConnectedComponents()) {
    // Start at the minimum-cost node (ties: smallest index — components are
    // sorted ascending).
    int start = comp[0];
    for (int v : comp) {
      if (cost[v] < cost[start]) start = v;
    }
    place(start);
    drain_removals();

    size_t placed_in_comp = 1;
    while (placed_in_comp < comp.size()) {
      // Candidate placements: unpebbled neighbours of the pebbled region.
      int best = -1;
      bool best_enables = false;
      for (int v : comp) {
        if (in_p[v]) continue;
        bool adjacent_to_p = false;
        for (int w : g.neighbors(v)) {
          if (in_p[w]) {
            adjacent_to_p = true;
            break;
          }
        }
        if (!adjacent_to_p) continue;
        // Would placing on v let some pebble (possibly v's own) come off?
        in_p[v] = true;
        bool enables = Removable(g, in_p, v);
        if (!enables) {
          for (int q = 0; q < n && !enables; ++q) {
            if (in_q[q] && Removable(g, in_p, q)) enables = true;
          }
        }
        in_p[v] = false;
        if (best < 0 || (enables && !best_enables) ||
            (enables == best_enables &&
             (cost[v] < cost[best] || (cost[v] == cost[best] && v < best)))) {
          best = v;
          best_enables = enables;
        }
      }
      if (best < 0) {
        // Disconnected remainder inside a component cannot happen; fall back
        // to the min-cost unpebbled node for safety.
        for (int v : comp) {
          if (!in_p[v] && (best < 0 || cost[v] < cost[best])) best = v;
        }
      }
      assert(best >= 0);
      place(best);
      ++placed_in_comp;
      drain_removals();
    }
    drain_removals();
    assert(q_count == 0 && "every pebble is removable once its component is read");
  }
  return result;
}

int PeakPebblesForOrder(const MergeGraph& g, const std::vector<int>& order) {
  const int n = g.num_nodes();
  assert(static_cast<int>(order.size()) == n);
  // A node's pebble stays on from its own placement through the placement
  // of its last neighbour, i.e. over the ranks [rank(v), max rank among v
  // and its neighbours]; the peak is the deepest overlap of those
  // intervals, found with one difference-array sweep.
  std::vector<int> rank(n);
  for (int i = 0; i < n; ++i) rank[order[i]] = i;
  std::vector<int> delta(n + 1, 0);
  for (int v = 0; v < n; ++v) {
    int release = rank[v];
    for (int w : g.neighbors(v)) release = std::max(release, rank[w]);
    ++delta[rank[v]];
    --delta[release + 1];
  }
  int live = 0, peak = 0;
  for (int i = 0; i < n; ++i) {
    live += delta[i];
    peak = std::max(peak, live);
  }
  return peak;
}

}  // namespace olap
