#include "support/optimal_pebbles.h"

#include <cstdint>
#include <unordered_set>

namespace olap {

namespace {

// Depth-first feasibility check: can the whole graph be pebbled without ever
// exceeding `budget` pebbles? Removals are applied greedily (removing a
// removable pebble never hurts), so a state is (P, Q) with Q canonical.
class BudgetSearch {
 public:
  BudgetSearch(const MergeGraph& g, int budget) : g_(g), budget_(budget) {}

  bool Feasible() {
    uint32_t all = (g_.num_nodes() == 32)
                       ? ~uint32_t{0}
                       : ((uint32_t{1} << g_.num_nodes()) - 1);
    return Dfs(0, 0, all);
  }

 private:
  uint32_t Drain(uint32_t p, uint32_t q) const {
    bool removed = true;
    while (removed) {
      removed = false;
      for (int v = 0; v < g_.num_nodes(); ++v) {
        if ((q >> v) & 1) {
          bool ok = true;
          for (int w : g_.neighbors(v)) {
            if (((p >> w) & 1) == 0) {
              ok = false;
              break;
            }
          }
          if (ok) {
            q &= ~(uint32_t{1} << v);
            removed = true;
          }
        }
      }
    }
    return q;
  }

  bool Dfs(uint32_t p, uint32_t q, uint32_t all) {
    if (p == all) return true;
    uint64_t key = (static_cast<uint64_t>(p) << 32) | q;
    if (failed_.count(key)) return false;
    if (__builtin_popcount(q) < budget_) {
      for (int v = 0; v < g_.num_nodes(); ++v) {
        if ((p >> v) & 1) continue;
        uint32_t p2 = p | (uint32_t{1} << v);
        uint32_t q2 = Drain(p2, q | (uint32_t{1} << v));
        if (Dfs(p2, q2, all)) return true;
      }
    }
    failed_.insert(key);
    return false;
  }

  const MergeGraph& g_;
  int budget_;
  std::unordered_set<uint64_t> failed_;
};

}  // namespace

int OptimalPeakPebbles(const MergeGraph& g, int max_nodes) {
  if (g.num_nodes() > max_nodes || g.num_nodes() > 30) return -1;
  if (g.num_nodes() == 0) return 0;
  for (int budget = 1; budget <= g.num_nodes(); ++budget) {
    if (BudgetSearch(g, budget).Feasible()) return budget;
  }
  return g.num_nodes();
}

}  // namespace olap
