#include "whatif/pebbling.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "support/optimal_pebbles.h"

namespace olap {
namespace {

// The paper's Fig. 9 graph: edges 1-5, 1-9, 1-10, 3-5, 7-10, 6-9.
MergeGraph Fig9() {
  MergeGraph g;
  for (ChunkId c : {1, 3, 5, 6, 7, 9, 10}) g.AddNode(c);
  g.AddEdge(1, 5);
  g.AddEdge(1, 9);
  g.AddEdge(1, 10);
  g.AddEdge(3, 5);
  g.AddEdge(7, 10);
  g.AddEdge(6, 9);
  return g;
}

// A star: centre adjacent to n leaves.
MergeGraph Star(int leaves) {
  MergeGraph g;
  g.AddNode(0);
  for (int i = 1; i <= leaves; ++i) g.AddEdge(0, i);
  return g;
}

MergeGraph Path(int n) {
  MergeGraph g;
  for (int i = 0; i < n; ++i) g.AddNode(i);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

MergeGraph Clique(int n) {
  MergeGraph g;
  for (int i = 0; i < n; ++i) g.AddNode(i);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) g.AddEdgeByIndex(i, j);
  }
  return g;
}

// The step-by-step simulation PeakPebblesForOrder's interval sweep
// replaced, kept as its oracle: place one pebble per step in `order`, then
// remove every pebble whose neighbours have all been pebbled; the peak is
// the largest count right after a placement. O(V^2 * deg).
int SimulatedPeakPebbles(const MergeGraph& g, const std::vector<int>& order) {
  const int n = g.num_nodes();
  std::vector<bool> pebbled_ever(n, false), holding(n, false);
  int held = 0, peak = 0;
  for (int v : order) {
    pebbled_ever[v] = true;
    holding[v] = true;
    peak = std::max(peak, ++held);
    bool removed = true;
    while (removed) {
      removed = false;
      for (int u = 0; u < n; ++u) {
        if (!holding[u]) continue;
        bool removable = true;
        for (int w : g.neighbors(u)) removable = removable && pebbled_ever[w];
        if (removable) {
          holding[u] = false;
          --held;
          removed = true;
        }
      }
    }
  }
  return peak;
}

void ExpectValidPebbling(const MergeGraph& g, const PebbleResult& r) {
  // Every node pebbled exactly once (Lemma 5.2).
  EXPECT_EQ(r.order.size(), static_cast<size_t>(g.num_nodes()));
  std::set<int> seen(r.order.begin(), r.order.end());
  EXPECT_EQ(seen.size(), static_cast<size_t>(g.num_nodes()));
  // The reported peak matches a re-simulation of the order, by the sweep
  // and by the step-by-step oracle.
  EXPECT_EQ(PeakPebblesForOrder(g, r.order), r.peak_pebbles);
  EXPECT_EQ(SimulatedPeakPebbles(g, r.order), r.peak_pebbles);
}

// "the graph in Fig. 9 can be pebbled using three pebbles but no fewer".
TEST(PebblingTest, Fig9NeedsExactlyThreePebbles) {
  MergeGraph g = Fig9();
  EXPECT_EQ(OptimalPeakPebbles(g), 3);
  PebbleResult r = HeuristicPebble(g);
  ExpectValidPebbling(g, r);
  EXPECT_EQ(r.peak_pebbles, 3);  // The heuristic achieves the optimum here.
}

// The paper starts the Fig. 9 pebbling at node 5 (min cost, tie-break).
TEST(PebblingTest, Fig9StartsAtMinCostNode) {
  MergeGraph g = Fig9();
  PebbleResult r = HeuristicPebble(g);
  // Node index 2 corresponds to chunk 5 (nodes inserted in sorted order).
  EXPECT_EQ(g.chunk(r.order[0]), 5);
}

// "a star, with node x adjacent to n nodes, can be pebbled using just two
// pebbles."
TEST(PebblingTest, StarNeedsTwoPebbles) {
  for (int leaves : {2, 5, 9}) {
    MergeGraph g = Star(leaves);
    EXPECT_EQ(OptimalPeakPebbles(g), 2) << leaves;
    PebbleResult r = HeuristicPebble(g);
    ExpectValidPebbling(g, r);
    EXPECT_EQ(r.peak_pebbles, 2) << leaves;
  }
}

TEST(PebblingTest, PathNeedsTwoPebbles) {
  MergeGraph g = Path(8);
  EXPECT_EQ(OptimalPeakPebbles(g), 2);
  PebbleResult r = HeuristicPebble(g);
  ExpectValidPebbling(g, r);
  EXPECT_EQ(r.peak_pebbles, 2);
}

// "If a graph contains a clique of size >= k, then clearly we need at least
// k pebbles".
TEST(PebblingTest, CliqueNeedsAllPebbles) {
  MergeGraph g = Clique(5);
  EXPECT_EQ(OptimalPeakPebbles(g), 5);
  PebbleResult r = HeuristicPebble(g);
  ExpectValidPebbling(g, r);
  EXPECT_EQ(r.peak_pebbles, 5);
}

TEST(PebblingTest, SingleNodeAndEmptyGraph) {
  MergeGraph empty;
  PebbleResult r = HeuristicPebble(empty);
  EXPECT_EQ(r.peak_pebbles, 0);
  EXPECT_TRUE(r.order.empty());
  EXPECT_EQ(OptimalPeakPebbles(empty), 0);

  MergeGraph single;
  single.AddNode(42);
  r = HeuristicPebble(single);
  ExpectValidPebbling(single, r);
  EXPECT_EQ(r.peak_pebbles, 1);
}

TEST(PebblingTest, DisconnectedComponentsReusePebbles) {
  // Two disjoint paths: peak stays 2, not 4.
  MergeGraph g;
  for (int i = 0; i < 6; ++i) g.AddNode(i);
  g.AddEdgeByIndex(0, 1);
  g.AddEdgeByIndex(1, 2);
  g.AddEdgeByIndex(3, 4);
  g.AddEdgeByIndex(4, 5);
  PebbleResult r = HeuristicPebble(g);
  ExpectValidPebbling(g, r);
  EXPECT_EQ(r.peak_pebbles, 2);
}

// General bound from the paper: the minimum number of pebbles is at most
// max degree + 1; the heuristic respects it on random graphs, and never
// beats the exhaustive optimum.
struct RandomGraphParams {
  uint64_t seed;
  int nodes;
  double edge_prob;
};

class PebblingRandomTest : public ::testing::TestWithParam<RandomGraphParams> {};

TEST_P(PebblingRandomTest, HeuristicIsValidBoundedAndNotBelowOptimal) {
  const RandomGraphParams p = GetParam();
  Rng rng(p.seed);
  MergeGraph g;
  for (int i = 0; i < p.nodes; ++i) g.AddNode(i);
  for (int i = 0; i < p.nodes; ++i) {
    for (int j = i + 1; j < p.nodes; ++j) {
      if (rng.NextBool(p.edge_prob)) g.AddEdgeByIndex(i, j);
    }
  }
  PebbleResult r = HeuristicPebble(g);
  ExpectValidPebbling(g, r);
  EXPECT_LE(r.peak_pebbles, g.max_degree() + 1);
  int optimal = OptimalPeakPebbles(g);
  ASSERT_GE(optimal, 0);
  EXPECT_GE(r.peak_pebbles, optimal);
  // Sequential index order is a valid order too, and the heuristic should
  // not be worse than it on these graphs... it may tie.
  std::vector<int> seq(g.num_nodes());
  for (int i = 0; i < g.num_nodes(); ++i) seq[i] = i;
  EXPECT_GE(PeakPebblesForOrder(g, seq), optimal);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PebblingRandomTest,
    ::testing::Values(RandomGraphParams{1, 8, 0.2}, RandomGraphParams{2, 8, 0.4},
                      RandomGraphParams{3, 10, 0.25},
                      RandomGraphParams{4, 10, 0.5},
                      RandomGraphParams{5, 12, 0.15},
                      RandomGraphParams{6, 12, 0.3},
                      RandomGraphParams{7, 6, 0.8},
                      RandomGraphParams{8, 14, 0.2}));

// PeakPebblesForOrder's interval sweep against the step-by-step oracle on
// every order of the Fig. 9 graph and on random graphs x random orders,
// including the heuristic's own orders.
TEST(PebblingSweepTest, MatchesSimulationOnEveryFig9Order) {
  MergeGraph g = Fig9();
  std::vector<int> order = {0, 1, 2, 3, 4, 5, 6};
  int orders = 0;
  do {
    ASSERT_EQ(PeakPebblesForOrder(g, order), SimulatedPeakPebbles(g, order));
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 5040);
}

TEST(PebblingSweepTest, MatchesSimulationOnRandomGraphsAndOrders) {
  Rng rng(20080407);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBelow(40));
    const double edge_prob = rng.NextDouble() * 0.3;
    MergeGraph g;
    for (int i = 0; i < n; ++i) g.AddNode(i * 7);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.NextBool(edge_prob)) g.AddEdgeByIndex(i, j);
      }
    }
    PebbleResult heuristic = HeuristicPebble(g);
    ASSERT_EQ(PeakPebblesForOrder(g, heuristic.order),
              SimulatedPeakPebbles(g, heuristic.order))
        << "trial " << trial;
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    for (int shuffle = 0; shuffle < 5; ++shuffle) {
      for (int i = n - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBelow(static_cast<uint64_t>(i) + 1)]);
      }
      ASSERT_EQ(PeakPebblesForOrder(g, order), SimulatedPeakPebbles(g, order))
          << "trial " << trial << " shuffle " << shuffle;
    }
  }
}

// The ablation hook: a bad read order on Fig. 9 costs more pebbles than the
// heuristic's order (the paper's "order 1-10" discussion).
TEST(PebblingTest, NaiveOrderCanBeWorse) {
  MergeGraph g = Fig9();
  // Chunk order 1,3,5,6,7,9,10 = node indices 0..6.
  std::vector<int> chunk_order = {0, 1, 2, 3, 4, 5, 6};
  int naive = PeakPebblesForOrder(g, chunk_order);
  PebbleResult r = HeuristicPebble(g);
  EXPECT_GT(naive, r.peak_pebbles);
}

}  // namespace
}  // namespace olap
