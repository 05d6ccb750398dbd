// Ablation — the Sec. 5.2 pebbling heuristic vs. naive chunk-read orders.
//
// For merge dependency graphs of growing size (random member/instance
// placements in the style of Fig. 8, plus the paper's own Fig. 9 graph),
// compare the peak number of co-resident chunks under (a) the paper's
// greedy heuristic order and (b) ascending chunk-id order, and report the
// heuristic's planning time.

#include <benchmark/benchmark.h>

#include <numeric>

#include "common/rng.h"
#include "whatif/pebbling.h"
#include "whatif/perspective_cube.h"
#include "workload/workforce.h"

namespace olap::bench {
namespace {

// A random Fig. 8-style instance placement: `members` varying members, each
// with 2–4 instances placed in random chunks out of `chunks`; the first
// instance's chunk is the merge target.
MergeGraph RandomMergeGraph(uint64_t seed, int members, int chunks) {
  Rng rng(seed);
  MergeGraph g;
  for (int m = 0; m < members; ++m) {
    int instances = static_cast<int>(rng.NextInRange(2, 4));
    ChunkId target = static_cast<ChunkId>(rng.NextBelow(chunks));
    for (int i = 1; i < instances; ++i) {
      g.AddEdge(target, static_cast<ChunkId>(rng.NextBelow(chunks)));
    }
  }
  return g;
}

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

void ReportPeaks(benchmark::State& state, const MergeGraph& g) {
  PebbleResult heuristic;
  for (auto _ : state) {
    heuristic = HeuristicPebble(g);
    benchmark::DoNotOptimize(heuristic.peak_pebbles);
  }
  // Naive order: nodes by ascending chunk id.
  std::vector<int> naive(g.num_nodes());
  std::iota(naive.begin(), naive.end(), 0);
  std::sort(naive.begin(), naive.end(),
            [&](int a, int b) { return g.chunk(a) < g.chunk(b); });
  state.counters["nodes"] = g.num_nodes();
  state.counters["edges"] = g.num_edges();
  state.counters["peak_heuristic"] = heuristic.peak_pebbles;
  state.counters["peak_naive_order"] = PeakPebblesForOrder(g, naive);
  state.counters["max_degree_plus_1"] = g.max_degree() + 1;
}

void BM_PebblePaperFig9(benchmark::State& state) { ReportPeaks(state, Fig9()); }

void BM_PebbleRandom(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  MergeGraph g = RandomMergeGraph(/*seed=*/members * 7919, members,
                                  /*chunks=*/members * 3);
  ReportPeaks(state, g);
}

BENCHMARK(BM_PebblePaperFig9)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PebbleRandom)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// End to end: the perspective-cube relocation scan with ascending vs.
// pebbling chunk-read order — the peak co-resident merge chunks (the
// memory the paper's Sec. 5.2 minimises) against the simulated seek cost
// the reordering introduces.
void BM_RelocationReadOrder(benchmark::State& state) {
  static olap::WorkforceCube* wf = [] {
    olap::WorkforceConfig config;
    config.num_departments = 20;
    config.num_employees = 400;
    config.num_changing = 60;
    config.num_measures = 4;
    config.num_scenarios = 2;
    config.seed = 611;
    return new olap::WorkforceCube(olap::BuildWorkforceCube(config));
  }();
  const bool pebbling = state.range(0) == 1;
  olap::WhatIfSpec spec;
  spec.varying_dim = wf->dept_dim;
  spec.perspectives = olap::Perspectives({0, 6});
  spec.semantics = olap::Semantics::kForward;
  spec.pebbling_read_order = pebbling;

  olap::DiskModel model;
  model.seek_seconds_per_chunk = 1e-6;
  model.max_seek_seconds = 5e-3;
  model.transfer_seconds = 1e-5;
  olap::SimulatedDisk disk(model, /*cache=*/256);

  olap::EvalStats stats;
  olap::ScenarioEvalOptions opts;
  opts.disk = &disk;
  opts.stats = &stats;
  for (auto _ : state) {
    disk.Reset();
    olap::Result<olap::PerspectiveCube> pc =
        olap::ComputePerspectiveCube(wf->cube, spec, opts);
    if (!pc.ok()) {
      state.SkipWithError(pc.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(pc->output().CountNonNullCells());
  }
  state.counters["pebbling_order"] = pebbling ? 1 : 0;
  state.counters["peak_merge_chunks"] = stats.peak_merge_chunks;
  state.counters["chunk_reads"] = static_cast<double>(stats.chunk_reads);
  state.counters["virtual_io_ms"] = disk.stats().virtual_seconds * 1e3;
}

BENCHMARK(BM_RelocationReadOrder)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace olap::bench

BENCHMARK_MAIN();
