// AggregateCache and LRU cache statistics verified against hand-simulated
// references: the cache's own hit/miss counters as BatchCellEvaluator
// serves from it, the process-wide "agg.cache.*" metrics, and
// SimulatedDisk's eviction accounting must all match an independent model
// of the same access sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "agg/aggregate_cache.h"
#include "agg/batch_eval.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "storage/simulated_disk.h"
#include "support/naive_aggregator.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

// Reference model of the evaluator's serving accounting over a persistent
// cache: a leaf ref (one position on every dimension) is a direct read and
// no lookup; a derived ref with an empty scope somewhere is ⊥ and counts as
// a hit; any other derived ref hits iff some materialized view keeps every
// dimension the ref restricts (anything but the root).
enum class Expected { kDirectRead, kHit, kMiss };

Expected ReferenceOutcome(const Cube& cube,
                          const std::vector<GroupByMask>& masks,
                          const CellRef& ref) {
  bool leaf = true;
  for (int d = 0; d < cube.num_dims() && leaf; ++d) {
    const Dimension& dim = cube.schema().dimension(d);
    if (ref[d].instance != kInvalidInstance) continue;
    leaf = dim.member(ref[d].member).is_leaf() &&
           (!dim.is_varying() || dim.InstancesOf(ref[d].member).size() == 1);
  }
  if (leaf) return Expected::kDirectRead;
  GroupByMask needed = 0;
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (cube.PositionsUnderWeighted(d, ref[d]).empty()) return Expected::kHit;
    if (ref[d].instance != kInvalidInstance ||
        ref[d].member != cube.schema().dimension(d).root()) {
      needed |= GroupByMask{1} << d;
    }
  }
  for (GroupByMask mask : masks) {
    if ((needed & mask) == needed) return Expected::kHit;
  }
  return Expected::kMiss;
}

TEST(CacheStatsTest, HitMissCountersMatchHandSimulation) {
  PaperExample ex = BuildPaperExample();
  const Schema& schema = ex.cube.schema();

  // Views over {Location}, {Time}, {Location, Time}: derived refs
  // restricting Organization or Measures must miss, the others must hit.
  std::vector<GroupByMask> masks = {
      GroupByMask{1} << ex.location_dim,
      GroupByMask{1} << ex.time_dim,
      (GroupByMask{1} << ex.location_dim) | (GroupByMask{1} << ex.time_dim),
  };
  AggregateCache cache(ex.cube, masks);
  BatchCellEvaluator batch(ex.cube, &cache);

  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricsRegistry::Snapshot before = reg.TakeSnapshot();

  Rng rng(777);
  int64_t expected_hits = 0, expected_misses = 0, expected_reads = 0;
  const int kTrials = 500;
  for (int trial = 0; trial < kTrials; ++trial) {
    CellRef ref(schema.num_dimensions());
    for (int d = 0; d < schema.num_dimensions(); ++d) {
      const Dimension& dim = schema.dimension(d);
      if (rng.NextBool(0.45)) {
        ref[d] = AxisRef::OfMember(dim.root());
      } else if (dim.is_varying() && dim.num_instances() > 0 &&
                 rng.NextBool(0.3)) {
        InstanceId i =
            static_cast<InstanceId>(rng.NextBelow(dim.num_instances()));
        ref[d] = AxisRef::OfInstance(dim.instance(i).member, i);
      } else {
        ref[d] = AxisRef::OfMember(
            static_cast<MemberId>(rng.NextBelow(dim.num_members())));
      }
    }
    const int64_t hits = cache.hits.load(), misses = cache.misses.load();
    EXPECT_EQ(batch.Evaluate(ref), EvaluateCell(ex.cube, ref))
        << "trial " << trial;
    switch (ReferenceOutcome(ex.cube, masks, ref)) {
      case Expected::kDirectRead:
        ++expected_reads;
        EXPECT_EQ(cache.hits.load() + cache.misses.load(), hits + misses)
            << "trial " << trial;
        break;
      case Expected::kHit:
        ++expected_hits;
        EXPECT_EQ(cache.hits.load(), hits + 1) << "trial " << trial;
        break;
      case Expected::kMiss:
        ++expected_misses;
        EXPECT_EQ(cache.misses.load(), misses + 1) << "trial " << trial;
        break;
    }
  }
  // Every outcome occurs in the sample.
  EXPECT_GT(expected_reads, 0);
  EXPECT_GT(expected_hits, 0);
  EXPECT_GT(expected_misses, 0);

  // The cache's own counters...
  EXPECT_EQ(cache.hits.load(), expected_hits);
  EXPECT_EQ(cache.misses.load(), expected_misses);
  EXPECT_EQ(cache.hits.load() + cache.misses.load(), kTrials - expected_reads);

  // ...and the registry deltas agree with the hand simulation.
  MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_EQ(delta.counter_value("agg.cache.lookups"),
            kTrials - expected_reads);
  EXPECT_EQ(delta.counter_value("agg.cache.hits"), expected_hits);
  EXPECT_EQ(delta.counter_value("agg.cache.misses"), expected_misses);
}

// SimulatedDisk eviction stats against a hand-simulated LRU of the same
// capacity over a randomized access sequence.
TEST(CacheStatsTest, DiskEvictionsMatchHandSimulatedLru) {
  constexpr int64_t kCapacity = 8;
  SimulatedDisk disk(DiskModel{}, kCapacity);

  std::vector<ChunkId> lru;  // Front = most recent.
  int64_t expected_hits = 0, expected_misses = 0, expected_evictions = 0;

  Rng rng(31337);
  for (int i = 0; i < 2000; ++i) {
    // Skewed access: small working set with occasional far touches.
    ChunkId id = rng.NextBool(0.7)
                     ? static_cast<ChunkId>(rng.NextBelow(10))
                     : static_cast<ChunkId>(rng.NextBelow(64));
    auto it = std::find(lru.begin(), lru.end(), id);
    if (it != lru.end()) {
      ++expected_hits;
      lru.erase(it);
      lru.insert(lru.begin(), id);
    } else {
      ++expected_misses;
      if (static_cast<int64_t>(lru.size()) == kCapacity) {
        lru.pop_back();
        ++expected_evictions;
      }
      lru.insert(lru.begin(), id);
    }
    disk.ReadChunk(id);
  }

  IoStats stats = disk.stats();
  EXPECT_EQ(stats.cache_hits, expected_hits);
  EXPECT_EQ(stats.physical_reads, expected_misses);
  EXPECT_EQ(stats.evictions, expected_evictions);
}

TEST(CacheStatsTest, SequentialScanEvictsAllButCapacity) {
  constexpr int64_t kCapacity = 4;
  constexpr int kChunks = 20;
  SimulatedDisk disk(DiskModel{}, kCapacity);
  for (int i = 0; i < kChunks; ++i) disk.ReadChunk(static_cast<ChunkId>(i));
  IoStats stats = disk.stats();
  EXPECT_EQ(stats.physical_reads, kChunks);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.evictions, kChunks - kCapacity);

  // Re-reading the resident tail hits; the evicted head misses again.
  for (int i = kChunks - kCapacity; i < kChunks; ++i) {
    disk.ReadChunk(static_cast<ChunkId>(i));
  }
  stats = disk.stats();
  EXPECT_EQ(stats.cache_hits, kCapacity);
  disk.ReadChunk(0);
  EXPECT_EQ(disk.stats().physical_reads, kChunks + 1);
}

}  // namespace
}  // namespace olap
