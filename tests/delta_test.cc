// Incremental what-if maintenance (whatif/delta.h):
//
//   * DeltaBatch records before/after storage values and chains edits to
//     the same cell consistently;
//   * IncrementalScenario::ApplyDelta leaves the retained perspective cube
//     bit-identical to a from-scratch recompute on the edited base —
//     relocate scenarios rewrite only the cells their map reaches (one
//     output chunk per one-cell edit), INTRODUCE stacks fall back to a
//     (still correct) full recompute;
//   * a composed two-spec stack has no cell map: Create and the refresh
//     after an edit (a full recompute) each match ComposeScenarios;
//   * an attached AggregateCache is patched cell by cell and matches a
//     cache rebuilt from scratch;
//   * the governor hooks: a full recompute's declined reservation surfaces
//     kResourceExhausted, a cancelled refresh flags needs_rebuild, and
//     Rebuild() recovers either way;
//   * Database::ApplyCellEdits keeps the persistent cache servable (key
//     bumped in lockstep with the cube version) with views_kept > 0, and
//     rejects a feed with a bad write whole, touching nothing.

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "whatif/delta.h"
#include "whatif/operators.h"
#include "whatif/perspective.h"
#include "whatif/scenario_algebra.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

void ExpectCubesBitIdentical(const Cube& expected, const Cube& actual,
                             const std::string& context) {
  std::map<ChunkId, const Chunk*> ea, aa;
  expected.ForEachChunk([&](ChunkId id, const Chunk& c) { ea[id] = &c; });
  actual.ForEachChunk([&](ChunkId id, const Chunk& c) { aa[id] = &c; });
  ASSERT_EQ(ea.size(), aa.size()) << context << ": stored chunk count differs";
  for (const auto& [id, chunk] : ea) {
    auto it = aa.find(id);
    ASSERT_TRUE(it != aa.end()) << context << ": chunk " << id << " missing";
    ASSERT_EQ(chunk->size(), it->second->size()) << context;
    for (int64_t off = 0; off < chunk->size(); ++off) {
      ASSERT_EQ(BitsOf(chunk->Get(off)), BitsOf(it->second->Get(off)))
          << context << ": chunk " << id << " offset " << off;
    }
  }
}

class DeltaTest : public ::testing::Test {
 protected:
  DeltaTest() : ex_(BuildPaperExample()) {}

  // A (coords) helper over the 4-dim paper cube: org instance position,
  // location leaf, time leaf, measure leaf.
  std::vector<int> At(int org_pos, int loc, int t, int m) const {
    return {org_pos, loc, t, m};
  }

  // The forward-perspective relocate scenario used throughout: Feb's
  // assignments rule from Feb on.
  ScenarioSpec ForwardSpec() const {
    ScenarioSpec spec;
    spec.varying_dim = ex_.org_dim;
    spec.mode = EvalMode::kVisual;
    spec.ops.push_back(
        ScenarioOp::Perspective(Perspectives({1}), Semantics::kForward));
    return spec;
  }

  // ForwardSpec after introducing a hire cloned from Lisa: no cell map, so
  // every refresh is a full recompute.
  ScenarioSpec IntroduceSpec() const {
    NewMemberSpec hire;
    hire.name = "Newbie";
    hire.parent = "FTE";
    hire.from_moment = 1;
    hire.seed = NewMemberSpec::Seed::kClone;
    hire.source = "Lisa";
    hire.factor = 1.0;
    ScenarioSpec spec = ForwardSpec();
    spec.ops.insert(spec.ops.begin(), ScenarioOp::Introduce({hire}));
    return spec;
  }

  PaperExample ex_;
};

TEST_F(DeltaTest, BatchRecordsBeforeAfterAndChains) {
  Cube cube = ex_.cube;
  DeltaBatch batch(&cube);
  const std::vector<int> coords = At(ex_.fte_joe, 0, 0, 0);
  const CellValue before = cube.GetCell(coords);
  ASSERT_TRUE(batch.Set(coords, CellValue(41.0)).ok());
  ASSERT_TRUE(batch.Set(coords, CellValue(42.0)).ok());
  ASSERT_EQ(batch.num_edits(), 2);
  EXPECT_EQ(batch.edits()[0].old_storage, CellValue::ToStorage(before));
  EXPECT_EQ(batch.edits()[0].new_storage, 41.0);
  // Chained: the second edit's "old" is the first edit's "new".
  EXPECT_EQ(batch.edits()[1].old_storage, 41.0);
  EXPECT_EQ(batch.edits()[1].new_storage, 42.0);
  EXPECT_EQ(cube.GetCell(coords), CellValue(42.0));
  // Both edits hit one chunk.
  EXPECT_EQ(batch.TouchedChunks().size(), 1u);

  // Bounds are enforced before anything is applied.
  EXPECT_FALSE(batch.Set({0, 0}, CellValue(1.0)).ok());
  std::vector<int> oob = coords;
  oob[0] = cube.layout().extents()[0] + 5;
  EXPECT_FALSE(batch.Set(oob, CellValue(1.0)).ok());
}

TEST_F(DeltaTest, ApplyDeltaMatchesFullRecompute) {
  Cube cube = ex_.cube;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {ForwardSpec()});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  // Integer-valued edits: exact arithmetic, so bit-identity is meaningful.
  DeltaBatch batch(&cube);
  ASSERT_TRUE(batch.Set(At(ex_.fte_joe, 0, 0, 0), CellValue(17.0)).ok());
  ASSERT_TRUE(batch.Set(At(ex_.contractor_joe, 0, 2, 0), CellValue(99.0)).ok());
  ASSERT_TRUE(
      batch.Set(At(ex_.pte_joe, 0, 1, 0), CellValue::Null()).ok());  // Clear.

  RefreshStats stats;
  ASSERT_TRUE(inc->ApplyDelta(batch, RefreshOptions{}, &stats).ok());
  EXPECT_FALSE(stats.full_recompute);
  EXPECT_GT(stats.chunks_affected, 0);
  EXPECT_GT(stats.chunks_patched, 0);
  EXPECT_FALSE(inc->needs_rebuild());

  Result<PerspectiveCube> oracle = ComputeScenario(cube, ForwardSpec());
  ASSERT_TRUE(oracle.ok());
  ExpectCubesBitIdentical(oracle->output(), inc->cube().output(),
                          "incremental refresh vs recompute");
}

TEST_F(DeltaTest, OneCellEditRewritesAtMostOneOutputChunk) {
  Cube cube = ex_.cube;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {ForwardSpec()});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  // Each cell reaches exactly one output cell (or none), so a one-cell
  // edit reads one base chunk and writes at most one output chunk.
  const std::vector<std::vector<int>> cells = {
      At(ex_.fte_joe, 0, 0, 0), At(ex_.contractor_joe, 0, 2, 0),
      At(ex_.pte_joe, 0, 1, 0)};
  for (const std::vector<int>& coords : cells) {
    DeltaBatch batch(&cube);
    ASSERT_TRUE(batch.Set(coords, CellValue(31.0)).ok());
    RefreshStats stats;
    ASSERT_TRUE(inc->ApplyDelta(batch, RefreshOptions{}, &stats).ok());
    EXPECT_FALSE(stats.full_recompute);
    EXPECT_EQ(stats.chunks_affected, 1);
    EXPECT_LE(stats.chunks_patched, 1);

    Result<PerspectiveCube> oracle = ComputeScenario(cube, ForwardSpec());
    ASSERT_TRUE(oracle.ok());
    ExpectCubesBitIdentical(oracle->output(), inc->cube().output(),
                            "one-cell refresh vs recompute");
  }
}

TEST_F(DeltaTest, IntroduceStackFallsBackToFullRecompute) {
  Cube cube = ex_.cube;
  const ScenarioSpec spec = IntroduceSpec();

  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {spec});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  DeltaBatch batch(&cube);
  ASSERT_TRUE(batch.Set(At(ex_.fte_joe, 0, 0, 0), CellValue(23.0)).ok());
  RefreshStats stats;
  ASSERT_TRUE(inc->ApplyDelta(batch, RefreshOptions{}, &stats).ok());
  EXPECT_TRUE(stats.full_recompute);

  Result<PerspectiveCube> oracle = ComputeScenario(cube, spec);
  ASSERT_TRUE(oracle.ok());
  ExpectCubesBitIdentical(oracle->output(), inc->cube().output(),
                          "introduce fallback vs recompute");
}

TEST_F(DeltaTest, TwoSpecStackRecomputesThroughOneComposition) {
  Cube cube = ex_.cube;
  ScenarioSpec split;
  split.varying_dim = ex_.org_dim;
  split.ops.push_back(ScenarioOp::SplitOp(
      {ChangeTuple{ex_.joe, ex_.contractor, ex_.fte, 3}}));
  const std::vector<ScenarioSpec> stack = {split, ForwardSpec()};

  Result<IncrementalScenario> inc = IncrementalScenario::Create(&cube, stack);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  Result<PerspectiveCube> created = ComposeScenarios(cube, stack);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ExpectCubesBitIdentical(created->output(), inc->cube().output(),
                          "two-spec Create vs compose");

  DeltaBatch batch(&cube);
  ASSERT_TRUE(batch.Set(At(ex_.fte_joe, 0, 0, 0), CellValue(29.0)).ok());
  ASSERT_TRUE(batch.Set(At(ex_.contractor_joe, 0, 4, 0), CellValue(7.0)).ok());
  RefreshStats stats;
  ASSERT_TRUE(inc->ApplyDelta(batch, RefreshOptions{}, &stats).ok());
  EXPECT_TRUE(stats.full_recompute);
  EXPECT_FALSE(inc->needs_rebuild());

  Result<PerspectiveCube> refreshed = ComposeScenarios(cube, stack);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ExpectCubesBitIdentical(refreshed->output(), inc->cube().output(),
                          "two-spec refresh vs compose");
}

TEST_F(DeltaTest, AttachedCacheIsPatchedToMatchARebuild) {
  Cube cube = ex_.cube;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {ForwardSpec()});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  // Views over the scenario output, with the count sidecar that makes
  // in-place patching exact.
  AggregateCache cache = AggregateCache::BuildGreedy(inc->cube().output(), 4);
  cache.EnableIncrementalMaintenance(inc->cube().output());
  inc->AttachCache(&cache);

  DeltaBatch batch(&cube);
  ASSERT_TRUE(batch.Set(At(ex_.fte_joe, 0, 0, 0), CellValue(64.0)).ok());
  ASSERT_TRUE(batch.Set(At(ex_.contractor_joe, 0, 3, 1), CellValue(8.0)).ok());
  RefreshStats stats;
  ASSERT_TRUE(inc->ApplyDelta(batch, RefreshOptions{}, &stats).ok());
  ASSERT_FALSE(stats.full_recompute);

  AggregateCache rebuilt =
      AggregateCache(inc->cube().output(), cache.masks());
  ASSERT_EQ(cache.num_views(), rebuilt.num_views());
  for (int i = 0; i < cache.num_views(); ++i) {
    ASSERT_TRUE(cache.view_resident(i));
    EXPECT_TRUE(cache.view(i) == rebuilt.view(i)) << "view " << i;
  }
}

// The reservation tests run on an INTRODUCE stack: only a full recompute
// builds a new cube, so only it reserves cells.
TEST_F(DeltaTest, DeclinedReservationSurfacesResourceExhausted) {
  Cube cube = ex_.cube;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {IntroduceSpec()});
  ASSERT_TRUE(inc.ok());

  DeltaBatch batch(&cube);
  ASSERT_TRUE(batch.Set(At(ex_.fte_joe, 0, 0, 0), CellValue(5.0)).ok());

  int64_t released = 0;
  RefreshOptions opts;
  opts.try_reserve_cells = [](int64_t) { return false; };
  opts.release_cells = [&](int64_t cells) { released += cells; };
  Status s = inc->ApplyDelta(batch, opts);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(released, 0) << "nothing reserved, nothing to release";
  // The delta reached the base but not the retained output.
  EXPECT_TRUE(inc->needs_rebuild());
  // Before Rebuild, further deltas are refused.
  EXPECT_EQ(inc->ApplyDelta(batch, RefreshOptions{}).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(inc->Rebuild().ok());
  EXPECT_FALSE(inc->needs_rebuild());
  Result<PerspectiveCube> oracle = ComputeScenario(cube, IntroduceSpec());
  ASSERT_TRUE(oracle.ok());
  ExpectCubesBitIdentical(oracle->output(), inc->cube().output(),
                          "rebuild after refused reservation");
}

TEST_F(DeltaTest, ReservationIsReleasedOnSuccess) {
  Cube cube = ex_.cube;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {IntroduceSpec()});
  ASSERT_TRUE(inc.ok());

  DeltaBatch batch(&cube);
  ASSERT_TRUE(batch.Set(At(ex_.fte_joe, 0, 0, 0), CellValue(5.0)).ok());

  int64_t reserved = 0, released = 0;
  RefreshOptions opts;
  opts.try_reserve_cells = [&](int64_t cells) {
    reserved += cells;
    return true;
  };
  opts.release_cells = [&](int64_t cells) { released += cells; };
  ASSERT_TRUE(inc->ApplyDelta(batch, opts).ok());
  EXPECT_GT(reserved, 0);
  EXPECT_EQ(reserved, released) << "no leaked reservation";
}

TEST_F(DeltaTest, CancelledRefreshFlagsNeedsRebuild) {
  Cube cube = ex_.cube;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {ForwardSpec()});
  ASSERT_TRUE(inc.ok());

  DeltaBatch batch(&cube);
  ASSERT_TRUE(batch.Set(At(ex_.fte_joe, 0, 0, 0), CellValue(3.0)).ok());

  CancellationSource source;
  source.CancelAfterPolls(1);
  RefreshOptions opts;
  opts.cancel = source.token();
  Status s = inc->ApplyDelta(batch, opts);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(inc->needs_rebuild());

  ASSERT_TRUE(inc->Rebuild().ok());
  Result<PerspectiveCube> oracle = ComputeScenario(cube, ForwardSpec());
  ASSERT_TRUE(oracle.ok());
  ExpectCubesBitIdentical(oracle->output(), inc->cube().output(),
                          "rebuild after cancelled refresh");
}

TEST_F(DeltaTest, ApplyCellEditsKeepsPersistentCacheServable) {
  Database db;
  ASSERT_TRUE(db.AddCube("Warehouse", ex_.cube).ok());
  ASSERT_TRUE(db.BuildAggregates("Warehouse", 4).ok());
  const AggregateCache* cache = db.aggregates("Warehouse");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(db.cube_version("Warehouse"), 0u);
  EXPECT_EQ(cache->key().cube_version, 0u);

  Database::EditStats stats;
  std::vector<CellWrite> writes = {
      {At(ex_.fte_joe, 0, 0, 0), CellValue(77.0)},
      {At(ex_.contractor_joe, 0, 2, 0), CellValue(11.0)},
  };
  ASSERT_TRUE(db.ApplyCellEdits("Warehouse", writes, &stats).ok());
  EXPECT_EQ(stats.cells_written, 2);
  EXPECT_GT(stats.views_kept, 0);
  EXPECT_EQ(stats.views_dropped, 0);
  // Key tracks the bumped version: the executor's freshness gate passes.
  EXPECT_EQ(db.cube_version("Warehouse"), 1u);
  EXPECT_EQ(cache->key().cube_version, 1u);

  // The patched views equal a rebuild from the edited cube.
  Result<const Cube*> cube = db.FindCube("Warehouse");
  ASSERT_TRUE(cube.ok());
  AggregateCache rebuilt(**cube, cache->masks());
  for (int i = 0; i < cache->num_views(); ++i) {
    ASSERT_TRUE(cache->view_resident(i));
    EXPECT_TRUE(cache->view(i) == rebuilt.view(i)) << "view " << i;
  }

  // A structural change strands the cache: key lags the epoch.
  ASSERT_TRUE(db.BumpStructuralEpoch("Warehouse").ok());
  EXPECT_NE(cache->key().epoch, db.structural_epoch("Warehouse"));
}

// A feed with one bad write is rejected whole: nothing lands in the cube,
// the version stays put and the views (which the executor still serves,
// since their key matches the version) still equal a rebuild.
TEST_F(DeltaTest, RejectedEditBatchLeavesCubeAndViewsUntouched) {
  Database db;
  ASSERT_TRUE(db.AddCube("Warehouse", ex_.cube).ok());
  ASSERT_TRUE(db.BuildAggregates("Warehouse", 4).ok());
  Result<const Cube*> cube = db.FindCube("Warehouse");
  ASSERT_TRUE(cube.ok());
  const Cube before = **cube;

  std::vector<CellWrite> writes = {
      {At(ex_.fte_joe, 0, 0, 0), CellValue(777.0)},
      {At(ex_.fte_joe, 0, 0, 99), CellValue(1.0)},  // Measure out of range.
  };
  Database::EditStats stats;
  Status status = db.ApplyCellEdits("Warehouse", writes, &stats);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << status.ToString();
  EXPECT_EQ(stats.cells_written, 0);

  ExpectCubesBitIdentical(before, **cube, "after the rejected feed");
  EXPECT_EQ(db.cube_version("Warehouse"), 0u);
  const AggregateCache* cache = db.aggregates("Warehouse");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->key().cube_version, 0u);
  AggregateCache rebuilt(**cube, cache->masks());
  for (int i = 0; i < cache->num_views(); ++i) {
    ASSERT_TRUE(cache->view_resident(i));
    EXPECT_TRUE(cache->view(i) == rebuilt.view(i)) << "view " << i;
  }

  // The views still serve: the batched grid equals the per-cell oracle.
  Executor exec(&db);
  const char* query =
      "SELECT {Time.Members} ON COLUMNS, {[Organization].Members} ON ROWS "
      "FROM Warehouse WHERE ([Measures].[Salary])";
  Result<QueryResult> batched = exec.Execute(query);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  QueryOptions per_cell;
  per_cell.batched_eval = false;
  Result<QueryResult> oracle = exec.Execute(query, per_cell);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(batched->grid.num_rows(), oracle->grid.num_rows());
  ASSERT_EQ(batched->grid.num_columns(), oracle->grid.num_columns());
  for (int r = 0; r < batched->grid.num_rows(); ++r) {
    for (int c = 0; c < batched->grid.num_columns(); ++c) {
      EXPECT_EQ(BitsOf(batched->grid.at(r, c)), BitsOf(oracle->grid.at(r, c)))
          << "row " << r << " column " << c;
    }
  }
}

TEST_F(DeltaTest, EmptyBatchIsANoOp) {
  Cube cube = ex_.cube;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {ForwardSpec()});
  ASSERT_TRUE(inc.ok());
  DeltaBatch batch(&cube);
  RefreshStats stats;
  ASSERT_TRUE(inc->ApplyDelta(batch, RefreshOptions{}, &stats).ok());
  EXPECT_EQ(stats.chunks_patched, 0);
  EXPECT_FALSE(stats.full_recompute);
}

}  // namespace
}  // namespace olap
