#ifndef OLAP_WHATIF_DELTA_H_
#define OLAP_WHATIF_DELTA_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "agg/aggregate_cache.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "cube/cube.h"
#include "whatif/scenario_algebra.h"

namespace olap {

// ---------------------------------------------------------------------------
// Delta propagation: incremental maintenance of perspective cubes
// ---------------------------------------------------------------------------
//
// Production cubes are not static. A stream of cell writes arrives as a
// DeltaBatch; IncrementalScenario keeps a computed perspective cube alive
// across such batches by rewriting only the output cells the writes reach,
// instead of recomputing the scenario from scratch.
//
// The locality argument: Relocate and Split send each leaf cell to at most
// one output cell, along the varying dimension only (Relocate: Cout(d,t,e)
// = Cin(d_t,t,e), Def. 4.4; Split reassigns moments between instances of
// one member, Def. 4.5), and one member's instances have disjoint validity
// sets, so no two input cells share an output cell. The operators hand
// back that map (DestTable, whatif/operators.h), ComposeScenarios composes
// it across a spec's ops for a caller that asks, and IncrementalScenario
// keeps the map it asked for. A write to input cell (p, t, rest)
// therefore changes exactly output cell (map(p, t), t, rest), or nothing
// when map(p, t) < 0, and the output cell takes the written value itself.

// One edit applied through a DeltaBatch, in storage encoding (⊥ is the
// sentinel; see common/value.h). `old_storage` is the cell's value at
// record time, so a batch replayed against a cache (PatchCellDelta)
// subtracts exactly what the cube held.
struct CellEdit {
  std::vector<int> coords;
  double old_storage = 0.0;
  double new_storage = 0.0;
};

// A plain cell write, the input of the Database edit-feed API.
struct CellWrite {
  std::vector<int> coords;
  CellValue value;
};

// Records a stream of cell writes against `base`, applying each write
// immediately. The batch keeps the edit trail with before/after storage
// values, for patching aggregate caches and refreshing live scenarios.
// Writes to the same cell chain consistently (the second edit's old value
// is the first edit's new value).
class DeltaBatch {
 public:
  // `base` must outlive the batch and must not be structurally modified
  // while the batch records.
  explicit DeltaBatch(Cube* base) : base_(base) {}

  // Writes `v` at `coords` once CheckCoords accepts them.
  Status Set(const std::vector<int>& coords, CellValue v);
  Status SetByName(const std::vector<std::string>& path_names, CellValue v);

  // The check Set makes before it writes: one in-extent coordinate per
  // dimension of the base cube (kInvalidArgument / kOutOfRange otherwise).
  // A caller that applies a whole batch or nothing runs it over every
  // write before the first Set.
  Status CheckCoords(const std::vector<int>& coords) const;

  Cube* base() const { return base_; }
  const std::vector<CellEdit>& edits() const { return edits_; }
  // Touched chunk ids, ascending, deduplicated.
  std::vector<ChunkId> TouchedChunks() const;
  int64_t num_edits() const { return static_cast<int64_t>(edits_.size()); }

 private:
  Cube* base_;
  std::vector<CellEdit> edits_;
};

// Knobs for one refresh, mirroring the governor hooks the engine threads
// through batched evaluation.
struct RefreshOptions {
  // Threads of the full recompute (the cell path is serial).
  int eval_threads = 1;
  // Polled once before the cell path writes anything, and threaded into a
  // full recompute. A refresh that observes a stop request leaves the
  // retained cube as it was, but flags the scenario needs_rebuild, because
  // the delta already reached the base cube.
  CancellationToken cancel;
  // Memory-budget hooks (QueryContext::TryReserveCells /ReleaseCells). A
  // full recompute reserves the base cube's stored cell footprint first and
  // releases it on every exit path; a failed reservation cancels the
  // refresh with kResourceExhausted. The cell path allocates no scratch
  // cube and reserves nothing.
  std::function<bool(int64_t)> try_reserve_cells;
  std::function<void(int64_t)> release_cells;
};

// Work counters for one refresh (also mirrored into the delta.refresh.*
// metrics).
struct RefreshStats {
  int64_t chunks_affected = 0;  // Distinct base chunks the batch touched.
  int64_t chunks_patched = 0;   // Distinct output chunks written or erased.
  bool full_recompute = false;  // The scenario has no cell map.
};

// A perspective cube kept alive across edits.
//
//   IncrementalScenario inc = *IncrementalScenario::Create(&cube, {spec});
//   ... serve queries from inc.cube() ...
//   DeltaBatch batch(&cube);
//   batch.Set(coords, CellValue(42.0));
//   inc.ApplyDelta(batch);               // rewrites only the mapped cells
//   ... inc.cube() is bit-identical to a from-scratch recompute ...
//
// The cell path applies whenever the composition handed back a cell map
// (ComposeScenarios' `cell_map`): single-spec stacks of relocate and split
// ops. Anything else (INTRODUCE, Multiple-MDX, multi-spec stacks) falls
// back to a full recompute through the same call: one ComposeScenarios
// over the base.
class IncrementalScenario {
 public:
  // Computes the initial perspective cube. `base` must outlive the object.
  static Result<IncrementalScenario> Create(const Cube* base,
                                            std::vector<ScenarioSpec> specs,
                                            const ScenarioEvalOptions& opts = {});

  IncrementalScenario(IncrementalScenario&&) = default;
  IncrementalScenario& operator=(IncrementalScenario&&) = default;

  const PerspectiveCube& cube() const { return *pc_; }
  const std::vector<ScenarioSpec>& specs() const { return specs_; }
  // True after a cancelled / failed refresh whose delta already reached the
  // base cube: the retained output no longer reflects the base and must be
  // rebuilt before serving.
  bool needs_rebuild() const { return needs_rebuild_; }

  // Refreshes the retained cube after `batch`'s writes (already applied to
  // the base cube by the batch itself). The refreshed output is
  // bit-identical to recomputing the scenario from scratch on the edited
  // base, at every eval_threads setting.
  Status ApplyDelta(const DeltaBatch& batch, const RefreshOptions& opts = {},
                    RefreshStats* stats = nullptr);

  // Full recompute (the needs_rebuild escape hatch).
  Status Rebuild(const ScenarioEvalOptions& opts = {});

  // Attaches an aggregate cache built over the *output* cube; every
  // rewritten output cell is then propagated into the cache's resident
  // views (AggregateCache::PatchCellDelta), and a full recompute drops
  // them. The cache must outlive the scenario or be detached (nullptr).
  void AttachCache(AggregateCache* cache);

 private:
  IncrementalScenario() = default;

  // Recomputes the retained cube and its cell map from the base.
  Status Recompute(const ScenarioEvalOptions& opts);
  // Rewrites the output cell of every edit through the cell map (which
  // must not be empty); returns the distinct output chunks written or
  // erased.
  int64_t PatchCells(const DeltaBatch& batch);

  const Cube* base_ = nullptr;
  std::vector<ScenarioSpec> specs_;
  std::optional<PerspectiveCube> pc_;
  // Where each base leaf cell lands in pc_'s output; empty when the stack
  // has no such map.
  DestTable cell_map_;
  AggregateCache* cache_ = nullptr;
  bool needs_rebuild_ = false;
};

}  // namespace olap

#endif  // OLAP_WHATIF_DELTA_H_
