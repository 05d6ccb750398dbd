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
// across such batches by refreshing only the chunks the paper's Sec. 5
// merge-dependency structure couples to the touched cells, instead of
// recomputing the scenario from scratch.
//
// The locality argument: every structural operator moves leaf data only
// between instance positions of the *same* leaf member at the *same*
// parameter moment and other coordinates (Relocate: Cout(d,t,e) =
// Cin(d_t,t,e); Split reassigns moments between an existing and a new
// instance of one member). So a cell write can only influence output chunks
// in its own chunk column (all dimensions except the varying one fixed),
// and along the varying dimension only within the transitive closure of
// chunk slabs linked by members whose instances share a slab — computed as
// connected components of a member <-> slab MergeGraph.

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
// immediately. The batch keeps (a) the edit trail with before/after storage
// values, for patching aggregate caches, and (b) the touched chunk set, the
// seed of the refresh closure. Writes to the same cell chain consistently
// (the second edit's old value is the first edit's new value).
class DeltaBatch {
 public:
  // `base` must outlive the batch and must not be structurally modified
  // while the batch records.
  explicit DeltaBatch(Cube* base) : base_(base) {}

  Status Set(const std::vector<int>& coords, CellValue v);
  Status SetByName(const std::vector<std::string>& path_names, CellValue v);

  Cube* base() const { return base_; }
  const std::vector<CellEdit>& edits() const { return edits_; }
  // Touched chunk ids, ascending, deduplicated.
  std::vector<ChunkId> TouchedChunks() const;
  int64_t num_edits() const { return static_cast<int64_t>(edits_.size()); }

 private:
  Cube* base_;
  std::vector<CellEdit> edits_;
};

// The affected-chunk closure of a touched chunk set under one structural
// scenario: the input chunks a refresh must re-read and the output chunks
// it must patch. Computed by ComputeDeltaClosure below.
struct DeltaClosure {
  std::vector<ChunkId> input_chunks;   // Base-cube ids, ascending.
  std::vector<ChunkId> output_chunks;  // Output-layout ids, ascending.
  // Union of the varying-dim members across the touched components — every
  // member with an instance position in any closure slab. Scoping the
  // sub-recompute to this set loses no contributors (each such member is
  // linked to the slab's graph node, hence inside the component).
  std::vector<MemberId> members;       // Ascending.
};

// Precomputed member <-> slab coupling for a fixed (input, output) schema
// pair. Building the coupling MergeGraph costs O(instances in the varying
// dimension) — the dominant cost for wide dimensions — while closing a
// touched set against a built index costs only O(touched + closure).
// IncrementalScenario builds one index per retained output and reuses it
// across ApplyDelta batches.
class DeltaClosureIndex {
 public:
  static Result<DeltaClosureIndex> Build(const ChunkLayout& in_layout,
                                         const Dimension& in_dim,
                                         const ChunkLayout& out_layout,
                                         const Dimension& out_dim,
                                         int varying_dim);
  // `touched` holds base-cube chunk ids (any order, duplicates fine).
  DeltaClosure Close(const std::vector<ChunkId>& touched) const;

 private:
  DeltaClosureIndex() = default;

  ChunkLayout in_layout_;
  ChunkLayout out_layout_;
  int varying_dim_ = -1;
  // Input slab (varying chunk coordinate) -> component, -1 for slabs with
  // no instance positions (padding-only: nothing merges in or out).
  std::vector<int> comp_of_in_slab_;
  std::vector<std::vector<int>> comp_in_slabs_;
  std::vector<std::vector<int>> comp_out_slabs_;
  std::vector<std::vector<MemberId>> comp_members_;
};

// Transitive closure of `touched` (base-cube chunk ids) under the member
// coupling of `varying_dim`: a MergeGraph links every member of the varying
// dimension to the chunk slabs its instance positions occupy in the input
// schema (`in_layout` + `in_dim`) and in the output schema (`out_layout` +
// `out_dim` — larger when the scenario introduced instances), and the
// graph's connected components are the units of independent recomputation.
// Per touched chunk column (all dimensions except `varying_dim` fixed), the
// closure is the touched slab's component projected back onto that column.
// One-shot convenience over DeltaClosureIndex::Build + Close.
Result<DeltaClosure> ComputeDeltaClosure(const ChunkLayout& in_layout,
                                         const Dimension& in_dim,
                                         const ChunkLayout& out_layout,
                                         const Dimension& out_dim,
                                         int varying_dim,
                                         const std::vector<ChunkId>& touched);

// Knobs for one incremental refresh, mirroring the governor hooks the
// engine threads through batched evaluation.
struct RefreshOptions {
  int eval_threads = 1;
  EvalStrategy strategy = EvalStrategy::kDirect;
  // Polled at refresh phase boundaries and threaded into the sub-cube
  // recompute. A refresh that observes a stop request patches nothing (the
  // retained cube stays consistent) but leaves the scenario flagged
  // needs_rebuild when the delta was already applied to the base cube.
  CancellationToken cancel;
  // Memory-budget hooks (QueryContext::TryReserveCells /ReleaseCells). The
  // refresh reserves the sub-cube's cell footprint before recomputing and
  // releases it on every exit path. A failed reservation cancels the
  // refresh with kResourceExhausted (never a silent fallback to the full
  // recompute, which would be strictly larger).
  std::function<bool(int64_t)> try_reserve_cells;
  std::function<void(int64_t)> release_cells;
};

// Work counters for one refresh (also mirrored into the delta.refresh.*
// metrics).
struct RefreshStats {
  int64_t chunks_affected = 0;  // Input chunks re-read (closure size).
  int64_t chunks_patched = 0;   // Output chunks replaced or erased.
  bool full_recompute = false;  // The incremental path was not applicable.
};

// A stable fingerprint of a scenario stack, for the aggregate-cache key
// extension: two stacks with the same fingerprint describe the same
// transformation. FNV-1a over every spec field; empty stack => 0.
uint64_t ScenarioFingerprint(const std::vector<ScenarioSpec>& specs);

// A perspective cube kept alive across edits.
//
//   IncrementalScenario inc = *IncrementalScenario::Create(&cube, {spec});
//   ... serve queries from inc.cube() ...
//   DeltaBatch batch(&cube);
//   batch.Set(coords, CellValue(42.0));
//   inc.ApplyDelta(batch);               // refreshes only coupled chunks
//   ... inc.cube() is bit-identical to a from-scratch recompute ...
//
// The incremental path applies to single-spec stacks without INTRODUCE ops
// (introductions change the output schema's extents and seed cells across
// members, breaking chunk-column locality); anything else falls back to a
// full recompute through the same call — correctness always, speed for the
// relocate/split scenarios production edit feeds actually replay.
//
// Structural scenario edits go through UpdateSpec: replacing spec k of a
// composed stack re-lowers only stages k..end, reusing the retained
// intermediate cubes of the unchanged prefix (counted by
// scenario.compose.stages_reused).
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
  uint64_t fingerprint() const { return fingerprint_; }
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

  // Replaces spec `stage` and re-lowers stages stage..end from the retained
  // intermediate outputs. The attached cache (if any) is dropped to the
  // rebuilt state (structural edits re-shape views wholesale).
  Status UpdateSpec(size_t stage, ScenarioSpec spec,
                    const ScenarioEvalOptions& opts = {});

  // Full recompute (the needs_rebuild escape hatch).
  Status Rebuild(const ScenarioEvalOptions& opts = {});

  // Attaches an aggregate cache built over the *output* cube; every patched
  // output chunk is then propagated into the cache's resident views
  // (subtract old chunk, add new chunk — see AggregateCache). The cache
  // must outlive the scenario or be detached (nullptr).
  void AttachCache(AggregateCache* cache);

 private:
  IncrementalScenario() = default;

  // Recomputes stages `first_stage`..end from the retained prefix.
  Status RecomputeFrom(size_t first_stage, const ScenarioEvalOptions& opts);
  // The incremental chunk-patch path; sets *applied=false when the shape of
  // the scenario or the closure makes it inapplicable.
  Status TryIncrementalRefresh(const DeltaBatch& batch,
                               const RefreshOptions& opts, RefreshStats* stats,
                               bool* applied);

  const Cube* base_ = nullptr;
  std::vector<ScenarioSpec> specs_;
  uint64_t fingerprint_ = 0;
  // Member <-> slab coupling of (base schema, retained output schema),
  // built lazily on the first refresh and dropped whenever the output is
  // recomputed (its layout or instance map may have changed).
  std::optional<DeltaClosureIndex> closure_index_;
  // The sub-recompute's input cube: the base schema holding no chunks
  // between refreshes. Built once, because copying the schema is most of
  // a small refresh's fixed cost.
  std::optional<Cube> sub_;
  // Output cube of every spec but the last (the last lives in pc_). Reused
  // by UpdateSpec's suffix re-lowering.
  std::vector<Cube> intermediates_;
  std::optional<PerspectiveCube> pc_;
  AggregateCache* cache_ = nullptr;
  bool needs_rebuild_ = false;
};

}  // namespace olap

#endif  // OLAP_WHATIF_DELTA_H_
