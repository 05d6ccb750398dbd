#include "whatif/delta.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "whatif/merge_graph.h"

namespace olap {

namespace {

struct DeltaMetrics {
  Counter* runs;
  Counter* incremental;
  Counter* full_fallbacks;
  Counter* chunks_affected;
  Counter* chunks_patched;
  Counter* stages_reused;
  static const DeltaMetrics& Get() {
    static DeltaMetrics m{
        MetricsRegistry::Global().counter("delta.refresh.runs"),
        MetricsRegistry::Global().counter("delta.refresh.incremental"),
        MetricsRegistry::Global().counter("delta.refresh.full_fallbacks"),
        MetricsRegistry::Global().counter("delta.refresh.chunks_affected"),
        MetricsRegistry::Global().counter("delta.refresh.chunks_patched"),
        MetricsRegistry::Global().counter("scenario.compose.stages_reused"),
    };
    return m;
  }
};

// Releases a governor cell reservation on every exit path.
class ScopedReservation {
 public:
  ScopedReservation(const RefreshOptions& opts, int64_t cells)
      : opts_(opts), cells_(cells) {}
  ~ScopedReservation() {
    if (held_ && opts_.release_cells) opts_.release_cells(cells_);
  }
  // False when the budget declined the reservation.
  bool Acquire() {
    if (!opts_.try_reserve_cells) return true;
    held_ = opts_.try_reserve_cells(cells_);
    return held_;
  }

 private:
  const RefreshOptions& opts_;
  int64_t cells_;
  bool held_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// DeltaBatch
// ---------------------------------------------------------------------------

Status DeltaBatch::Set(const std::vector<int>& coords, CellValue v) {
  if (static_cast<int>(coords.size()) != base_->num_dims()) {
    return Status::InvalidArgument("expected one coordinate per dimension");
  }
  const std::vector<int>& extents = base_->layout().extents();
  for (int d = 0; d < base_->num_dims(); ++d) {
    if (coords[d] < 0 || coords[d] >= extents[d]) {
      return Status::OutOfRange("coordinate outside the cube extents");
    }
  }
  CellEdit edit;
  edit.coords = coords;
  edit.old_storage = CellValue::ToStorage(base_->GetCell(coords));
  edit.new_storage = CellValue::ToStorage(v);
  base_->SetCell(coords, v);
  edits_.push_back(std::move(edit));
  return Status::Ok();
}

Status DeltaBatch::SetByName(const std::vector<std::string>& path_names,
                             CellValue v) {
  Result<std::vector<int>> coords = base_->ResolveCoords(path_names);
  if (!coords.ok()) return coords.status();
  return Set(*coords, v);
}

std::vector<ChunkId> DeltaBatch::TouchedChunks() const {
  std::vector<ChunkId> out;
  out.reserve(edits_.size());
  for (const CellEdit& e : edits_) {
    out.push_back(base_->layout().ChunkOf(e.coords));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Closure
// ---------------------------------------------------------------------------

namespace {

// MergeGraph node encoding: slabs of the input grid, slabs of the (possibly
// longer) output grid, and the members that link them. Slab indices are
// bounded by extent / chunk_size, far below 2^40.
constexpr ChunkId kOutSlabBase = ChunkId{1} << 40;
constexpr ChunkId kMemberBase = ChunkId{1} << 41;

}  // namespace

Result<DeltaClosureIndex> DeltaClosureIndex::Build(const ChunkLayout& in_layout,
                                                   const Dimension& in_dim,
                                                   const ChunkLayout& out_layout,
                                                   const Dimension& out_dim,
                                                   int varying_dim) {
  const int n = in_layout.num_dims();
  if (varying_dim < 0 || varying_dim >= n || out_layout.num_dims() != n) {
    return Status::InvalidArgument("closure: bad varying dimension");
  }
  // Chunk columns translate 1:1 between the layouts only when every
  // non-varying dimension has identical extent and tile size (the operators
  // guarantee this: OptionsOf carries the chunk sizes through, and only the
  // varying extent can grow).
  for (int d = 0; d < n; ++d) {
    if (d == varying_dim) continue;
    if (in_layout.extents()[d] != out_layout.extents()[d] ||
        in_layout.chunk_sizes()[d] != out_layout.chunk_sizes()[d]) {
      return Status::FailedPrecondition(
          "closure: layouts disagree on a non-varying dimension");
    }
  }
  const int in_cs = in_layout.chunk_sizes()[varying_dim];
  const int out_cs = out_layout.chunk_sizes()[varying_dim];
  const int in_slabs = in_layout.chunks_per_dim()[varying_dim];

  // Member <-> slab coupling graph. Every instance position a member holds
  // in either schema ties the member to that slab; connected components are
  // the independent units of recomputation (the transitive closure the
  // merge-dependency graph of Sec. 5.2 induces at slab granularity).
  MergeGraph g;
  for (const MemberInstance& inst : in_dim.instances()) {
    if (inst.id < 0 || inst.id >= in_layout.extents()[varying_dim]) continue;
    g.AddEdge(kMemberBase + inst.member, inst.id / in_cs);
  }
  for (const MemberInstance& inst : out_dim.instances()) {
    if (inst.id < 0 || inst.id >= out_layout.extents()[varying_dim]) continue;
    g.AddEdge(kMemberBase + inst.member, kOutSlabBase + inst.id / out_cs);
  }

  std::vector<std::vector<int>> components = g.ConnectedComponents();

  DeltaClosureIndex index;
  index.in_layout_ = in_layout;
  index.out_layout_ = out_layout;
  index.varying_dim_ = varying_dim;
  index.comp_of_in_slab_.assign(in_slabs, -1);
  const int num_comps = static_cast<int>(components.size());
  index.comp_in_slabs_.resize(num_comps);
  index.comp_out_slabs_.resize(num_comps);
  index.comp_members_.resize(num_comps);
  for (int c = 0; c < num_comps; ++c) {
    for (int node : components[c]) {
      const ChunkId key = g.chunk(node);
      if (key >= kMemberBase) {
        index.comp_members_[c].push_back(
            static_cast<MemberId>(key - kMemberBase));
      } else if (key >= kOutSlabBase) {
        index.comp_out_slabs_[c].push_back(
            static_cast<int>(key - kOutSlabBase));
      } else {
        const int vc = static_cast<int>(key);
        index.comp_in_slabs_[c].push_back(vc);
        if (vc >= 0 && vc < in_slabs) index.comp_of_in_slab_[vc] = c;
      }
    }
    std::sort(index.comp_members_[c].begin(), index.comp_members_[c].end());
  }
  return index;
}

DeltaClosure DeltaClosureIndex::Close(
    const std::vector<ChunkId>& touched) const {
  const int in_slabs = in_layout_.chunks_per_dim()[varying_dim_];
  const int out_slabs = out_layout_.chunks_per_dim()[varying_dim_];

  // Group the touched chunks by chunk column (coords minus the varying
  // dimension) and union the components their varying slabs belong to.
  std::map<std::vector<int>, std::set<int>> comps_by_column;
  std::map<std::vector<int>, std::set<int>> loose_slabs_by_column;
  for (ChunkId id : touched) {
    std::vector<int> coords = in_layout_.ChunkCoords(id);
    const int vc = coords[varying_dim_];
    coords[varying_dim_] = 0;  // Canonical column key.
    const int c = (vc >= 0 && vc < in_slabs) ? comp_of_in_slab_[vc] : -1;
    if (c >= 0) {
      comps_by_column[coords].insert(c);
    } else {
      // A slab with no instance positions (padding-only edit): nothing can
      // move in or out of it, but the touched chunk itself still holds the
      // new bytes — patch it 1:1.
      loose_slabs_by_column[coords].insert(vc);
    }
  }

  DeltaClosure closure;
  auto add_column = [&](const std::vector<int>& column, int in_vc,
                        int out_vc) {
    std::vector<int> coords = column;
    if (in_vc >= 0 && in_vc < in_slabs) {
      coords[varying_dim_] = in_vc;
      closure.input_chunks.push_back(in_layout_.ChunkIdAt(coords));
    }
    if (out_vc >= 0 && out_vc < out_slabs) {
      coords[varying_dim_] = out_vc;
      closure.output_chunks.push_back(out_layout_.ChunkIdAt(coords));
    }
  };
  // Members of the touched components only — the union over columns is the
  // scope the sub-recompute needs (membership is column-independent).
  std::set<int> touched_comps;
  for (const auto& [column, comps] : comps_by_column) {
    touched_comps.insert(comps.begin(), comps.end());
  }
  for (int c : touched_comps) {
    closure.members.insert(closure.members.end(), comp_members_[c].begin(),
                           comp_members_[c].end());
  }
  for (const auto& [column, comps] : comps_by_column) {
    for (int c : comps) {
      for (int vc : comp_in_slabs_[c]) add_column(column, vc, -1);
      for (int vc : comp_out_slabs_[c]) add_column(column, -1, vc);
    }
  }
  for (const auto& [column, slabs] : loose_slabs_by_column) {
    for (int vc : slabs) add_column(column, vc, vc);
  }
  auto finish = [](std::vector<ChunkId>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  finish(&closure.input_chunks);
  finish(&closure.output_chunks);
  std::sort(closure.members.begin(), closure.members.end());
  closure.members.erase(
      std::unique(closure.members.begin(), closure.members.end()),
      closure.members.end());
  return closure;
}

Result<DeltaClosure> ComputeDeltaClosure(const ChunkLayout& in_layout,
                                         const Dimension& in_dim,
                                         const ChunkLayout& out_layout,
                                         const Dimension& out_dim,
                                         int varying_dim,
                                         const std::vector<ChunkId>& touched) {
  Result<DeltaClosureIndex> index = DeltaClosureIndex::Build(
      in_layout, in_dim, out_layout, out_dim, varying_dim);
  if (!index.ok()) return index.status();
  return index->Close(touched);
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void I64(int64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    I64(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
};

}  // namespace

uint64_t ScenarioFingerprint(const std::vector<ScenarioSpec>& specs) {
  if (specs.empty()) return 0;
  Fnv f;
  f.I64(static_cast<int64_t>(specs.size()));
  for (const ScenarioSpec& spec : specs) {
    f.I64(spec.varying_dim);
    f.I64(static_cast<int64_t>(spec.mode));
    for (MemberId m : spec.scope_members) f.I64(m);
    f.I64(spec.pebbling_read_order ? 1 : 0);
    f.I64(static_cast<int64_t>(spec.ops.size()));
    for (const ScenarioOp& op : spec.ops) {
      f.I64(static_cast<int64_t>(op.kind));
      switch (op.kind) {
        case ScenarioOp::Kind::kIntroduce:
          for (const NewMemberSpec& s : op.introductions) {
            f.Str(s.name);
            f.Str(s.parent);
            f.I64(s.inner ? 1 : 0);
            f.I64(s.from_moment);
            f.I64(static_cast<int64_t>(s.seed));
            f.Str(s.source);
            f.F64(s.factor);
          }
          break;
        case ScenarioOp::Kind::kSplit:
          for (const ChangeTuple& c : op.changes) {
            f.I64(c.member);
            f.I64(c.old_parent);
            f.I64(c.new_parent);
            f.I64(c.moment);
          }
          break;
        case ScenarioOp::Kind::kPerspective:
          for (int m : op.perspectives.moments()) f.I64(m);
          f.I64(static_cast<int64_t>(op.semantics));
          break;
      }
    }
  }
  return f.h;
}

// ---------------------------------------------------------------------------
// IncrementalScenario
// ---------------------------------------------------------------------------

Result<IncrementalScenario> IncrementalScenario::Create(
    const Cube* base, std::vector<ScenarioSpec> specs,
    const ScenarioEvalOptions& opts) {
  if (base == nullptr) return Status::InvalidArgument("null base cube");
  IncrementalScenario inc;
  inc.base_ = base;
  inc.specs_ = std::move(specs);
  inc.fingerprint_ = ScenarioFingerprint(inc.specs_);
  OLAP_RETURN_IF_ERROR(inc.RecomputeFrom(0, opts));
  return inc;
}

Status IncrementalScenario::RecomputeFrom(size_t first_stage,
                                          const ScenarioEvalOptions& opts) {
  // Any recompute may reshape the output layout or instance map.
  closure_index_.reset();
  sub_.reset();
  const size_t n = specs_.size();
  if (n <= 1) {
    // Single-spec (or identity) stacks go through the algebra whole — the
    // exact path the executor takes, bit-identical by construction.
    Result<PerspectiveCube> pc = ComposeScenarios(*base_, specs_, opts);
    if (!pc.ok()) return pc.status();
    intermediates_.clear();
    pc_.emplace(*std::move(pc));
    return Status::Ok();
  }
  // Multi-spec composition, stage by stage with intermediates retained so a
  // later UpdateSpec can re-lower only the dirtied suffix. Each stage's
  // output cube is what ComposeScenarios' internal loop would have carried
  // forward (evaluation mode does not shape the output cube, only how
  // derived cells are later served).
  if (first_stage > n - 1) first_stage = n - 1;
  intermediates_.resize(n - 1);
  Cube current = first_stage == 0 ? *base_ : intermediates_[first_stage - 1];
  for (size_t i = first_stage; i < n; ++i) {
    Result<PerspectiveCube> stage = ComputeScenario(current, specs_[i], opts);
    if (!stage.ok()) return stage.status();
    current = stage->output();
    if (i + 1 < n) intermediates_[i] = current;
  }
  EvalMode combined = EvalMode::kNonVisual;
  for (const ScenarioSpec& spec : specs_) {
    if (spec.mode == EvalMode::kVisual) combined = EvalMode::kVisual;
  }
  pc_.emplace(base_, std::move(current), combined, /*varying_dim=*/-1);
  return Status::Ok();
}

Status IncrementalScenario::TryIncrementalRefresh(const DeltaBatch& batch,
                                                  const RefreshOptions& opts,
                                                  RefreshStats* stats,
                                                  bool* applied) {
  *applied = false;
  if (specs_.size() != 1) return Status::Ok();
  const ScenarioSpec& spec = specs_[0];
  if (spec.varying_dim < 0) return Status::Ok();
  for (const ScenarioOp& op : spec.ops) {
    // Introduction seeds cells across members (clone/transfer sources) and
    // grows the schema per edit feed — outside chunk-column locality.
    if (op.kind == ScenarioOp::Kind::kIntroduce) return Status::Ok();
  }
  const Dimension& in_dim = base_->schema().dimension(spec.varying_dim);
  if (!in_dim.is_varying()) return Status::Ok();
  const Cube& out = pc_->output();
  const Dimension& out_dim = out.schema().dimension(spec.varying_dim);

  std::vector<ChunkId> touched = batch.TouchedChunks();
  if (touched.empty()) {
    *applied = true;
    return Status::Ok();
  }
  if (!closure_index_.has_value()) {
    Result<DeltaClosureIndex> index = DeltaClosureIndex::Build(
        base_->layout(), in_dim, out.layout(), out_dim, spec.varying_dim);
    if (!index.ok()) return Status::Ok();  // Shape mismatch: full fallback.
    closure_index_ = std::move(*index);
  }
  DeltaClosure closure_value = closure_index_->Close(touched);
  const DeltaClosure* closure = &closure_value;
  stats->chunks_affected = static_cast<int64_t>(closure->input_chunks.size());

  const int64_t footprint =
      static_cast<int64_t>(closure->input_chunks.size()) *
          base_->layout().cells_per_chunk() +
      static_cast<int64_t>(closure->output_chunks.size()) *
          out.layout().cells_per_chunk();
  ScopedReservation reservation(opts, footprint);
  if (!reservation.Acquire()) {
    return Status::ResourceExhausted("delta refresh over memory budget");
  }
  OLAP_RETURN_IF_ERROR(opts.cancel.Poll("delta.refresh"));

  // Re-run the same scenario over just the closure's input chunks. The
  // locality argument (file header) makes each affected output chunk's
  // recomputed bytes identical to a full recompute's.
  if (!sub_.has_value()) {
    CubeOptions sub_options;
    sub_options.chunk_sizes = base_->layout().chunk_sizes();
    sub_.emplace(base_->schema(), sub_options);
  }
  Cube& sub = *sub_;
  for (ChunkId id : closure->input_chunks) {
    if (const Chunk* c = base_->FindChunk(id)) {
      sub.AdoptChunk(id, Chunk(*c));
    }
  }
  // Leaves sub_ empty again on every exit path.
  class EraseOnExit {
   public:
    EraseOnExit(Cube* cube, const std::vector<ChunkId>* ids)
        : cube_(cube), ids_(ids) {}
    EraseOnExit(const EraseOnExit&) = delete;
    EraseOnExit& operator=(const EraseOnExit&) = delete;
    ~EraseOnExit() {
      for (ChunkId id : *ids_) cube_->EraseChunk(id);
    }

   private:
    Cube* cube_;
    const std::vector<ChunkId>* ids_;
  } erase_sub(&sub, &closure->input_chunks);
  ScenarioEvalOptions sub_opts;
  sub_opts.strategy = opts.strategy;
  // A closure of a few chunks does not amortize worker spin-up; clamp the
  // fan-out to the work available. Evaluation is thread-count-deterministic
  // (the refresh is bit-identical at every eval_threads setting), so the
  // clamp affects latency only.
  sub_opts.eval_threads = std::max(
      1, std::min<int>(opts.eval_threads,
                       static_cast<int>(closure->input_chunks.size()) / 8));
  sub_opts.cancel = opts.cancel;
  // Scope the sub-recompute to the closure's component members: the merge
  // machinery's fixed cost scales with the member count, and members outside
  // the touched components cannot contribute to any closure chunk. Scoping
  // implies non-visual mode, which only affects serving — never the output
  // cube's leaf bytes, which are all the patch phase reads.
  ScenarioSpec sub_spec = spec;
  if (spec.scope_members.empty()) {
    sub_spec.scope_members = closure->members;
    sub_spec.mode = EvalMode::kNonVisual;
    sub_spec.pebbling_read_order = false;
  }
  Result<PerspectiveCube> sub_pc = ComputeScenario(sub, sub_spec, sub_opts);
  if (!sub_pc.ok()) return sub_pc.status();
  if (sub_pc->output().layout().extents() != out.layout().extents()) {
    return Status::Ok();  // Unexpected schema drift: full fallback.
  }
  OLAP_RETURN_IF_ERROR(opts.cancel.Poll("delta.refresh"));

  // Patch phase: replace / erase the affected output chunks, propagating
  // each swap into the attached aggregate cache. Not cancellable — once the
  // first chunk lands the rest must follow for the cube to stay consistent
  // (the phase is pure in-memory moves, microseconds per chunk).
  Cube* retained = pc_->mutable_output();
  for (ChunkId id : closure->output_chunks) {
    const Chunk* fresh = sub_pc->output().FindChunk(id);
    const Chunk* old = retained->FindChunk(id);
    if (fresh == nullptr && old == nullptr) continue;
    if (cache_ != nullptr) {
      cache_->PatchChunkDelta(retained->layout(), id, old, fresh);
    }
    if (fresh != nullptr) {
      retained->ReplaceChunk(id, Chunk(*fresh));
    } else {
      retained->EraseChunk(id);
    }
    ++stats->chunks_patched;
  }
  *applied = true;
  return Status::Ok();
}

Status IncrementalScenario::ApplyDelta(const DeltaBatch& batch,
                                       const RefreshOptions& opts,
                                       RefreshStats* stats) {
  TraceSpan span("delta.refresh");
  RefreshStats local;
  if (stats == nullptr) stats = &local;
  *stats = RefreshStats{};
  const DeltaMetrics& dm = DeltaMetrics::Get();
  dm.runs->Increment();
  auto fail = [&](Status s) {
    // The batch already reached the base cube; a refresh that did not run
    // to completion leaves the retained output stale.
    needs_rebuild_ = true;
    span.SetError(s);
    return s;
  };
  if (batch.base() != base_) {
    span.SetError(Status::InvalidArgument(""));
    return Status::InvalidArgument("batch was recorded against another cube");
  }
  if (needs_rebuild_) return fail(Status::FailedPrecondition(
      "scenario needs Rebuild() after an interrupted refresh"));

  bool applied = false;
  Status s = TryIncrementalRefresh(batch, opts, stats, &applied);
  if (!s.ok()) return fail(s);
  if (applied) {
    dm.incremental->Increment();
    dm.chunks_affected->Increment(stats->chunks_affected);
    dm.chunks_patched->Increment(stats->chunks_patched);
    span.SetDetail("chunks_patched=" + std::to_string(stats->chunks_patched));
    return Status::Ok();
  }

  // Full-recompute fallback: same API, correctness for every scenario
  // shape, budget-accounted like the incremental path.
  stats->full_recompute = true;
  dm.full_fallbacks->Increment();
  span.SetDetail("full_recompute");
  ScopedReservation reservation(
      opts, base_->NumStoredChunks() * base_->layout().cells_per_chunk());
  if (!reservation.Acquire()) {
    return fail(Status::ResourceExhausted("delta rebuild over memory budget"));
  }
  ScenarioEvalOptions so;
  so.strategy = opts.strategy;
  so.eval_threads = opts.eval_threads;
  so.cancel = opts.cancel;
  if (Status r = RecomputeFrom(0, so); !r.ok()) return fail(r);
  if (cache_ != nullptr) cache_->DropResidentViews();
  needs_rebuild_ = false;
  return Status::Ok();
}

Status IncrementalScenario::UpdateSpec(size_t stage, ScenarioSpec spec,
                                       const ScenarioEvalOptions& opts) {
  if (stage >= specs_.size()) {
    return Status::InvalidArgument("spec stage out of range");
  }
  specs_[stage] = std::move(spec);
  fingerprint_ = ScenarioFingerprint(specs_);
  DeltaMetrics::Get().stages_reused->Increment(static_cast<int64_t>(stage));
  Status s = RecomputeFrom(stage, opts);
  needs_rebuild_ = !s.ok();
  if (s.ok() && cache_ != nullptr) cache_->DropResidentViews();
  return s;
}

Status IncrementalScenario::Rebuild(const ScenarioEvalOptions& opts) {
  Status s = RecomputeFrom(0, opts);
  needs_rebuild_ = !s.ok();
  if (s.ok() && cache_ != nullptr) cache_->DropResidentViews();
  return s;
}

void IncrementalScenario::AttachCache(AggregateCache* cache) {
  cache_ = cache;
}

}  // namespace olap
