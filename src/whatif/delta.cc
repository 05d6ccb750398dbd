#include "whatif/delta.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace olap {

namespace {

struct DeltaMetrics {
  Counter* runs;
  Counter* incremental;
  Counter* full_fallbacks;
  Counter* chunks_affected;
  Counter* chunks_patched;
  static const DeltaMetrics& Get() {
    static DeltaMetrics m{
        MetricsRegistry::Global().counter("delta.refresh.runs"),
        MetricsRegistry::Global().counter("delta.refresh.incremental"),
        MetricsRegistry::Global().counter("delta.refresh.full_fallbacks"),
        MetricsRegistry::Global().counter("delta.refresh.chunks_affected"),
        MetricsRegistry::Global().counter("delta.refresh.chunks_patched"),
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

Status DeltaBatch::CheckCoords(const std::vector<int>& coords) const {
  if (static_cast<int>(coords.size()) != base_->num_dims()) {
    return Status::InvalidArgument("expected one coordinate per dimension");
  }
  const std::vector<int>& extents = base_->layout().extents();
  for (int d = 0; d < base_->num_dims(); ++d) {
    if (coords[d] < 0 || coords[d] >= extents[d]) {
      return Status::OutOfRange("coordinate outside the cube extents");
    }
  }
  return Status::Ok();
}

Status DeltaBatch::Set(const std::vector<int>& coords, CellValue v) {
  OLAP_RETURN_IF_ERROR(CheckCoords(coords));
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
// IncrementalScenario
// ---------------------------------------------------------------------------

Result<IncrementalScenario> IncrementalScenario::Create(
    const Cube* base, std::vector<ScenarioSpec> specs,
    const ScenarioEvalOptions& opts) {
  if (base == nullptr) return Status::InvalidArgument("null base cube");
  IncrementalScenario inc;
  inc.base_ = base;
  inc.specs_ = std::move(specs);
  OLAP_RETURN_IF_ERROR(inc.Recompute(opts));
  return inc;
}

Status IncrementalScenario::Recompute(const ScenarioEvalOptions& opts) {
  Result<PerspectiveCube> pc =
      ComposeScenarios(*base_, specs_, opts, &cell_map_);
  if (!pc.ok()) return pc.status();
  pc_.emplace(*std::move(pc));
  return Status::Ok();
}

int64_t IncrementalScenario::PatchCells(const DeltaBatch& batch) {
  const DestTable& map = cell_map_;
  const int vd = specs_.front().varying_dim;
  const int param_dim = base_->schema().parameter_of(vd);
  Cube* out = pc_->mutable_output();
  const ChunkLayout& layout = out->layout();
  std::vector<ChunkId> written;
  std::vector<int> coords;
  for (const CellEdit& e : batch.edits()) {
    const int32_t dst = map.At(e.coords[vd], e.coords[param_dim]);
    if (dst < 0) continue;  // The scenario drops this cell.
    coords = e.coords;
    coords[vd] = dst;
    const CellValue fresh = CellValue::FromStorage(e.new_storage);
    const ChunkId id = layout.ChunkOf(coords);
    if (fresh.is_null() && !out->HasChunk(id)) continue;  // ⊥ into a hole.
    const double before = CellValue::ToStorage(out->GetCell(coords));
    if (cache_ != nullptr) cache_->PatchCellDelta(coords, before, e.new_storage);
    out->SetCell(coords, fresh);
    written.push_back(id);
  }
  std::sort(written.begin(), written.end());
  written.erase(std::unique(written.begin(), written.end()), written.end());
  // A recompute stores only chunks holding a non-⊥ cell.
  for (ChunkId id : written) {
    if (out->FindChunk(id)->CountNonNull() == 0) out->EraseChunk(id);
  }
  return static_cast<int64_t>(written.size());
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

  if (!cell_map_.empty()) {
    // The cell path: once it starts writing it runs to the end, so the
    // retained cube is never left half-patched.
    if (Status s = opts.cancel.Poll("delta.refresh"); !s.ok()) return fail(s);
    stats->chunks_affected =
        static_cast<int64_t>(batch.TouchedChunks().size());
    stats->chunks_patched = PatchCells(batch);
    dm.incremental->Increment();
    dm.chunks_affected->Increment(stats->chunks_affected);
    dm.chunks_patched->Increment(stats->chunks_patched);
    span.SetDetail("chunks_patched=" + std::to_string(stats->chunks_patched));
    return Status::Ok();
  }

  // Full recompute: same API, correctness for every scenario shape,
  // budget-accounted.
  stats->full_recompute = true;
  dm.full_fallbacks->Increment();
  span.SetDetail("full_recompute");
  ScopedReservation reservation(
      opts, base_->NumStoredChunks() * base_->layout().cells_per_chunk());
  if (!reservation.Acquire()) {
    return fail(Status::ResourceExhausted("delta rebuild over memory budget"));
  }
  ScenarioEvalOptions so;
  so.eval_threads = opts.eval_threads;
  so.cancel = opts.cancel;
  if (Status r = Recompute(so); !r.ok()) return fail(r);
  if (cache_ != nullptr) cache_->DropResidentViews();
  needs_rebuild_ = false;
  return Status::Ok();
}

Status IncrementalScenario::Rebuild(const ScenarioEvalOptions& opts) {
  Status s = Recompute(opts);
  needs_rebuild_ = !s.ok();
  if (s.ok() && cache_ != nullptr) cache_->DropResidentViews();
  return s;
}

void IncrementalScenario::AttachCache(AggregateCache* cache) {
  cache_ = cache;
}

}  // namespace olap
