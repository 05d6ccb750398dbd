#include "whatif/operators.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace olap {

namespace {

// Rebuilds a cube with the same chunk geometry as `in` but (possibly)
// updated schema metadata.
CubeOptions OptionsOf(const Cube& in) {
  CubeOptions opts;
  opts.chunk_sizes = in.layout().chunk_sizes();
  return opts;
}

// owner[t] = position of the instance of `m` valid at moment t, or -1.
std::vector<int> OwnerByMoment(const Dimension& dim, MemberId m) {
  std::vector<int> owner(dim.parameter_leaf_count(), -1);
  for (const MemberInstance& inst : dim.instances()) {
    if (inst.member != m) continue;
    for (int t = inst.validity.FindFirst(); t >= 0;
         t = inst.validity.FindNext(t + 1)) {
      owner[t] = inst.id;
    }
  }
  return owner;
}

// ---------------------------------------------------------------------------
// Chunk-native relocation kernel
// ---------------------------------------------------------------------------
//
// Both Relocate and Split move leaf cells along ONE dimension, as their
// DestTable states. The kernel copies contiguous cell runs chunk-to-chunk:
// for a fixed (p, t, leading coords) every trailing coordinate combination
// is one contiguous run in both the source and the destination chunk, so
// the inner loop is a ⊥-skipping raw-double copy with no coordinate
// vectors, no hash lookups and no per-cell chunk resolution.

// A table over `num_positions` positions that drops every cell.
DestTable DroppingTable(int num_positions, int universe) {
  DestTable table;
  table.universe = universe;
  table.dest.assign(static_cast<size_t>(num_positions) * universe, -1);
  return table;
}

// Applies `table` to every stored cell of `in`, producing a cube with
// schema `schema_out` and the same chunk sizes. Partitions the stored
// chunks into contiguous ranges handled by up to `threads` pool workers;
// each task writes a private chunk map, and the partial maps are merged in
// task order. Because every destination cell has exactly one source cell
// (validity sets are disjoint), the merged result is independent of the
// partitioning — outputs are bit-identical at every thread count.
Cube ApplyDestTable(const Cube& in, Schema schema_out, int varying_dim,
                    int param_dim, const DestTable& table, int threads,
                    int64_t* cells_moved, const CancellationToken& cancel) {
  Cube out(std::move(schema_out), OptionsOf(in));
  const ChunkLayout& lin = in.layout();
  const ChunkLayout& lout = out.layout();
  const int n = lin.num_dims();
  const int vd = varying_dim;

  // identity[p] / drop_all[p] classify whole rows so the kernel can
  // block-copy or skip whole chunks without consulting the table per cell.
  const int num_positions = in.schema().dimension(vd).num_positions();
  std::vector<uint8_t> identity(num_positions, 0), drop_all(num_positions, 0);
  for (int p = 0; p < num_positions; ++p) {
    bool ident = true, any = false;
    for (int t = 0; t < table.universe; ++t) {
      const int32_t d = table.At(p, t);
      if (d >= 0) any = true;
      if (d != p) ident = false;
    }
    identity[p] = ident ? 1 : 0;
    drop_all[p] = any ? 0 : 1;
  }

  // Row-major in-chunk strides for both layouts. They can differ only when
  // the varying extent changed (Split adding instances near a clamped
  // chunk edge); trailing dimensions shared by a run always match, so the
  // run length below is common to both.
  std::vector<int64_t> sin(n), sout(n);
  {
    int64_t a = 1, b = 1;
    for (int d = n - 1; d >= 0; --d) {
      sin[d] = a;
      a *= lin.chunk_sizes()[d];
      sout[d] = b;
      b *= lout.chunk_sizes()[d];
    }
  }

  // Runs span the trailing dimensions; coordinates at or before dimension
  // `j` stay fixed within a run. A run must hold (position, moment) — the
  // coordinates along (vd, param_dim) — constant, so j starts at the
  // slowest-varying of the two. But a dimension chunked at size 1 never
  // varies *within* a chunk at all, so it cannot break a run: shrink j past
  // any such dimension (vd additionally needs the output chunk size to be 1
  // so source and destination runs stay element-aligned). Ordinary interior
  // dimensions keep identical chunk sizes in both layouts and pass through.
  // j may reach -1, in which case the whole chunk is a single run.
  int j = std::max(vd, param_dim);
  while (j >= 0) {
    bool breaks_run;
    if (j == vd) {
      breaks_run = lin.chunk_sizes()[vd] != 1 || lout.chunk_sizes()[vd] != 1;
    } else if (j == param_dim) {
      breaks_run = lin.chunk_sizes()[j] != 1;
    } else {
      breaks_run = false;
    }
    if (breaks_run) break;
    --j;
  }
  const int64_t run_len = j >= 0 ? sin[j] : lin.cells_per_chunk();
  assert(run_len == (j >= 0 ? sout[j] : lout.cells_per_chunk()));

  // Chunk-grid strides (row-major over chunks_per_dim) of both grids.
  std::vector<int64_t> gstride(n), gstride_in(n);
  {
    int64_t acc = 1, acc_in = 1;
    for (int d = n - 1; d >= 0; --d) {
      gstride[d] = acc;
      acc *= lout.chunks_per_dim()[d];
      gstride_in[d] = acc_in;
      acc_in *= lin.chunks_per_dim()[d];
    }
  }

  const int csize_in_vd = lin.chunk_sizes()[vd];
  const int csize_out_vd = lout.chunk_sizes()[vd];
  const int64_t grid_in_vd = lin.chunks_per_dim()[vd];
  const int ext_in_vd = lin.extents()[vd];
  // Whole-chunk identity copies need 1:1 chunk correspondence.
  const bool same_grid = lin.chunk_sizes() == lout.chunk_sizes() &&
                         lin.chunks_per_dim() == lout.chunks_per_dim();

  // Snapshot the stored chunks (ascending id — std::map order). The
  // templated iteration avoids a std::function dispatch per chunk.
  std::vector<std::pair<ChunkId, const Chunk*>> stored;
  stored.reserve(in.NumStoredChunks());
  in.ForEachChunkWhile([&](ChunkId id, const Chunk& chunk) {
    stored.emplace_back(id, &chunk);
    return true;
  });
  if (stored.empty()) {
    if (cells_moved != nullptr) *cells_moved += 0;
    return out;
  }

  // Per-task scratch buffers, reused across chunks so the hot loop makes no
  // heap allocations (each task owns one; tasks never share).
  struct Scratch {
    std::vector<int> base;          // chunk base coordinate per dim
    std::vector<int> limit;         // in-extent iteration limit, dims 0..j
    std::vector<int> local_coords;  // odometer state, dims 0..j
  };

  // One source chunk: classify its varying-dimension positions, then either
  // skip it, block-merge it, or walk its (leading coords) runs.
  auto process_chunk = [&](ChunkId id, const Chunk& chunk,
                           std::map<ChunkId, Chunk>* local, int64_t* moved,
                           Scratch& scratch) {
    // The chunk's base position along vd, without materialising coordinate
    // vectors — classification runs for every stored chunk.
    const int vbase =
        static_cast<int>((id / gstride_in[vd]) % grid_in_vd) * csize_in_vd;
    const int vlimit = std::min(csize_in_vd, ext_in_vd - vbase);

    bool all_drop = true, all_ident = true;
    for (int lv = 0; lv < vlimit; ++lv) {
      const int p = vbase + lv;
      if (!drop_all[p]) all_drop = false;
      if (!identity[p]) all_ident = false;
    }
    if (all_drop) return;  // Sec. 6.3 confinement: chunk holds no scoped data.

    auto local_chunk = [&](ChunkId dst_id) -> Chunk* {
      auto it = local->find(dst_id);
      if (it == local->end()) {
        it = local->emplace(dst_id, Chunk(lout.cells_per_chunk())).first;
      }
      return &it->second;
    };

    if (all_ident && same_grid) {
      // Every position maps to itself at every moment: clone the chunk
      // wholesale. ⊥ cells are a canonical bit pattern, so a raw chunk copy
      // equals ⊥-init-then-merge bit for bit — one scan and one memcpy
      // instead of touching every cell twice. All-⊥ chunks stay unstored
      // (the per-cell path would never create them).
      const int64_t nonnull = chunk.CountNonNull();
      if (nonnull == 0) return;
      auto [it, inserted] = local->try_emplace(id, chunk);
      if (!inserted) it->second.MergeNonNullFrom(chunk);
      *moved += nonnull;
      return;
    }

    // Decompose the chunk id into grid coords once: fills the chunk's base
    // cell coordinate per dim and accumulates the destination chunk-grid id
    // minus the varying-dimension term (destinations differ only along vd).
    std::vector<int>& base = scratch.base;
    int64_t dst_id_base = 0;
    {
      int64_t rem = id;
      for (int d = 0; d < n; ++d) {
        const int64_t c = rem / gstride_in[d];
        rem %= gstride_in[d];
        if (d != vd) dst_id_base += c * gstride[d];
        base[d] = static_cast<int>(c) * lin.chunk_sizes()[d];
      }
    }

    // In-extent iteration limits for the leading dims (trailing padding is
    // all-⊥ and handled by the ⊥-skipping copy).
    std::vector<int>& limit = scratch.limit;
    for (int d = 0; d <= j; ++d) {
      limit[d] = std::min(lin.chunk_sizes()[d], lin.extents()[d] - base[d]);
    }

    ChunkId last_dst_id = -1;
    Chunk* dst_chunk = nullptr;
    // Dimensions past j are chunked at size 1 (coordinate pinned at the
    // chunk base), so index local_coords only when the dim is odometer-led.
    std::vector<int>& local_coords = scratch.local_coords;
    std::fill(local_coords.begin(), local_coords.end(), 0);
    while (true) {
      const int p = vbase + (vd <= j ? local_coords[vd] : 0);
      const int t =
          base[param_dim] + (param_dim <= j ? local_coords[param_dim] : 0);
      const int32_t dstv =
          identity[p] ? static_cast<int32_t>(p) : table.At(p, t);
      if (dstv >= 0) {
        int64_t src_off = 0;
        for (int d = 0; d <= j; ++d) src_off += local_coords[d] * sin[d];
        if (chunk.RunHasNonNull(src_off, run_len)) {
          const int dst_cv = dstv / csize_out_vd;
          const ChunkId dst_id = dst_id_base + dst_cv * gstride[vd];
          if (dst_id != last_dst_id) {
            dst_chunk = local_chunk(dst_id);
            last_dst_id = dst_id;
          }
          int64_t dst_off = (dstv - dst_cv * csize_out_vd) * sout[vd];
          for (int d = 0; d <= j; ++d) {
            if (d != vd) dst_off += local_coords[d] * sout[d];
          }
          *moved += dst_chunk->CopyRunFrom(chunk, src_off, dst_off, run_len);
        }
      }
      // Odometer over the leading dims, innermost fastest, within extents.
      int d = j;
      while (d >= 0) {
        if (++local_coords[d] < limit[d]) break;
        local_coords[d] = 0;
        --d;
      }
      if (d < 0) break;
    }
  };

  // Deterministic partitioning: contiguous ranges of the ascending stored
  // list. More tasks than executors for load balance; partial outputs are
  // disjoint in their non-⊥ cells, so the merge below is order-independent.
  // Serial runs use a single task so the merge degenerates to moving the
  // one partial map into the (empty) output cube.
  //
  // The fan-out is sized by the *effective* executor count — the requested
  // thread budget after the work-hinted core/work clamp — not by the
  // request itself: when the clamp collapses a run to few executors, extra
  // tasks only duplicate destination-chunk allocations across partial maps
  // and inflate the AdoptChunks merge (the former inverse thread scaling of
  // the fig13/split benchmarks on small machines).
  const int64_t work_units =
      static_cast<int64_t>(stored.size()) * in.layout().cells_per_chunk();
  const int executors = ThreadPool::ClampedExecutors(threads, work_units);
  const int num_tasks =
      executors <= 1 ? 1
                     : static_cast<int>(std::min<int64_t>(
                           stored.size(), static_cast<int64_t>(executors) * 4));
  std::vector<std::map<ChunkId, Chunk>> partial(num_tasks);
  std::vector<int64_t> moved_per_task(num_tasks, 0);
  auto run_task = [&](int64_t task) {
    Scratch scratch;
    scratch.base.resize(n);
    scratch.limit.resize(j + 1);
    scratch.local_coords.resize(j + 1);
    const size_t begin = stored.size() * task / num_tasks;
    const size_t end = stored.size() * (task + 1) / num_tasks;
    for (size_t i = begin; i < end; ++i) {
      // Chunk-granular poll: a cancelled pass leaves the output cube
      // partially filled — the caller must check the token and discard it.
      if (cancel.ShouldStop()) return;
      process_chunk(stored[i].first, *stored[i].second, &partial[task],
                    &moved_per_task[task], scratch);
    }
  };
  if (num_tasks <= 1) {
    for (int task = 0; task < num_tasks; ++task) run_task(task);
  } else {
    // Work-hinted: small relocations (few chunks) run inline instead of
    // paying pool fan-out latency, and executors never exceed the cores.
    ThreadPool::Shared().ParallelFor(num_tasks, threads, work_units, run_task,
                                     cancel);
  }

  int64_t moved = 0;
  for (int task = 0; task < num_tasks; ++task) {
    moved += moved_per_task[task];
    out.AdoptChunks(std::move(partial[task]));
  }
  if (cells_moved != nullptr) *cells_moved += moved;
  return out;
}

// Relocate's output schema: the scoped instances take their vs_out.
Schema RelocateSchema(const Cube& in, int varying_dim,
                      const std::vector<DynamicBitset>& vs_out,
                      const std::unordered_set<MemberId>& scope,
                      bool scope_all) {
  Schema schema_out = in.schema();
  const Dimension& d_in = in.schema().dimension(varying_dim);
  Dimension* d_out = schema_out.mutable_dimension(varying_dim);
  for (const MemberInstance& inst : d_in.instances()) {
    if (scope_all || scope.count(inst.member) > 0) {
      d_out->SetInstanceValidity(inst.id, vs_out[inst.id]);
    }
  }
  return schema_out;
}

// Applies the change tuples of a Split to the metadata sequentially,
// producing the output schema and the set of touched members.
Result<Schema> SplitSchema(const Cube& in, int varying_dim,
                           const ChangeRelation& r,
                           std::unordered_set<MemberId>* touched) {
  const Schema& schema_in = in.schema();
  const Dimension& d_in = schema_in.dimension(varying_dim);
  if (!d_in.is_varying()) {
    return Status::FailedPrecondition("Split requires a varying dimension");
  }
  if (!d_in.parameter_is_ordered()) {
    // Definition 4.5's "before t / from t onward" split needs an order.
    return Status::FailedPrecondition(
        "Split requires an ordered parameter dimension");
  }
  const int universe = d_in.parameter_leaf_count();

  Schema schema_out = schema_in;
  Dimension* d_out = schema_out.mutable_dimension(varying_dim);
  for (const ChangeTuple& tuple : r) {
    if (tuple.moment < 0 || tuple.moment >= universe) {
      return Status::OutOfRange("change moment out of range");
    }
    InstanceId src = d_out->FindInstance(tuple.member, tuple.old_parent);
    if (src == kInvalidInstance) {
      return Status::NotFound("no instance of member under the stated old parent");
    }
    DynamicBitset after(universe);
    for (int t = tuple.moment; t < universe; ++t) after.Set(t);
    after &= d_out->instance(src).validity;
    if (after.None()) {
      return Status::FailedPrecondition(
          "old parent is not the member's parent at or after the change moment");
    }
    DynamicBitset before = d_out->instance(src).validity;
    before.Subtract(after);
    d_out->SetInstanceValidity(src, before);

    InstanceId dst = d_out->FindInstance(tuple.member, tuple.new_parent);
    if (dst == kInvalidInstance) {
      Result<InstanceId> added =
          d_out->AddInstance(tuple.member, tuple.new_parent, after);
      if (!added.ok()) return added.status();
      dst = *added;
    } else {
      DynamicBitset merged = d_out->instance(dst).validity;
      merged |= after;
      d_out->SetInstanceValidity(dst, merged);
    }
    touched->insert(tuple.member);
  }
  return schema_out;
}

}  // namespace

DestTable DestTable::Then(const DestTable& next) const {
  if (empty() || next.empty()) return {};
  assert(universe == next.universe);
  DestTable out;
  out.universe = universe;
  out.dest.resize(dest.size());
  for (size_t i = 0; i < dest.size(); ++i) {
    const int t = static_cast<int>(i % universe);
    out.dest[i] = dest[i] < 0 ? -1 : next.At(dest[i], t);
  }
  return out;
}

// Per-operator instrumentation (the paper's cube algebra: ρ Relocate,
// S Split, I IntroduceMembers, Φ Allocate). Each operator application
// opens one trace span and bumps one call counter (DESIGN.md §8).
#define OLAP_OPERATOR_SCOPE(op_name)                                      \
  TraceSpan op_span("op." op_name);                                       \
  do {                                                                    \
    static Counter* op_calls =                                            \
        MetricsRegistry::Global().counter("op." op_name ".calls");        \
    op_calls->Increment();                                                \
  } while (0)

Cube Relocate(const Cube& in, int varying_dim,
              const std::vector<DynamicBitset>& vs_out,
              const std::vector<MemberId>& scope_members,
              int64_t* cells_moved, int threads,
              const CancellationToken& cancel, DestTable* applied) {
  OLAP_OPERATOR_SCOPE("relocate");
  const Dimension& d_in = in.schema().dimension(varying_dim);
  assert(d_in.is_varying());
  assert(static_cast<int>(vs_out.size()) == d_in.num_instances());
  const int param_dim = in.schema().parameter_of(varying_dim);
  assert(param_dim >= 0);

  std::unordered_set<MemberId> scope(scope_members.begin(), scope_members.end());
  const bool scope_all = scope.empty();
  Schema schema_out = RelocateSchema(in, varying_dim, vs_out, scope, scope_all);
  // dst_flat[member * universe + t]: the output instance owning moment t
  // under vs_out, or -1. Flat arrays keyed by member id, not a map of
  // per-member vectors: building that map costs thousands of small
  // allocations, which on wide dimensions dwarfs the kernel's actual data
  // movement.
  const int universe = d_in.parameter_leaf_count();
  MemberId max_member = -1;
  for (const MemberInstance& inst : d_in.instances()) {
    max_member = std::max(max_member, inst.member);
  }
  std::vector<int32_t> dst_flat(static_cast<size_t>(max_member + 1) * universe,
                                -1);
  std::vector<uint8_t> in_scope(max_member + 1, 0);
  for (const MemberInstance& inst : d_in.instances()) {
    if (!scope_all && scope.count(inst.member) == 0) continue;
    in_scope[inst.member] = 1;
    int32_t* row = dst_flat.data() + static_cast<size_t>(inst.member) * universe;
    vs_out[inst.id].ForEachSetBit([&](int t) {
      assert(row[t] == -1 && "output validity sets must be disjoint");
      row[t] = static_cast<int32_t>(inst.id);
    });
  }

  // Position-indexed destination table: destinations resolve once per axis
  // position here, never in the kernel.
  DestTable table = DroppingTable(d_in.num_positions(), universe);
  for (int p = 0; p < d_in.num_positions(); ++p) {
    const MemberInstance& inst = d_in.instance(p);
    int32_t* row = table.dest.data() + static_cast<size_t>(p) * universe;
    if (!in_scope[inst.member]) continue;  // Out of scope: dropped.
    // Only data at the instance actually valid at t participates: that is
    // Cin(d_t, t, e) in Definition 4.4.
    const int32_t* src =
        dst_flat.data() + static_cast<size_t>(inst.member) * universe;
    inst.validity.ForEachSetBit([&](int t) { row[t] = src[t]; });
  }
  Cube out = ApplyDestTable(in, std::move(schema_out), varying_dim, param_dim,
                            table, threads, cells_moved, cancel);
  if (applied != nullptr) *applied = std::move(table);
  return out;
}

Result<Cube> Split(const Cube& in, int varying_dim, const ChangeRelation& r,
                   int threads, const CancellationToken& cancel,
                   DestTable* applied) {
  OLAP_OPERATOR_SCOPE("split");
  std::unordered_set<MemberId> touched;
  Result<Schema> schema_out = SplitSchema(in, varying_dim, r, &touched);
  if (!schema_out.ok()) {
    op_span.SetError(schema_out.status());
    return schema_out.status();
  }
  const Dimension& d_in = in.schema().dimension(varying_dim);
  const Dimension& d_out = schema_out->dimension(varying_dim);
  const int param_dim = in.schema().parameter_of(varying_dim);
  const int universe = d_in.parameter_leaf_count();

  // Every moment of a touched member goes to the output instance that owns
  // it after the splits; untouched members copy through unchanged.
  std::unordered_map<MemberId, std::vector<int>> owner_out;
  for (MemberId m : touched) owner_out[m] = OwnerByMoment(d_out, m);

  DestTable table = DroppingTable(d_in.num_positions(), universe);
  for (int p = 0; p < d_in.num_positions(); ++p) {
    const MemberInstance& inst = d_in.instance(p);
    int32_t* row = table.dest.data() + static_cast<size_t>(p) * universe;
    auto it = owner_out.find(inst.member);
    if (it == owner_out.end()) {
      for (int t = 0; t < universe; ++t) row[t] = p;
      continue;
    }
    for (int t = inst.validity.FindFirst(); t >= 0;
         t = inst.validity.FindNext(t + 1)) {
      row[t] = it->second[t];
    }
  }
  Cube out = ApplyDestTable(in, *std::move(schema_out), varying_dim, param_dim,
                            table, threads, nullptr, cancel);
  if (applied != nullptr) *applied = std::move(table);
  return out;
}

Status ApplyIntroductions(Schema* schema, int varying_dim,
                          const std::vector<NewMemberSpec>& specs) {
  if (varying_dim < 0 || varying_dim >= schema->num_dimensions()) {
    return Status::InvalidArgument("introduce dimension out of range");
  }
  Dimension* d = schema->mutable_dimension(varying_dim);
  if (!d->is_varying()) {
    return Status::FailedPrecondition(
        "Introduce requires a varying dimension");
  }
  const int universe = d->parameter_leaf_count();
  for (const NewMemberSpec& spec : specs) {
    Result<MemberId> parent = d->FindMember(spec.parent);
    if (!parent.ok()) {
      return Status::NotFound("introduce parent '" + spec.parent +
                              "' not found in dimension '" + d->name() + "'");
    }
    if (spec.inner) {
      if (spec.seed != NewMemberSpec::Seed::kNone) {
        return Status::InvalidArgument(
            "only introduced leaves can carry a seeding rule");
      }
      Result<MemberId> added = d->AddInnerMember(spec.name, *parent);
      if (!added.ok()) return added.status();
      continue;
    }
    if (spec.from_moment < 0 || spec.from_moment >= universe) {
      return Status::OutOfRange("introduce epoch start out of range");
    }
    Result<MemberId> added = d->AddMember(spec.name, *parent);
    if (!added.ok()) return added.status();
    // AddMember created one all-moments instance; restrict it to the
    // member's epoch [from_moment, universe).
    InstanceId inst = d->FindInstance(*added, *parent);
    assert(inst != kInvalidInstance);
    DynamicBitset epoch(universe);
    for (int t = spec.from_moment; t < universe; ++t) epoch.Set(t);
    d->SetInstanceValidity(inst, std::move(epoch));
  }
  return Status::Ok();
}

namespace {

// The source cells a seeding rule copies from: coordinates and value.
using SeedMoves = std::vector<std::pair<std::vector<int>, double>>;

// Appends to `moves` every cell of `source`'s instances in `cube` at
// moments >= from_moment where the instance is valid, visiting only the
// stored chunks whose varying-dimension chunk coordinate holds one of
// those instances.
void CollectSeedCells(const Cube& cube, int varying_dim, MemberId source,
                      int from_moment, SeedMoves* moves) {
  const Dimension& d = cube.schema().dimension(varying_dim);
  const int param_dim = cube.schema().parameter_of(varying_dim);
  const ChunkLayout& layout = cube.layout();
  std::vector<bool> column(layout.chunks_per_dim()[varying_dim], false);
  for (InstanceId i : d.InstancesOf(source)) {
    column[i / layout.chunk_sizes()[varying_dim]] = true;
  }
  cube.ForEachChunkWhile([&](ChunkId id, const Chunk& chunk) {
    if (!column[layout.ChunkCoord(id, varying_dim)]) return true;
    layout.ForEachCellInChunk(id, [&](const std::vector<int>& coords,
                                      int64_t off) {
      if (chunk.IsNull(off)) return;
      const MemberInstance& inst = d.instance(coords[varying_dim]);
      if (inst.member != source) return;
      const int t = coords[param_dim];
      if (t < from_moment) return;          // Outside the epoch.
      if (!inst.validity.Test(t)) return;   // Data at an invalid instance.
      moves->emplace_back(coords, chunk.ValueAt(off));
    });
    return true;
  });
}

// The seeding half of Introduce, applied to the already-widened cube.
// Strictly serial and ordered (specs in order; cells in coordinate order).
Status SeedIntroducedCells(Cube* out, int varying_dim,
                           const std::vector<NewMemberSpec>& specs,
                           int64_t* cells_seeded) {
  const Dimension& d = out->schema().dimension(varying_dim);
  for (const NewMemberSpec& spec : specs) {
    if (spec.inner || spec.seed == NewMemberSpec::Seed::kNone) continue;
    const bool transfer = spec.seed == NewMemberSpec::Seed::kTransfer;
    if (spec.factor < 0.0 || (transfer && spec.factor > 1.0)) {
      return Status::InvalidArgument(
          transfer ? "introduce transfer fraction must be in [0, 1]"
                   : "introduce clone factor must be >= 0");
    }
    Result<MemberId> source = d.FindMember(spec.source);
    if (!source.ok()) {
      return Status::NotFound("introduce seed source '" + spec.source +
                              "' not found in dimension '" + d.name() + "'");
    }
    if (!d.member(*source).is_leaf()) {
      return Status::InvalidArgument(
          "introduce seed source must be a leaf member");
    }
    Result<MemberId> target = d.FindMember(spec.name);
    Result<MemberId> parent = d.FindMember(spec.parent);
    assert(target.ok() && parent.ok());  // Just introduced above.
    if (*source == *target) {
      return Status::InvalidArgument("introduced member cannot seed itself");
    }
    const InstanceId dst = d.FindInstance(*target, *parent);
    assert(dst != kInvalidInstance);
    if (spec.factor == 0.0) continue;  // Zero delta: introduced empty.

    // Collect first (mutating while iterating is unsound), then apply in
    // coordinate order so the result is independent of visit order.
    SeedMoves moves;
    CollectSeedCells(*out, varying_dim, *source, spec.from_moment, &moves);
    std::sort(moves.begin(), moves.end());
    int64_t seeded = 0;
    std::vector<int> dst_coords;
    for (const auto& [coords, value] : moves) {
      if (transfer) {
        out->SetCell(coords, CellValue(value * (1.0 - spec.factor)));
        ++seeded;
      }
      dst_coords = coords;
      dst_coords[varying_dim] = dst;
      out->SetCell(dst_coords, CellValue(value * spec.factor));
      ++seeded;
    }
    if (cells_seeded) *cells_seeded += seeded;
  }
  return Status::Ok();
}

}  // namespace

Result<Cube> IntroduceMembers(const Cube& in, int varying_dim,
                              const std::vector<NewMemberSpec>& specs,
                              int threads, const CancellationToken& cancel,
                              int64_t* cells_seeded) {
  OLAP_OPERATOR_SCOPE("introduce");
  Schema schema_out = in.schema();
  Status applied = ApplyIntroductions(&schema_out, varying_dim, specs);
  if (!applied.ok()) {
    op_span.SetError(applied);
    return applied;
  }
  const Dimension& d_in = in.schema().dimension(varying_dim);
  const int param_dim = in.schema().parameter_of(varying_dim);
  const int universe = d_in.parameter_leaf_count();

  // Existing cells copy through unchanged: an identity destination table
  // over the input positions. The output grid is wider (new instances
  // append positions); the kernel handles the differing chunk grids.
  DestTable table = DroppingTable(d_in.num_positions(), universe);
  for (int p = 0; p < d_in.num_positions(); ++p) {
    int32_t* row = table.dest.data() + static_cast<size_t>(p) * universe;
    for (int t = 0; t < universe; ++t) row[t] = p;
  }
  Cube out = ApplyDestTable(in, std::move(schema_out), varying_dim, param_dim,
                            table, threads, nullptr, cancel);
  if (Status s = cancel.Poll("whatif.introduce"); !s.ok()) {
    op_span.SetError(s);
    return s;
  }
  Status seeded = SeedIntroducedCells(&out, varying_dim, specs, cells_seeded);
  if (!seeded.ok()) {
    op_span.SetError(seeded);
    return seeded;
  }
  return out;
}

Result<Cube> Allocate(const Cube& in, const AllocationSpec& spec) {
  OLAP_OPERATOR_SCOPE("allocate");
  if (spec.dim < 0 || spec.dim >= in.num_dims()) {
    return Status::InvalidArgument("allocation dimension out of range");
  }
  if (spec.fraction < 0.0 || spec.fraction > 1.0) {
    return Status::InvalidArgument("allocation fraction must be in [0, 1]");
  }
  std::vector<int> from_positions = in.PositionsUnder(spec.dim, spec.from);
  std::vector<int> to_positions = in.PositionsUnder(spec.dim, spec.to);
  if (from_positions.size() != 1 || to_positions.size() != 1) {
    return Status::InvalidArgument(
        "allocation source and target must each be a single leaf position");
  }
  const int from_pos = from_positions[0];
  const int to_pos = to_positions[0];
  if (from_pos == to_pos) {
    return Status::InvalidArgument("allocation source equals target");
  }

  // Region membership per dimension, as position masks.
  std::vector<std::vector<bool>> region_mask(in.num_dims());
  for (const auto& [dim, ref] : spec.region) {
    if (dim < 0 || dim >= in.num_dims()) {
      return Status::InvalidArgument("allocation region dimension out of range");
    }
    if (dim == spec.dim) {
      return Status::InvalidArgument(
          "allocation region cannot restrict the allocation dimension");
    }
    std::vector<bool>& mask = region_mask[dim];
    mask.assign(in.schema().dimension(dim).num_positions(), false);
    for (int pos : in.PositionsUnder(dim, ref)) mask[pos] = true;
  }

  Cube out = in;
  std::vector<int> dst_coords;
  // Collect the moves first (mutating while iterating would be unsound).
  std::vector<std::pair<std::vector<int>, double>> moves;
  in.ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
    if (coords[spec.dim] != from_pos) return;
    for (int d = 0; d < in.num_dims(); ++d) {
      if (!region_mask[d].empty() && !region_mask[d][coords[d]]) return;
    }
    moves.emplace_back(coords, v.value());
  });
  for (const auto& [coords, value] : moves) {
    double moved = value * spec.fraction;
    out.SetCell(coords, CellValue(value - moved));
    dst_coords = coords;
    dst_coords[spec.dim] = to_pos;
    CellValue target = out.GetCell(dst_coords) + CellValue(moved);
    out.SetCell(dst_coords, target);
  }
  return out;
}

}  // namespace olap
