#include "support/operator_oracles.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace olap {

namespace {

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

// dst_of[member][t]: the output instance owning moment t under vs_out.
// Phi guarantees the vs_out of one member's instances stay disjoint, so
// the assignment is unique (asserted).
std::unordered_map<MemberId, std::vector<int>> RelocateDstOf(
    const Dimension& d_in, const std::vector<DynamicBitset>& vs_out,
    const std::unordered_set<MemberId>& scope, bool scope_all) {
  std::unordered_map<MemberId, std::vector<int>> dst_of;
  for (const MemberInstance& inst : d_in.instances()) {
    if (!scope_all && scope.count(inst.member) == 0) continue;
    auto [it, unused] = dst_of.try_emplace(
        inst.member, std::vector<int>(d_in.parameter_leaf_count(), -1));
    (void)unused;
    const DynamicBitset& vs = vs_out[inst.id];
    for (int t = vs.FindFirst(); t >= 0; t = vs.FindNext(t + 1)) {
      assert(it->second[t] == -1 && "output validity sets must be disjoint");
      it->second[t] = inst.id;
    }
  }
  return dst_of;
}

}  // namespace

Cube RelocateReference(const Cube& in, const Schema& schema_out,
                       int varying_dim,
                       const std::vector<DynamicBitset>& vs_out,
                       const std::vector<MemberId>& scope_members,
                       int64_t* cells_moved) {
  const Schema& schema_in = in.schema();
  const Dimension& d_in = schema_in.dimension(varying_dim);
  assert(d_in.is_varying());
  assert(static_cast<int>(vs_out.size()) == d_in.num_instances());
  const int param_dim = schema_in.parameter_of(varying_dim);
  assert(param_dim >= 0);

  std::unordered_set<MemberId> scope(scope_members.begin(), scope_members.end());
  const bool scope_all = scope.empty();
  std::unordered_map<MemberId, std::vector<int>> dst_of =
      RelocateDstOf(d_in, vs_out, scope, scope_all);

  Cube out(schema_out, OptionsOf(in));
  int64_t moved = 0;
  std::vector<int> dst_coords;
  auto relocate_cell = [&](const std::vector<int>& coords, CellValue v) {
    const MemberInstance& inst = d_in.instance(coords[varying_dim]);
    auto it = dst_of.find(inst.member);
    if (it == dst_of.end()) return;  // Out of scope: dropped.
    const int t = coords[param_dim];
    if (!inst.validity.Test(t)) return;
    const int dst = it->second[t];
    if (dst < 0) return;  // No output instance claims this moment.
    dst_coords = coords;
    dst_coords[varying_dim] = dst;
    out.SetCell(dst_coords, v);
    ++moved;
  };

  if (!scope_all) {
    // Scoped relocation drops out-of-scope data, so it only needs to visit
    // the chunks holding scoped instances (the Sec. 6.3 confinement).
    std::vector<bool> wanted(d_in.num_positions(), false);
    for (const MemberInstance& inst : d_in.instances()) {
      if (scope.count(inst.member) > 0) wanted[inst.id] = true;
    }
    const ChunkLayout& layout = in.layout();
    const int width = layout.chunk_sizes()[varying_dim];
    in.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
      int chunk_base = layout.ChunkBase(id)[varying_dim];
      bool relevant = false;
      for (int pos = chunk_base;
           pos < chunk_base + width && pos < d_in.num_positions(); ++pos) {
        if (wanted[pos]) {
          relevant = true;
          break;
        }
      }
      if (!relevant) return;
      layout.ForEachCellInChunk(id, [&](const std::vector<int>& coords,
                                        int64_t offset) {
        if (!chunk.IsNull(offset)) {
          relocate_cell(coords, CellValue(chunk.ValueAt(offset)));
        }
      });
    });
  } else {
    in.ForEachCell(relocate_cell);
  }
  if (cells_moved != nullptr) *cells_moved += moved;
  return out;
}

Cube SplitReference(const Cube& in, const Schema& schema_out,
                    int varying_dim, const ChangeRelation& r) {
  const Dimension& d_in = in.schema().dimension(varying_dim);
  const Dimension& d_out = schema_out.dimension(varying_dim);
  const int param_dim = in.schema().parameter_of(varying_dim);

  // Every moment of a named member goes to the output instance that owns
  // it after the splits; other members copy through unchanged.
  std::unordered_map<MemberId, std::vector<int>> owner_out;
  for (const ChangeTuple& tuple : r) {
    owner_out.try_emplace(tuple.member, OwnerByMoment(d_out, tuple.member));
  }

  Cube out(schema_out, OptionsOf(in));
  std::vector<int> dst_coords;
  in.ForEachCell([&](const std::vector<int>& coords, CellValue v) {
    const MemberInstance& inst = d_in.instance(coords[varying_dim]);
    auto it = owner_out.find(inst.member);
    if (it == owner_out.end()) {
      out.SetCell(coords, v);
      return;
    }
    const int t = coords[param_dim];
    if (!inst.validity.Test(t)) return;  // Data at an invalid instance.
    const int dst = it->second[t];
    if (dst < 0) return;
    dst_coords = coords;
    dst_coords[varying_dim] = dst;
    out.SetCell(dst_coords, v);
  });
  return out;
}

Result<Cube> IntroduceMembersReference(const Cube& in,
                                       const Schema& schema_out,
                                       int varying_dim,
                                       const std::vector<NewMemberSpec>& specs,
                                       int64_t* cells_seeded) {
  Cube out(schema_out, OptionsOf(in));
  in.ForEachCell(
      [&](const std::vector<int>& coords, CellValue v) { out.SetCell(coords, v); });

  // Seeds in spec order from a scan of every stored cell, independent of
  // the instance index and the chunk filter the operator relies on.
  const Dimension& d = schema_out.dimension(varying_dim);
  const int param_dim = schema_out.parameter_of(varying_dim);
  for (const NewMemberSpec& spec : specs) {
    if (spec.inner || spec.seed == NewMemberSpec::Seed::kNone ||
        spec.factor == 0.0) {
      continue;
    }
    Result<MemberId> source = d.FindMember(spec.source);
    Result<MemberId> target = d.FindMember(spec.name);
    Result<MemberId> parent = d.FindMember(spec.parent);
    if (!source.ok() || !target.ok() || !parent.ok()) {
      return Status::NotFound("introduce spec '" + spec.name +
                              "' names a member the output schema lacks");
    }
    const InstanceId dst = d.FindInstance(*target, *parent);
    if (dst == kInvalidInstance) {
      return Status::NotFound("introduced member '" + spec.name +
                              "' has no instance in the output schema");
    }

    // Collect first (mutating while iterating is unsound), then apply in
    // coordinate order.
    std::vector<std::pair<std::vector<int>, double>> moves;
    out.ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
      const MemberInstance& inst = d.instance(coords[varying_dim]);
      if (inst.member != *source) return;
      const int t = coords[param_dim];
      if (t < spec.from_moment || !inst.validity.Test(t)) return;
      moves.emplace_back(coords, v.value());
    });
    std::sort(moves.begin(), moves.end());
    const bool transfer = spec.seed == NewMemberSpec::Seed::kTransfer;
    int64_t seeded = 0;
    std::vector<int> dst_coords;
    for (const auto& [coords, value] : moves) {
      if (transfer) {
        out.SetCell(coords, CellValue(value * (1.0 - spec.factor)));
        ++seeded;
      }
      dst_coords = coords;
      dst_coords[varying_dim] = dst;
      out.SetCell(dst_coords, CellValue(value * spec.factor));
      ++seeded;
    }
    if (cells_seeded != nullptr) *cells_seeded += seeded;
  }
  return out;
}

// --- Selection (Definition 4.1) --------------------------------------------

void ClearSlice(Cube* cube, int dim, int pos) {
  std::vector<std::vector<int>> slice;
  cube->ForEachChunkCell([&](const std::vector<int>& coords, CellValue) {
    if (coords[dim] == pos) slice.push_back(coords);
  });
  for (const std::vector<int>& coords : slice) {
    cube->SetCell(coords, CellValue::Null());
  }
}

Cube Select(const Cube& in, int dim, const std::function<bool(int)>& keep) {
  Cube out = in;
  const int n_positions = in.schema().dimension(dim).num_positions();
  for (int pos = 0; pos < n_positions; ++pos) {
    if (!keep(pos)) ClearSlice(&out, dim, pos);
  }
  return out;
}

std::vector<bool> KeepMemberEquals(const Cube& in, int dim, MemberId m) {
  const Dimension& d = in.schema().dimension(dim);
  std::vector<bool> keep(d.num_positions(), false);
  for (int pos = 0; pos < d.num_positions(); ++pos) {
    keep[pos] = d.PositionMember(pos) == m;
  }
  return keep;
}

std::vector<bool> KeepDescendantOf(const Cube& in, int dim, MemberId ancestor) {
  const Dimension& d = in.schema().dimension(dim);
  std::vector<bool> keep(d.num_positions(), false);
  for (int pos : in.PositionsUnder(dim, AxisRef::OfMember(ancestor))) {
    keep[pos] = true;
  }
  return keep;
}

std::vector<bool> KeepValidityOverlaps(const Cube& in, int dim,
                                       const DynamicBitset& moments) {
  const Dimension& d = in.schema().dimension(dim);
  std::vector<bool> keep(d.num_positions(), true);
  if (!d.is_varying()) return keep;  // Non-varying: implicitly always valid.
  for (const MemberInstance& inst : d.instances()) {
    keep[inst.id] = !inst.validity.DisjointWith(moments);
  }
  return keep;
}

std::vector<bool> KeepWhereAnyValue(const Cube& in, int dim,
                                    const std::function<bool(double)>& pred) {
  std::vector<bool> keep(in.schema().dimension(dim).num_positions(), false);
  in.ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
    if (!keep[coords[dim]] && pred(v.value())) keep[coords[dim]] = true;
  });
  return keep;
}

}  // namespace olap
