#include "cube/cube.h"

#include <cassert>

#include "common/strings.h"

namespace olap {

Cube::Cube(Schema schema, const CubeOptions& options) : schema_(std::move(schema)) {
  std::vector<int> extents = schema_.PositionExtents();
  std::vector<int> sizes = options.chunk_sizes;
  if (sizes.empty()) {
    sizes.assign(extents.size(), options.chunk_size);
  }
  assert(sizes.size() == extents.size());
  layout_ = ChunkLayout(std::move(extents), std::move(sizes));
}

CellValue Cube::GetCell(const std::vector<int>& coords) const {
  const Chunk* chunk = FindChunk(layout_.ChunkOf(coords));
  if (chunk == nullptr) return CellValue::Null();
  return chunk->Get(layout_.OffsetInChunk(coords));
}

void Cube::SetCell(const std::vector<int>& coords, CellValue v) {
  ChunkId id = layout_.ChunkOf(coords);
  if (v.is_null() && !HasChunk(id)) return;  // Writing ⊥ to a hole: no-op.
  GetOrCreateChunk(id)->Set(layout_.OffsetInChunk(coords), v);
}

Status Cube::ResolveOneCoord(int dim, const std::string& path_name, int* out) const {
  const Dimension& d = schema_.dimension(dim);
  if (d.is_varying()) {
    // Accept "FTE/Joe" (specific instance) or "Joe" when unambiguous.
    std::vector<std::string> parts = Split(path_name, '/');
    Result<MemberId> leaf = d.FindMember(parts.back());
    if (!leaf.ok()) return leaf.status();
    if (parts.size() >= 2) {
      Result<MemberId> parent = d.FindMember(parts[parts.size() - 2]);
      if (!parent.ok()) return parent.status();
      InstanceId inst = d.FindInstance(*leaf, *parent);
      if (inst == kInvalidInstance) {
        return Status::NotFound("no instance '" + path_name + "' in dimension '" +
                                d.name() + "'");
      }
      *out = inst;
      return Status::Ok();
    }
    std::vector<InstanceId> insts = d.InstancesOf(*leaf);
    if (insts.size() != 1) {
      return Status::InvalidArgument(
          "member '" + path_name + "' has " + std::to_string(insts.size()) +
          " instances; qualify it as Parent/Member");
    }
    *out = insts[0];
    return Status::Ok();
  }
  Result<MemberId> m = d.FindMember(path_name);
  if (!m.ok()) return m.status();
  int ordinal = d.LeafOrdinal(*m);
  if (ordinal < 0) {
    return Status::InvalidArgument("member '" + path_name +
                                   "' is not a leaf of dimension '" + d.name() + "'");
  }
  *out = ordinal;
  return Status::Ok();
}

Result<std::vector<int>> Cube::ResolveCoords(
    const std::vector<std::string>& path_names) const {
  if (static_cast<int>(path_names.size()) != num_dims()) {
    return Status::InvalidArgument("expected one coordinate per dimension");
  }
  std::vector<int> coords(num_dims());
  for (int d = 0; d < num_dims(); ++d) {
    OLAP_RETURN_IF_ERROR(ResolveOneCoord(d, path_names[d], &coords[d]));
  }
  return coords;
}

Status Cube::SetByName(const std::vector<std::string>& path_names, CellValue v) {
  Result<std::vector<int>> coords = ResolveCoords(path_names);
  if (!coords.ok()) return coords.status();
  SetCell(*coords, v);
  return Status::Ok();
}

Result<CellValue> Cube::GetByName(const std::vector<std::string>& path_names) const {
  Result<std::vector<int>> coords = ResolveCoords(path_names);
  if (!coords.ok()) return coords.status();
  return GetCell(*coords);
}

std::vector<int> Cube::PositionsUnder(int dim, const AxisRef& ref) const {
  const Dimension& d = schema_.dimension(dim);
  std::vector<int> out;
  if (d.is_varying()) {
    if (ref.instance != kInvalidInstance) {
      out.push_back(ref.instance);
      return out;
    }
    const Member& m = d.member(ref.member);
    if (m.is_leaf()) {
      for (InstanceId i : d.InstancesOf(ref.member)) out.push_back(i);
      return out;
    }
    for (const MemberInstance& inst : d.instances()) {
      // An instance lies under a non-leaf member when its path parent is a
      // descendant (or self) of that member.
      if (d.IsDescendantOrSelf(inst.parent, ref.member)) out.push_back(inst.id);
    }
    return out;
  }
  for (MemberId leaf : d.LeavesUnder(ref.member)) {
    out.push_back(d.LeafOrdinal(leaf));
  }
  return out;
}

std::vector<std::pair<int, double>> Cube::PositionsUnderWeighted(
    int dim, const AxisRef& ref) const {
  const Dimension& d = schema_.dimension(dim);
  std::vector<std::pair<int, double>> out;
  if (d.is_varying()) {
    if (ref.instance != kInvalidInstance) {
      out.emplace_back(ref.instance, 1.0);
      return out;
    }
    const Member& m = d.member(ref.member);
    if (m.is_leaf()) {
      for (InstanceId i : d.InstancesOf(ref.member)) out.emplace_back(i, 1.0);
      return out;
    }
    for (const MemberInstance& inst : d.instances()) {
      if (!d.IsDescendantOrSelf(inst.parent, ref.member)) continue;
      double weight = d.member(inst.member).weight *
                      d.PathWeight(inst.parent, ref.member);
      if (weight != 0.0) out.emplace_back(inst.id, weight);
    }
    return out;
  }
  for (MemberId leaf : d.LeavesUnder(ref.member)) {
    double weight = leaf == ref.member ? 1.0 : d.PathWeight(leaf, ref.member);
    if (weight != 0.0) out.emplace_back(d.LeafOrdinal(leaf), weight);
  }
  return out;
}

bool Cube::IsLeafRef(const CellRef& ref, std::vector<int>* coords) const {
  coords->resize(num_dims());
  for (int dim = 0; dim < num_dims(); ++dim) {
    const Dimension& d = schema_.dimension(dim);
    const AxisRef& r = ref[dim];
    if (d.is_varying()) {
      if (r.instance != kInvalidInstance) {
        (*coords)[dim] = r.instance;
        continue;
      }
      if (!d.member(r.member).is_leaf()) return false;
      std::vector<InstanceId> insts = d.InstancesOf(r.member);
      if (insts.size() != 1) return false;
      (*coords)[dim] = insts[0];
      continue;
    }
    int ordinal = d.LeafOrdinal(r.member);
    if (ordinal < 0) return false;
    (*coords)[dim] = ordinal;
  }
  return true;
}

int64_t Cube::CountNonNullCells() const {
  int64_t n = 0;
  for (const auto& [id, chunk] : chunks_) n += chunk.CountNonNull();
  return n;
}

const Chunk* Cube::FindChunk(ChunkId id) const {
  auto it = chunks_.find(id);
  return it == chunks_.end() ? nullptr : &it->second;
}

void Cube::EraseChunk(ChunkId id) { chunks_.erase(id); }

void Cube::AdoptChunks(std::map<ChunkId, Chunk>&& m) {
#ifndef NDEBUG
  for (const auto& [id, chunk] : m) {
    (void)id;
    assert(chunk.size() == layout_.cells_per_chunk());
  }
#endif
  if (chunks_.empty()) {
    chunks_ = std::move(m);
    m.clear();  // Moved-from maps are valid but unspecified.
    return;
  }
  // Hinted node splice: incoming ids ascend, so inserting each node just
  // after the previous one's position is amortized O(1) when the incoming
  // range lands in a gap; a stale hint only costs the usual O(log n).
  auto hint = chunks_.end();
  while (!m.empty()) {
    auto nh = m.extract(m.begin());
    auto it = chunks_.insert(hint, std::move(nh));
    if (!nh.empty()) {
      // Id already stored: merge the non-⊥ cells instead.
      it->second.MergeNonNullFrom(nh.mapped());
    }
    hint = std::next(it);
  }
}

Chunk* Cube::GetOrCreateChunk(ChunkId id) {
  auto it = chunks_.find(id);
  if (it == chunks_.end()) {
    it = chunks_.emplace(id, Chunk(layout_.cells_per_chunk())).first;
  }
  return &it->second;
}

void Cube::ForEachChunk(
    const std::function<void(ChunkId, const Chunk&)>& fn) const {
  for (const auto& [id, chunk] : chunks_) fn(id, chunk);
}

void Cube::ForEachCell(
    const std::function<void(const std::vector<int>&, CellValue)>& fn) const {
  for (const auto& [id, chunk] : chunks_) {
    layout_.ForEachCellInChunk(id, [&](const std::vector<int>& coords, int64_t off) {
      if (!chunk.IsNull(off)) fn(coords, CellValue(chunk.ValueAt(off)));
    });
  }
}

}  // namespace olap
