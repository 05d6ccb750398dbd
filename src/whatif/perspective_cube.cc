#include "whatif/perspective_cube.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "whatif/scenario_algebra.h"

namespace olap {

CellRouter::Target PerspectiveCube::Route(
    const CellRef& ref, const std::vector<int>* leaf_coords) const {
  if (leaf_coords != nullptr) {
    if (scoped_members_.empty()) return kOutput;
    const MemberId m = output().schema().dimension(varying_dim_).PositionMember(
        (*leaf_coords)[varying_dim_]);
    return scoped_members_.count(m) > 0 ? kOutput : kInput;
  }
  if (mode_ == EvalMode::kVisual) return kOutput;
  const Schema& in = input_->schema();
  for (int d = 0; d < in.num_dimensions(); ++d) {
    if (!ref[d].In(in.dimension(d))) return kOutput;
  }
  return kInput;
}

Result<PerspectiveCube> ComputePerspectiveCube(const Cube& in,
                                               const WhatIfSpec& spec,
                                               const ScenarioEvalOptions& opts) {
  return ComputeScenario(in, ScenarioSpec::FromWhatIf(spec), opts);
}

std::vector<ChunkId> RelevantChunks(const Cube& in, int varying_dim,
                                    const std::vector<MemberId>& scope_members) {
  std::vector<ChunkId> out;
  if (scope_members.empty()) {
    in.ForEachChunk([&](ChunkId id, const Chunk&) { out.push_back(id); });
    return out;
  }
  const Dimension& dim = in.schema().dimension(varying_dim);
  std::vector<bool> wanted(dim.num_positions(), false);
  std::unordered_set<MemberId> scope(scope_members.begin(), scope_members.end());
  for (const MemberInstance& inst : dim.instances()) {
    if (scope.count(inst.member) > 0) wanted[inst.id] = true;
  }
  const ChunkLayout& layout = in.layout();
  const int width = layout.chunk_sizes()[varying_dim];
  in.ForEachChunk([&](ChunkId id, const Chunk&) {
    int base = layout.ChunkBase(id)[varying_dim];
    for (int pos = base; pos < base + width && pos < dim.num_positions(); ++pos) {
      if (wanted[pos]) {
        out.push_back(id);
        return;
      }
    }
  });
  return out;
}

MergeResidency MergeResidencyForOrder(const Cube& in, int varying_dim,
                                      const std::vector<MemberId>& members,
                                      const std::vector<int>& dim_order) {
  MergeResidency out;
  MergeGraph graph = BuildMergeGraph(in, varying_dim, members);
  if (graph.num_nodes() == 0) return out;
  const ChunkLayout& layout = in.layout();

  // Traversal rank of each graph chunk when dim_order[0] varies fastest.
  std::vector<int64_t> stride(layout.num_dims());
  int64_t acc = 1;
  for (size_t pos = 0; pos < dim_order.size(); ++pos) {
    stride[dim_order[pos]] = acc;
    acc *= layout.chunks_per_dim()[dim_order[pos]];
  }
  std::vector<int64_t> rank(graph.num_nodes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    std::vector<int> cc = layout.ChunkCoords(graph.chunk(v));
    int64_t r = 0;
    for (int d = 0; d < layout.num_dims(); ++d) r += stride[d] * cc[d];
    rank[v] = r;
  }

  // A chunk is buffered from its own rank until the max rank among itself
  // and its merge partners.
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(graph.num_nodes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    int64_t release = rank[v];
    for (int w : graph.neighbors(v)) release = std::max(release, rank[w]);
    intervals.emplace_back(rank[v], release);
    out.buffer_steps += release - rank[v] + 1;
  }
  // Peak via an event sweep.
  std::vector<std::pair<int64_t, int>> events;
  events.reserve(intervals.size() * 2);
  for (const auto& [start, end] : intervals) {
    events.emplace_back(start, +1);
    events.emplace_back(end + 1, -1);
  }
  std::sort(events.begin(), events.end());
  int current = 0;
  for (const auto& [at, delta] : events) {
    (void)at;
    current += delta;
    out.peak_chunks = std::max(out.peak_chunks, current);
  }
  return out;
}

}  // namespace olap
