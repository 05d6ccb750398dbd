#include "agg/rollup.h"

#include "cube/chunk.h"
#include "cube/chunk_layout.h"

namespace olap {

namespace {

// Visits every cell of the cross product described by `scope_sizes` (an
// odometer over the outer dimensions with the LAST dimension innermost,
// matching the naive nested loop). The inner loop resolves the chunk
// pointer once per run of innermost positions falling inside the same
// chunk instead of once per cell: for a fixed outer tuple, the chunk id
// and in-chunk offset decompose into an outer prefix (folded once) plus
// the innermost dimension's contribution. Cells are visited in exactly
// the naive order, so callers' floating-point summation order — and thus
// the result — is unchanged.
//
// pos(d, i) returns the axis position of scope entry i along dimension d;
// on_outer(idx) fires once per outer tuple (before its inner run);
// on_cell(i, chunk, off) receives the innermost scope index plus the chunk
// pointer (nullptr for a missing chunk — the cell is ⊥) and the in-chunk
// offset, so callers read through Chunk::IsNull/ValueAt with no per-cell
// CellValue round-trip.
template <typename GetPos, typename OnOuter, typename OnCell>
void ForEachScopeCellChunked(const Cube& data,
                             const std::vector<int>& scope_sizes,
                             const GetPos& pos, const OnOuter& on_outer,
                             const OnCell& on_cell) {
  const int n = static_cast<int>(scope_sizes.size());
  const ChunkLayout& layout = data.layout();
  const std::vector<int>& csize = layout.chunk_sizes();
  const std::vector<int>& cpd = layout.chunks_per_dim();
  const int last = n - 1;
  std::vector<int> idx(n, 0);
  while (true) {
    int64_t id_outer = 0;
    int64_t off_outer = 0;
    for (int d = 0; d < last; ++d) {
      const int p = pos(d, idx[d]);
      id_outer = id_outer * cpd[d] + p / csize[d];
      off_outer = off_outer * csize[d] + p % csize[d];
    }
    on_outer(idx);
    const Chunk* chunk = nullptr;
    int64_t chunk_along_last = -1;
    for (int i = 0; i < scope_sizes[last]; ++i) {
      const int p = pos(last, i);
      const int64_t c = p / csize[last];
      if (c != chunk_along_last) {
        chunk_along_last = c;
        chunk = data.FindChunk(id_outer * cpd[last] + c);
      }
      on_cell(i, chunk, off_outer * csize[last] + p % csize[last]);
    }
    int d = last - 1;
    while (d >= 0) {
      if (++idx[d] < scope_sizes[d]) break;
      idx[d] = 0;
      --d;
    }
    if (d < 0) break;
  }
}

}  // namespace

CellValue SumOverScope(const Cube& data,
                       const std::vector<std::vector<int>>& positions) {
  const int n = static_cast<int>(positions.size());
  for (const std::vector<int>& p : positions) {
    if (p.empty()) return CellValue::Null();
  }
  if (n == 0) return data.GetCell({});
  std::vector<int> sizes(n);
  for (int d = 0; d < n; ++d) sizes[d] = static_cast<int>(positions[d].size());
  CellValue sum;  // ⊥ until a non-⊥ input arrives.
  ForEachScopeCellChunked(
      data, sizes, [&](int d, int i) { return positions[d][i]; },
      [](const std::vector<int>&) {},
      [&](int, const Chunk* chunk, int64_t off) {
        if (chunk != nullptr && !chunk->IsNull(off)) {
          sum += CellValue(chunk->ValueAt(off));
        }
      });
  return sum;
}

CellValue SumOverScopeWeighted(
    const Cube& data,
    const std::vector<std::vector<std::pair<int, double>>>& positions) {
  const int n = static_cast<int>(positions.size());
  for (const auto& p : positions) {
    if (p.empty()) return CellValue::Null();
  }
  if (n == 0) return data.GetCell({});
  std::vector<int> sizes(n);
  for (int d = 0; d < n; ++d) sizes[d] = static_cast<int>(positions[d].size());
  CellValue sum;  // ⊥ until a non-⊥ input arrives.
  double outer_weight = 1.0;
  ForEachScopeCellChunked(
      data, sizes, [&](int d, int i) { return positions[d][i].first; },
      [&](const std::vector<int>& idx) {
        // Left-to-right product over the outer dimensions, so that
        // outer_weight * w_last reproduces the naive loop's weight exactly.
        outer_weight = 1.0;
        for (int d = 0; d + 1 < n; ++d) {
          outer_weight *= positions[d][idx[d]].second;
        }
      },
      [&](int i, const Chunk* chunk, int64_t off) {
        if (chunk != nullptr && !chunk->IsNull(off)) {
          sum += CellValue(chunk->ValueAt(off) *
                           (outer_weight * positions[n - 1][i].second));
        }
      });
  return sum;
}

CellValue RollUpCell(const Cube& data, const CellRef& ref) {
  std::vector<std::vector<std::pair<int, double>>> positions(data.num_dims());
  for (int d = 0; d < data.num_dims(); ++d) {
    positions[d] = data.PositionsUnderWeighted(d, ref[d]);
  }
  return SumOverScopeWeighted(data, positions);
}

}  // namespace olap
