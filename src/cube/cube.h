#ifndef OLAP_CUBE_CUBE_H_
#define OLAP_CUBE_CUBE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "cube/chunk.h"
#include "cube/chunk_layout.h"
#include "dimension/schema.h"

namespace olap {

// A query-level coordinate along one dimension: a member (possibly non-leaf),
// optionally pinned to a specific member instance of a varying dimension.
// The paper treats members and member instances uniformly (end of Sec. 3.2);
// AxisRef is how the engine does the same.
struct AxisRef {
  MemberId member = kInvalidMember;
  InstanceId instance = kInvalidInstance;

  static AxisRef OfMember(MemberId m) { return AxisRef{m, kInvalidInstance}; }
  static AxisRef OfInstance(MemberId m, InstanceId i) { return AxisRef{m, i}; }

  // False for a coordinate from a wider schema than `d`'s: a member
  // INTRODUCE added, or an instance a Split created.
  bool In(const Dimension& d) const {
    return member >= 0 && member < d.num_members() &&
           (instance == kInvalidInstance || instance < d.num_instances());
  }

  friend bool operator==(const AxisRef& a, const AxisRef& b) {
    return a.member == b.member && a.instance == b.instance;
  }
};

// One coordinate per dimension, in schema dimension order.
using CellRef = std::vector<AxisRef>;

// Options controlling a cube's physical organization.
struct CubeOptions {
  // Tile size used along every dimension (clamped per dimension).
  int chunk_size = 4;
  // Per-dimension override; when non-empty it must match the schema rank.
  std::vector<int> chunk_sizes;
};

// An n-dimensional cube: a Schema plus chunked leaf-cell storage.
//
// Only *leaf cells* (one leaf/instance position per dimension) are stored;
// non-leaf cells are derived via rules (the paper's standing assumption in
// Sec. 2: "all leaf level cells are base and all non-leaf cells are
// derived"). Aggregation/rules evaluation lives in olap_rules / olap_agg.
//
// The cube is a value type: what-if operators produce transformed copies.
class Cube {
 public:
  // An empty, zero-dimensional cube (placeholder; not usable for data).
  Cube() = default;
  Cube(Schema schema, const CubeOptions& options = CubeOptions());


  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }
  const ChunkLayout& layout() const { return layout_; }
  int num_dims() const { return schema_.num_dimensions(); }

  // --- Leaf-cell access (by position coordinates) -----------------------

  // `coords[d]` is an axis position of dimension d (instance index for a
  // varying dimension, leaf ordinal otherwise).
  CellValue GetCell(const std::vector<int>& coords) const;
  void SetCell(const std::vector<int>& coords, CellValue v);

  // --- Leaf-cell access (by member names, for tests/examples) ------------

  // Each entry of `path_names` addresses dimension d: either a plain leaf
  // member name ("Jan") or an instance path "FTE/Joe" for varying
  // dimensions.
  Result<std::vector<int>> ResolveCoords(
      const std::vector<std::string>& path_names) const;
  Status SetByName(const std::vector<std::string>& path_names, CellValue v);
  Result<CellValue> GetByName(const std::vector<std::string>& path_names) const;

  // --- Scope resolution ----------------------------------------------------

  // Axis positions of dimension `dim` covered by `ref`:
  //  * a pinned instance        -> that single position;
  //  * a leaf member            -> all its instances (varying) or its leaf
  //                                ordinal (regular);
  //  * a non-leaf member        -> every position whose root-to-leaf path
  //                                passes through it.
  std::vector<int> PositionsUnder(int dim, const AxisRef& ref) const;

  // As PositionsUnder, but each position carries its consolidation weight:
  // the product of Member::weight along the path from the ref's member
  // (exclusive) down to the position's leaf (inclusive). Pinned instances
  // and leaf refs weigh 1.0. Zero-weight (~) positions are omitted.
  std::vector<std::pair<int, double>> PositionsUnderWeighted(
      int dim, const AxisRef& ref) const;

  // True when every AxisRef in `ref` resolves to exactly one position;
  // fills `coords` with those positions.
  bool IsLeafRef(const CellRef& ref, std::vector<int>* coords) const;

  // --- Chunk-level access (used by aggregation / what-if evaluation) ------

  // Number of chunks that currently hold at least one written cell.
  int64_t NumStoredChunks() const { return static_cast<int64_t>(chunks_.size()); }
  // Total non-⊥ cells across stored chunks.
  int64_t CountNonNullCells() const;

  bool HasChunk(ChunkId id) const { return chunks_.count(id) > 0; }
  // Read-only chunk pointer, or nullptr when the chunk holds no data.
  const Chunk* FindChunk(ChunkId id) const;
  // Chunk for writing, created empty (all-⊥) on first touch.
  Chunk* GetOrCreateChunk(ChunkId id);

  // Splices every fully built chunk of `m` into this cube without
  // reallocating map nodes; ids already stored instead merge their non-⊥
  // cells into the existing chunk (⊥-skipping overwrite). `m` is left
  // empty. Every chunk must match the layout's cells_per_chunk. Used by the
  // parallel what-if kernels to merge per-task partial outputs.
  void AdoptChunks(std::map<ChunkId, Chunk>&& m);

  // Drops the chunk stored under `id` (no-op when absent); every cell of
  // that chunk reads ⊥ afterwards.
  void EraseChunk(ChunkId id);

  // Iterates stored chunks in ascending chunk-id order.
  void ForEachChunk(
      const std::function<void(ChunkId, const Chunk&)>& fn) const;

  // As ForEachChunk, but stops as soon as `fn` returns false. Templated so
  // hot callers (e.g. early-exiting selection predicates) pay no
  // std::function dispatch.
  template <typename Fn>
  void ForEachChunkWhile(Fn&& fn) const {
    for (const auto& [id, chunk] : chunks_) {
      if (!fn(id, chunk)) return;
    }
  }

  // Iterates every non-⊥ stored cell: fn(coords, value).
  void ForEachCell(
      const std::function<void(const std::vector<int>&, CellValue)>& fn) const;

  // Templated equivalent of ForEachCell for hot paths: identical visit
  // order (ascending chunk id, row-major within each chunk), but the
  // callback is inlined instead of dispatched through std::function.
  template <typename Fn>
  void ForEachChunkCell(Fn&& fn) const {
    for (const auto& [id, chunk] : chunks_) {
      layout_.ForEachCellInChunk(id,
                                 [&](const std::vector<int>& coords, int64_t off) {
                                   // Cheap bitmap test before building the
                                   // CellValue — most padded/⊥ cells exit here.
                                   if (!chunk.IsNull(off)) {
                                     fn(coords, CellValue(chunk.ValueAt(off)));
                                   }
                                 });
    }
  }

 private:
  Status ResolveOneCoord(int dim, const std::string& path_name, int* out) const;

  Schema schema_;
  ChunkLayout layout_;
  std::map<ChunkId, Chunk> chunks_;  // Ordered => deterministic iteration.
};

}  // namespace olap

#endif  // OLAP_CUBE_CUBE_H_
