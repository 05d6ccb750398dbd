#ifndef OLAP_CUBE_CHUNK_LAYOUT_H_
#define OLAP_CUBE_CHUNK_LAYOUT_H_

#include <cstdint>
#include <vector>

namespace olap {

// Identifies one chunk (tile) of the multidimensional array. Chunk ids are
// row-major over the chunk grid, with the LAST dimension varying fastest —
// matching the numbering convention of Zhao et al.'s Fig. 6 as reproduced in
// the paper (chunks are read "in some dimension order").
using ChunkId = int64_t;

// Partitioning of an n-dimensional array of extents[i] positions per
// dimension into uniform tiles of chunk_sizes[i] cells per dimension
// (edge chunks are padded — cells beyond the extent simply stay ⊥).
//
// This is the physical organization of both the paper's cubes and the
// Zhao et al. SIGMOD'97 algorithm the evaluation strategies build on.
class ChunkLayout {
 public:
  ChunkLayout() = default;
  // `chunk_sizes` must have the same rank as `extents`; each entry is
  // clamped to [1, extent].
  ChunkLayout(std::vector<int> extents, std::vector<int> chunk_sizes);

  // Uniform-chunk-size convenience constructor.
  static ChunkLayout Uniform(std::vector<int> extents, int chunk_size);

  int num_dims() const { return static_cast<int>(extents_.size()); }
  const std::vector<int>& extents() const { return extents_; }
  const std::vector<int>& chunk_sizes() const { return chunk_sizes_; }
  // Number of chunks along each dimension.
  const std::vector<int>& chunks_per_dim() const { return chunks_per_dim_; }

  // Total number of chunks in the grid.
  int64_t num_chunks() const { return num_chunks_; }
  // Cells per (padded) chunk.
  int64_t cells_per_chunk() const { return cells_per_chunk_; }
  // Total number of addressable cells (product of extents).
  int64_t num_cells() const;

  // Chunk containing the cell at `coords` (one position per dimension).
  ChunkId ChunkOf(const std::vector<int>& coords) const;
  // Row-major offset of the cell inside its chunk.
  int64_t OffsetInChunk(const std::vector<int>& coords) const;

  // Chunk-grid coordinates of a chunk id and back.
  std::vector<int> ChunkCoords(ChunkId id) const;
  // ChunkCoords(id)[dim], without building the vector.
  int ChunkCoord(ChunkId id, int dim) const;
  ChunkId ChunkIdAt(const std::vector<int>& chunk_coords) const;

  // First cell coordinate covered by the chunk, per dimension.
  std::vector<int> ChunkBase(ChunkId id) const;

  // Iterates all cell coords inside chunk `id` that fall within the array
  // extents, invoking fn(cell_coords, offset_in_chunk).
  template <typename Fn>
  void ForEachCellInChunk(ChunkId id, Fn&& fn) const {
    std::vector<int> base = ChunkBase(id);
    std::vector<int> coords = base;
    const int n = num_dims();
    while (true) {
      bool in_range = true;
      for (int d = 0; d < n; ++d) {
        if (coords[d] >= extents_[d]) {
          in_range = false;
          break;
        }
      }
      if (in_range) fn(coords, OffsetInChunk(coords));
      // Odometer increment within the chunk box.
      int d = n - 1;
      while (d >= 0) {
        ++coords[d];
        if (coords[d] < base[d] + chunk_sizes_[d]) break;
        coords[d] = base[d];
        --d;
      }
      if (d < 0) return;
    }
  }

 private:
  std::vector<int> extents_;
  std::vector<int> chunk_sizes_;
  std::vector<int> chunks_per_dim_;
  int64_t num_chunks_ = 0;
  int64_t cells_per_chunk_ = 0;
};

}  // namespace olap

#endif  // OLAP_CUBE_CHUNK_LAYOUT_H_
