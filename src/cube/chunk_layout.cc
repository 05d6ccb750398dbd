#include "cube/chunk_layout.h"

#include <algorithm>
#include <cassert>

namespace olap {

ChunkLayout::ChunkLayout(std::vector<int> extents, std::vector<int> chunk_sizes)
    : extents_(std::move(extents)), chunk_sizes_(std::move(chunk_sizes)) {
  assert(extents_.size() == chunk_sizes_.size());
  chunks_per_dim_.resize(extents_.size());
  num_chunks_ = 1;
  cells_per_chunk_ = 1;
  for (size_t d = 0; d < extents_.size(); ++d) {
    assert(extents_[d] > 0);
    chunk_sizes_[d] = std::clamp(chunk_sizes_[d], 1, extents_[d]);
    chunks_per_dim_[d] = (extents_[d] + chunk_sizes_[d] - 1) / chunk_sizes_[d];
    num_chunks_ *= chunks_per_dim_[d];
    cells_per_chunk_ *= chunk_sizes_[d];
  }
}

ChunkLayout ChunkLayout::Uniform(std::vector<int> extents, int chunk_size) {
  std::vector<int> sizes(extents.size(), chunk_size);
  return ChunkLayout(std::move(extents), std::move(sizes));
}

int64_t ChunkLayout::num_cells() const {
  int64_t n = 1;
  for (int e : extents_) n *= e;
  return n;
}

ChunkId ChunkLayout::ChunkOf(const std::vector<int>& coords) const {
  assert(static_cast<int>(coords.size()) == num_dims());
  ChunkId id = 0;
  for (int d = 0; d < num_dims(); ++d) {
    assert(coords[d] >= 0 && coords[d] < extents_[d]);
    id = id * chunks_per_dim_[d] + coords[d] / chunk_sizes_[d];
  }
  return id;
}

int64_t ChunkLayout::OffsetInChunk(const std::vector<int>& coords) const {
  int64_t off = 0;
  for (int d = 0; d < num_dims(); ++d) {
    off = off * chunk_sizes_[d] + coords[d] % chunk_sizes_[d];
  }
  return off;
}

std::vector<int> ChunkLayout::ChunkCoords(ChunkId id) const {
  std::vector<int> cc(num_dims());
  for (int d = num_dims() - 1; d >= 0; --d) {
    cc[d] = static_cast<int>(id % chunks_per_dim_[d]);
    id /= chunks_per_dim_[d];
  }
  return cc;
}

ChunkId ChunkLayout::ChunkIdAt(const std::vector<int>& chunk_coords) const {
  ChunkId id = 0;
  for (int d = 0; d < num_dims(); ++d) {
    assert(chunk_coords[d] >= 0 && chunk_coords[d] < chunks_per_dim_[d]);
    id = id * chunks_per_dim_[d] + chunk_coords[d];
  }
  return id;
}

std::vector<int> ChunkLayout::ChunkBase(ChunkId id) const {
  std::vector<int> cc = ChunkCoords(id);
  for (int d = 0; d < num_dims(); ++d) cc[d] *= chunk_sizes_[d];
  return cc;
}

int ChunkLayout::ChunkCoord(ChunkId id, int dim) const {
  assert(dim >= 0 && dim < num_dims());
  for (int d = num_dims() - 1; d > dim; --d) id /= chunks_per_dim_[d];
  return static_cast<int>(id % chunks_per_dim_[dim]);
}

}  // namespace olap
