#include "cube/cube.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/operator_oracles.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

TEST(CubeTest, GetOnEmptyCubeIsNull) {
  PaperExample ex = BuildPaperExample();
  Cube cube(ex.cube.schema());  // Fresh, empty.
  EXPECT_TRUE(cube.GetCell({0, 0, 0, 0}).is_null());
  EXPECT_EQ(cube.NumStoredChunks(), 0);
}

TEST(CubeTest, SetGetRoundTrip) {
  PaperExample ex = BuildPaperExample();
  Cube cube(ex.cube.schema());
  cube.SetCell({1, 2, 3, 0}, CellValue(42.0));
  EXPECT_EQ(cube.GetCell({1, 2, 3, 0}), CellValue(42.0));
  EXPECT_TRUE(cube.GetCell({1, 2, 3, 1}).is_null());
  EXPECT_EQ(cube.CountNonNullCells(), 1);
}

TEST(CubeTest, WritingNullToHoleDoesNotAllocate) {
  PaperExample ex = BuildPaperExample();
  Cube cube(ex.cube.schema());
  cube.SetCell({0, 0, 0, 0}, CellValue::Null());
  EXPECT_EQ(cube.NumStoredChunks(), 0);
  cube.SetCell({0, 0, 0, 0}, CellValue(1.0));
  EXPECT_EQ(cube.NumStoredChunks(), 1);
  cube.SetCell({0, 0, 0, 0}, CellValue::Null());
  EXPECT_EQ(cube.CountNonNullCells(), 0);
}

TEST(CubeTest, ResolveCoordsByName) {
  PaperExample ex = BuildPaperExample();
  Result<std::vector<int>> coords =
      ex.cube.ResolveCoords({"FTE/Joe", "NY", "Jan", "Salary"});
  ASSERT_TRUE(coords.ok());
  EXPECT_EQ((*coords)[0], ex.fte_joe);
  EXPECT_EQ(ex.cube.GetCell(*coords), CellValue(10.0));
}

TEST(CubeTest, ResolveCoordsRejectsAmbiguousInstance) {
  PaperExample ex = BuildPaperExample();
  // Joe has three instances; a bare "Joe" is ambiguous.
  Result<std::vector<int>> coords =
      ex.cube.ResolveCoords({"Joe", "NY", "Jan", "Salary"});
  EXPECT_EQ(coords.status().code(), StatusCode::kInvalidArgument);
  // Lisa has one instance; bare name works.
  EXPECT_TRUE(ex.cube.ResolveCoords({"Lisa", "NY", "Jan", "Salary"}).ok());
}

TEST(CubeTest, ResolveCoordsRejectsNonLeafAndUnknown) {
  PaperExample ex = BuildPaperExample();
  EXPECT_EQ(
      ex.cube.ResolveCoords({"Lisa", "East", "Jan", "Salary"}).status().code(),
      StatusCode::kInvalidArgument);  // East is not a leaf.
  EXPECT_EQ(
      ex.cube.ResolveCoords({"Lisa", "NY", "Jan", "Bonus"}).status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(ex.cube.ResolveCoords({"Lisa", "NY"}).status().code(),
            StatusCode::kInvalidArgument);  // Wrong rank.
}

TEST(CubeTest, GetByNameReadsPaperData) {
  PaperExample ex = BuildPaperExample();
  EXPECT_EQ(*ex.cube.GetByName({"Contractor/Joe", "NY", "Mar", "Salary"}),
            CellValue(30.0));
  EXPECT_EQ(*ex.cube.GetByName({"Lisa", "NY", "May", "Salary"}), CellValue(10.0));
  // Joe's May (no valid instance) and every MA cell are ⊥.
  EXPECT_TRUE(
      ex.cube.GetByName({"Contractor/Joe", "NY", "May", "Salary"})->is_null());
  EXPECT_TRUE(ex.cube.GetByName({"Lisa", "MA", "Jan", "Salary"})->is_null());
}

TEST(CubeTest, PositionsUnderNonVaryingDimension) {
  PaperExample ex = BuildPaperExample();
  const Schema& schema = ex.cube.schema();
  MemberId east = *schema.dimension(ex.location_dim).FindMember("East");
  std::vector<int> under =
      ex.cube.PositionsUnder(ex.location_dim, AxisRef::OfMember(east));
  EXPECT_EQ(under.size(), 3u);  // NY, MA, NH.
  MemberId ny = *schema.dimension(ex.location_dim).FindMember("NY");
  EXPECT_EQ(ex.cube.PositionsUnder(ex.location_dim, AxisRef::OfMember(ny)),
            std::vector<int>{0});
}

TEST(CubeTest, PositionsUnderVaryingDimension) {
  PaperExample ex = BuildPaperExample();
  // FTE covers FTE/Joe, FTE/Lisa, FTE/Sue (instances whose path parent lies
  // under FTE).
  std::vector<int> under_fte =
      ex.cube.PositionsUnder(ex.org_dim, AxisRef::OfMember(ex.fte));
  EXPECT_EQ(under_fte.size(), 3u);
  // Bare member Joe = all three instances.
  std::vector<int> joes =
      ex.cube.PositionsUnder(ex.org_dim, AxisRef::OfMember(ex.joe));
  EXPECT_EQ(joes.size(), 3u);
  // Pinned instance = exactly one position.
  std::vector<int> pinned = ex.cube.PositionsUnder(
      ex.org_dim, AxisRef::OfInstance(ex.joe, ex.pte_joe));
  EXPECT_EQ(pinned, std::vector<int>{ex.pte_joe});
  // The root covers every instance.
  MemberId root = ex.cube.schema().dimension(ex.org_dim).root();
  EXPECT_EQ(ex.cube.PositionsUnder(ex.org_dim, AxisRef::OfMember(root)).size(),
            static_cast<size_t>(
                ex.cube.schema().dimension(ex.org_dim).num_instances()));
}

TEST(CubeTest, IsLeafRef) {
  PaperExample ex = BuildPaperExample();
  const Schema& schema = ex.cube.schema();
  MemberId ny = *schema.dimension(ex.location_dim).FindMember("NY");
  MemberId jan = *schema.dimension(ex.time_dim).FindMember("Jan");
  MemberId salary = *schema.dimension(ex.measures_dim).FindMember("Salary");
  MemberId east = *schema.dimension(ex.location_dim).FindMember("East");

  std::vector<int> coords;
  CellRef leaf_ref = {AxisRef::OfInstance(ex.joe, ex.fte_joe),
                      AxisRef::OfMember(ny), AxisRef::OfMember(jan),
                      AxisRef::OfMember(salary)};
  EXPECT_TRUE(ex.cube.IsLeafRef(leaf_ref, &coords));
  EXPECT_EQ(coords[0], ex.fte_joe);

  CellRef agg_ref = leaf_ref;
  agg_ref[1] = AxisRef::OfMember(east);
  EXPECT_FALSE(ex.cube.IsLeafRef(agg_ref, &coords));

  // Bare multi-instance member is not a leaf ref; single-instance is.
  CellRef joe_ref = leaf_ref;
  joe_ref[0] = AxisRef::OfMember(ex.joe);
  EXPECT_FALSE(ex.cube.IsLeafRef(joe_ref, &coords));
  joe_ref[0] = AxisRef::OfMember(ex.lisa);
  EXPECT_TRUE(ex.cube.IsLeafRef(joe_ref, &coords));
}

TEST(CubeTest, ClearSlice) {
  PaperExample ex = BuildPaperExample();
  Cube cube = ex.cube;
  int64_t before = cube.CountNonNullCells();
  // Clear Lisa's slice (position = her single instance id).
  InstanceId lisa_inst =
      cube.schema().dimension(ex.org_dim).InstancesOf(ex.lisa)[0];
  ClearSlice(&cube, ex.org_dim, lisa_inst);
  EXPECT_EQ(cube.CountNonNullCells(), before - 6);  // Lisa had 6 months.
  EXPECT_TRUE(cube.GetByName({"Lisa", "NY", "Jan", "Salary"})->is_null());
  // Other members untouched.
  EXPECT_EQ(*cube.GetByName({"Tom", "NY", "Jan", "Salary"}), CellValue(10.0));
}

TEST(CubeTest, ForEachCellVisitsAllNonNull) {
  PaperExample ex = BuildPaperExample();
  int64_t count = 0;
  CellValue sum;
  ex.cube.ForEachCell([&](const std::vector<int>& coords, CellValue v) {
    EXPECT_EQ(coords.size(), 4u);
    EXPECT_FALSE(v.is_null());
    ++count;
    sum += v;
  });
  EXPECT_EQ(count, ex.cube.CountNonNullCells());
  // 3 everywhere-active employees * 6 months * 10 + Joe's {10,10,30,10,10}.
  EXPECT_EQ(sum, CellValue(3 * 6 * 10 + 70.0));
}

// Full row-major sweep across every chunk boundary: GetCell reads every
// stored cell exactly once and ⊥ from every hole.
TEST(CubeTest, GetCellSweepMatchesStoredCells) {
  PaperExample ex = BuildPaperExample();
  const Cube& cube = ex.cube;
  const std::vector<int>& ext = cube.layout().extents();
  ASSERT_EQ(ext.size(), 4u);
  CellValue stored_sum;
  cube.ForEachCell(
      [&](const std::vector<int>&, CellValue v) { stored_sum += v; });
  std::vector<int> c(4, 0);
  int64_t cells = 0, non_null = 0;
  CellValue swept_sum;
  for (c[0] = 0; c[0] < ext[0]; ++c[0]) {
    for (c[1] = 0; c[1] < ext[1]; ++c[1]) {
      for (c[2] = 0; c[2] < ext[2]; ++c[2]) {
        for (c[3] = 0; c[3] < ext[3]; ++c[3]) {
          CellValue v = cube.GetCell(c);
          if (!v.is_null()) {
            swept_sum += v;
            ++non_null;
          }
          ++cells;
        }
      }
    }
  }
  EXPECT_GT(cells, 0);
  EXPECT_EQ(non_null, cube.CountNonNullCells());
  EXPECT_EQ(swept_sum, stored_sum);
}

TEST(CubeTest, GetCellSeesWritesCopiesAndMoves) {
  PaperExample ex = BuildPaperExample();
  Cube cube(ex.cube.schema());
  cube.SetCell({0, 0, 0, 0}, CellValue(1.0));
  EXPECT_EQ(cube.GetCell({0, 0, 0, 0}), CellValue(1.0));
  cube.SetCell({0, 0, 0, 0}, CellValue(2.0));
  EXPECT_EQ(cube.GetCell({0, 0, 0, 0}), CellValue(2.0));
  // A write that creates a *different* chunk leaves the first one intact.
  const std::vector<int>& ext = cube.layout().extents();
  std::vector<int> far = {ext[0] - 1, ext[1] - 1, ext[2] - 1, ext[3] - 1};
  cube.SetCell(far, CellValue(3.0));
  EXPECT_EQ(cube.GetCell(far), CellValue(3.0));
  EXPECT_EQ(cube.GetCell({0, 0, 0, 0}), CellValue(2.0));

  // Copies and moves read their own storage, not the source's.
  Cube copy = cube;
  EXPECT_EQ(copy.GetCell(far), CellValue(3.0));
  copy.SetCell(far, CellValue(4.0));
  EXPECT_EQ(copy.GetCell(far), CellValue(4.0));
  EXPECT_EQ(cube.GetCell(far), CellValue(3.0));

  Cube moved = std::move(copy);
  EXPECT_EQ(moved.GetCell(far), CellValue(4.0));
  EXPECT_EQ(moved.GetCell({0, 0, 0, 0}), CellValue(2.0));
}

// Writes and EraseChunk mutate a chunk a previous read touched: the next
// read must serve the new bytes, or ⊥ after an erase.
TEST(CubeTest, GetCellAfterReplaceAndEraseChunk) {
  PaperExample ex = BuildPaperExample();
  Cube cube(ex.cube.schema());
  cube.SetCell({0, 0, 0, 0}, CellValue(5.0));
  const ChunkId id = cube.layout().ChunkOf({0, 0, 0, 0});
  EXPECT_EQ(cube.GetCell({0, 0, 0, 0}), CellValue(5.0));

  // Overwrite the cell the read just served.
  cube.SetCell({0, 0, 0, 0}, CellValue(9.0));
  EXPECT_EQ(cube.GetCell({0, 0, 0, 0}), CellValue(9.0));

  // A write under an id with no stored chunk creates it.
  const std::vector<int>& ext = cube.layout().extents();
  std::vector<int> far = {ext[0] - 1, ext[1] - 1, ext[2] - 1, ext[3] - 1};
  const ChunkId far_id = cube.layout().ChunkOf(far);
  ASSERT_NE(far_id, id);
  ASSERT_FALSE(cube.HasChunk(far_id));
  cube.SetCell(far, CellValue(7.0));
  EXPECT_TRUE(cube.HasChunk(far_id));
  EXPECT_EQ(cube.GetCell(far), CellValue(7.0));

  // Erase after a read: every cell of the chunk reads ⊥.
  EXPECT_EQ(cube.GetCell({0, 0, 0, 0}), CellValue(9.0));
  cube.EraseChunk(id);
  EXPECT_FALSE(cube.HasChunk(id));
  EXPECT_TRUE(cube.GetCell({0, 0, 0, 0}).is_null());
  // The other chunk is untouched.
  EXPECT_EQ(cube.GetCell(far), CellValue(7.0));
  // Erasing an absent chunk is a no-op.
  cube.EraseChunk(id);
  EXPECT_TRUE(cube.GetCell({0, 0, 0, 0}).is_null());
}

}  // namespace
}  // namespace olap
