// What-if queries over cubes with several varying dimensions and over
// unordered parameter dimensions (Sec. 2 / Definition 2.1 / scenario S2).

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "support/naive_aggregator.h"
#include "workload/extended_examples.h"

namespace olap {
namespace {

// --- Multiple varying dimensions ------------------------------------------

class MultiVaryingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = BuildMultiVaryingExample();
    ASSERT_TRUE(db_.AddCube("Biz", ex_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  QueryResult MustExecute(const std::string& mdx) {
    Result<QueryResult> r = exec_->Execute(mdx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *std::move(r) : QueryResult{};
  }

  MultiVaryingExample ex_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(MultiVaryingTest, SchemaHasTwoVaryingDimensions) {
  EXPECT_EQ(ex_.cube.schema().VaryingDimensions(),
            (std::vector<int>{ex_.org_dim, ex_.product_dim}));
  // Joe has 2 org instances, Gizmo has 2 product instances.
  EXPECT_EQ(ex_.cube.schema().dimension(ex_.org_dim).InstancesOf(ex_.joe).size(),
            2u);
  EXPECT_EQ(
      ex_.cube.schema().dimension(ex_.product_dim).InstancesOf(ex_.gizmo).size(),
      2u);
}

TEST_F(MultiVaryingTest, SinglePerspectiveClauseTouchesOnlyItsDimension) {
  // Static {Jan} on Organization: PTE/Joe disappears, but Gizmo's two
  // product instances are untouched.
  QueryResult rows = MustExecute(
      "WITH PERSPECTIVE {(Jan)} FOR Organization STATIC "
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{CrossJoin({[Organization].[Joe]}, {[Product].[Gizmo]})} ON ROWS "
      "FROM Biz WHERE ([Revenue])");
  // Joe: only FTE/Joe survives; Gizmo keeps both instances.
  ASSERT_EQ(rows.grid.num_rows(), 2);
  EXPECT_EQ(rows.grid.row_labels()[0], "FTE/Joe, Hardware/Gizmo");
  EXPECT_EQ(rows.grid.row_labels()[1], "FTE/Joe, Services/Gizmo");
}

TEST_F(MultiVaryingTest, TwoPerspectiveClausesPipeline) {
  QueryResult r = MustExecute(
      "WITH PERSPECTIVE {(Jan)} FOR Organization STATIC "
      "     PERSPECTIVE {(Jan)} FOR Product STATIC "
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{CrossJoin({[Organization].[Joe]}, {[Product].[Gizmo]})} ON ROWS "
      "FROM Biz WHERE ([Revenue])");
  EXPECT_TRUE(r.used_whatif);
  // Both dimensions pruned to their January structures.
  ASSERT_EQ(r.grid.num_rows(), 1);
  EXPECT_EQ(r.grid.row_labels()[0], "FTE/Joe, Hardware/Gizmo");
  EXPECT_EQ(r.grid.at(0, 0), CellValue(1.0));
}

TEST_F(MultiVaryingTest, ForwardOnBothDimensionsVisual) {
  // Freeze January's org chart AND January's product bundling over the
  // whole year, then total revenue: every (employee, product) pair that
  // existed in January contributes 12 months.
  QueryResult r = MustExecute(
      "WITH PERSPECTIVE {(Jan)} FOR Organization DYNAMIC FORWARD VISUAL "
      "     PERSPECTIVE {(Jan)} FOR Product DYNAMIC FORWARD VISUAL "
      "SELECT {Measures.[Revenue]} ON COLUMNS, "
      "{CrossJoin({[FTE].[Joe]}, {[Hardware].[Gizmo]})} ON ROWS FROM Biz");
  ASSERT_EQ(r.grid.num_rows(), 1);
  // (Joe, Gizmo) data exists in every month (both always active somewhere),
  // relocated onto (FTE/Joe, Hardware/Gizmo) for all 12 months.
  EXPECT_EQ(r.grid.at(0, 0), CellValue(12.0));
}

TEST_F(MultiVaryingTest, PipelineStatsAccumulate) {
  Result<QueryResult> r = exec_->Execute(
      "WITH PERSPECTIVE {(Jan)} FOR Organization STATIC "
      "     PERSPECTIVE {(Jan)} FOR Product STATIC "
      "SELECT {Time.[Jan]} ON COLUMNS FROM Biz WHERE ([Revenue])");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->whatif_stats.passes, 2);  // One per stage.
}

// In a composed non-visual stack, a derived ref that names an INTRODUCE'd
// member reads the output, which alone holds the member: its row equals
// the VISUAL stack's.
TEST_F(MultiVaryingTest, ComposedNonVisualStackReadsIntroducedMembersOnItsOutput) {
  auto consulting_row = [&](const std::string& mode) {
    QueryResult r = MustExecute(
        "WITH INTRODUCE {([Consulting], [Organization]), "
        "([Ann], [Consulting], [Feb], CLONE [Joe] 1.0)} FOR Organization" +
        mode + " PERSPECTIVE {(Jan)} FOR Product STATIC" + mode +
        " SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[Consulting]} ON ROWS "
        "FROM Biz WHERE ([Revenue])");
    EXPECT_EQ(r.grid.num_rows(), 1);
    return r.grid.num_rows() == 1
               ? std::vector<CellValue>{r.grid.at(0, 0), r.grid.at(0, 1)}
               : std::vector<CellValue>{};
  };
  const std::vector<CellValue> non_visual = consulting_row("");
  const std::vector<CellValue> visual = consulting_row(" VISUAL");
  ASSERT_EQ(non_visual.size(), 2u);
  EXPECT_TRUE(non_visual[0].is_null());  // Before Ann's epoch.
  EXPECT_FALSE(non_visual[1].is_null());
  EXPECT_EQ(non_visual, visual);
}

TEST_F(MultiVaryingTest, DuplicatePerspectiveClauseRejected) {
  Result<QueryResult> r = exec_->Execute(
      "WITH PERSPECTIVE {(Jan)} FOR Organization STATIC "
      "     PERSPECTIVE {(Apr)} FOR Organization STATIC "
      "SELECT {Time.[Jan]} ON COLUMNS FROM Biz");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- Unordered parameter dimensions ----------------------------------------

class LocationVaryingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = BuildLocationVaryingExample();
    ASSERT_TRUE(db_.AddCube("Work", ex_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  LocationVaryingExample ex_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(LocationVaryingTest, LisaHasTwoInstancesByLocation) {
  const Dimension& org = ex_.cube.schema().dimension(ex_.org_dim);
  EXPECT_FALSE(org.parameter_is_ordered());
  ASSERT_NE(ex_.pte_lisa, kInvalidInstance);
  // FTE/Lisa valid in NY and CA, PTE/Lisa valid in MA.
  EXPECT_EQ(org.instance(ex_.fte_lisa).validity.ToVector(),
            (std::vector<int>{0, 2}));
  EXPECT_EQ(org.instance(ex_.pte_lisa).validity.ToVector(),
            (std::vector<int>{1}));
}

TEST_F(LocationVaryingTest, DataFollowsClassification) {
  // Lisa's MA hours live under PTE/Lisa; her NY hours under FTE/Lisa.
  EXPECT_EQ(*ex_.cube.GetByName({"PTE/Lisa", "MA", "Jan", "Hours"}),
            CellValue(8.0));
  EXPECT_TRUE(
      ex_.cube.GetByName({"FTE/Lisa", "MA", "Jan", "Hours"})->is_null());
  EXPECT_EQ(*ex_.cube.GetByName({"FTE/Lisa", "NY", "Jan", "Hours"}),
            CellValue(8.0));
}

TEST_F(LocationVaryingTest, StaticLocationPerspective) {
  // "Show the classification as it stands for work performed in MA":
  // only instances valid in MA stay active.
  Result<QueryResult> r = exec_->Execute(
      "WITH PERSPECTIVE {(MA)} FOR Organization STATIC "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Lisa]} ON ROWS "
      "FROM Work WHERE ([MA], [Hours])");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->grid.num_rows(), 1);
  EXPECT_EQ(r->grid.row_labels()[0], "PTE/Lisa");
  EXPECT_EQ(r->grid.at(0, 0), CellValue(8.0));
}

TEST_F(LocationVaryingTest, DynamicSemanticsRejectedForUnorderedParameter) {
  Result<QueryResult> r = exec_->Execute(
      "WITH PERSPECTIVE {(MA)} FOR Organization DYNAMIC FORWARD "
      "SELECT {Time.[Jan]} ON COLUMNS FROM Work");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LocationVaryingTest, SplitRejectedForUnorderedParameter) {
  ChangeRelation changes = {{ex_.lisa, ex_.fte, ex_.pte, 0}};
  EXPECT_EQ(Split(ex_.cube, ex_.org_dim, changes).status().code(),
            StatusCode::kFailedPrecondition);
}

// Scenario S2 via the API: what if FTE Lisa's MA work had been classified
// as FTE too? Apply a static {NY, CA, MA} perspective after hypothetically
// merging — here we instead check the aggregates both ways.
TEST_F(LocationVaryingTest, ClassificationDrivesAggregates) {
  const Schema& schema = ex_.cube.schema();
  CellRef ref(4);
  ref[ex_.org_dim] = AxisRef::OfMember(ex_.pte);
  ref[ex_.location_dim] =
      AxisRef::OfMember(*schema.dimension(ex_.location_dim).FindMember("East"));
  ref[ex_.time_dim] =
      AxisRef::OfMember(*schema.dimension(ex_.time_dim).FindMember("Jan"));
  ref[ex_.measures_dim] =
      AxisRef::OfMember(*schema.dimension(ex_.measures_dim).FindMember("Hours"));
  // PTE hours in the East in Jan: Tom (NY 8 + MA 8) + PTE/Lisa (MA 8) = 24.
  EXPECT_EQ(EvaluateCell(ex_.cube, ref), CellValue(24.0));
}

}  // namespace
}  // namespace olap
