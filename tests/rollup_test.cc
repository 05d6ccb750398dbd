#include "agg/rollup.h"

#include <gtest/gtest.h>

#include "support/naive_aggregator.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

class RollupTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = BuildPaperExample(); }

  CellRef Ref(const AxisRef& org, const std::string& loc,
              const std::string& time, const std::string& measure) {
    const Schema& s = ex_.cube.schema();
    return CellRef{org,
                   AxisRef::OfMember(*s.dimension(ex_.location_dim).FindMember(loc)),
                   AxisRef::OfMember(*s.dimension(ex_.time_dim).FindMember(time)),
                   AxisRef::OfMember(
                       *s.dimension(ex_.measures_dim).FindMember(measure))};
  }

  PaperExample ex_;
};

TEST_F(RollupTest, LeafCellReadsStorage) {
  CellRef ref = Ref(AxisRef::OfInstance(ex_.joe, ex_.fte_joe), "NY", "Jan",
                    "Salary");
  EXPECT_EQ(EvaluateCell(ex_.cube, ref), CellValue(10.0));
}

TEST_F(RollupTest, QuarterRollupSkipsNull) {
  // Contractor/Joe Q2 = Apr 10 + May ⊥ + Jun 10 = 20.
  CellRef ref = Ref(AxisRef::OfInstance(ex_.joe, ex_.contractor_joe), "NY",
                    "Qtr2", "Salary");
  EXPECT_EQ(EvaluateCell(ex_.cube, ref), CellValue(20.0));
}

TEST_F(RollupTest, BareMemberAggregatesAllInstances) {
  // Joe across all instances, whole year: 10+10+30+10+10 = 70.
  CellRef ref = Ref(AxisRef::OfMember(ex_.joe), "NY", "Time", "Salary");
  EXPECT_EQ(EvaluateCell(ex_.cube, ref), CellValue(70.0));
}

TEST_F(RollupTest, NonLeafOrgMemberAggregatesItsInstances) {
  // FTE in Jan: FTE/Joe 10 + Lisa 10 (+ Sue inactive) = 20.
  CellRef ref = Ref(AxisRef::OfMember(ex_.fte), "NY", "Jan", "Salary");
  EXPECT_EQ(EvaluateCell(ex_.cube, ref), CellValue(20.0));
  // Contractor in Jan: only Jane = 10 (Contractor/Joe not valid, cell ⊥).
  CellRef contractor = Ref(AxisRef::OfMember(ex_.contractor), "NY", "Jan", "Salary");
  EXPECT_EQ(EvaluateCell(ex_.cube, contractor), CellValue(10.0));
}

TEST_F(RollupTest, GrandTotal) {
  const Schema& s = ex_.cube.schema();
  CellRef ref = Ref(AxisRef::OfMember(s.dimension(ex_.org_dim).root()),
                    "Location", "Time", "Measures");
  EXPECT_EQ(EvaluateCell(ex_.cube, ref), CellValue(250.0));
}

TEST_F(RollupTest, AllNullScopeIsNull) {
  // Everything in MA is empty.
  CellRef ref = Ref(AxisRef::OfMember(ex_.fte), "MA", "Time", "Salary");
  EXPECT_TRUE(EvaluateCell(ex_.cube, ref).is_null());
}

TEST_F(RollupTest, SumOverScopeEmptyPositionListIsNull) {
  EXPECT_TRUE(SumOverScope(ex_.cube, {{0}, {}, {0}, {0}}).is_null());
}

TEST_F(RollupTest, SumOverScopeExplicitPositions) {
  // Lisa (instance) over Jan..Mar in NY, Salary.
  InstanceId lisa =
      ex_.cube.schema().dimension(ex_.org_dim).InstancesOf(ex_.lisa)[0];
  CellValue v = SumOverScope(ex_.cube, {{lisa}, {0}, {0, 1, 2}, {0}});
  EXPECT_EQ(v, CellValue(30.0));
}

}  // namespace
}  // namespace olap
