// Consolidation operators (Member::weight — Essbase unary +/-/~): weighted
// roll-up, interplay with varying dimensions, materialized views and
// persistence.

#include <cstdio>

#include <gtest/gtest.h>

#include "agg/aggregate_cache.h"
#include "agg/batch_eval.h"
#include "storage/cube_io.h"
#include "support/naive_aggregator.h"

namespace olap {
namespace {

// Accounts: Margin { Sales(+), COGS(-) }, Stats { Headcount(~) },
// Market { East { NY, MA }, West { CA(-0.5 scale... no: plain) } }.
struct ProfitWorld {
  Cube cube;
  MemberId margin, sales, cogs, stats, headcount;
};

ProfitWorld BuildProfitWorld() {
  Schema schema;
  Dimension market("Market");
  MemberId east = *market.AddChildOfRoot("East");
  EXPECT_TRUE(market.AddMember("NY", east).ok());
  EXPECT_TRUE(market.AddMember("MA", east).ok());

  Dimension accounts("Accounts", DimensionKind::kMeasure);
  MemberId margin = *accounts.AddChildOfRoot("Margin");
  MemberId sales = *accounts.AddMember("Sales", margin, /*weight=*/1.0);
  MemberId cogs = *accounts.AddMember("COGS", margin, /*weight=*/-1.0);
  MemberId stats = *accounts.AddChildOfRoot("Stats", /*weight=*/0.0);
  MemberId headcount = *accounts.AddMember("Headcount", stats);

  schema.AddDimension(std::move(market));
  schema.AddDimension(std::move(accounts));
  Cube cube(std::move(schema));
  EXPECT_TRUE(cube.SetByName({"NY", "Sales"}, CellValue(100)).ok());
  EXPECT_TRUE(cube.SetByName({"NY", "COGS"}, CellValue(60)).ok());
  EXPECT_TRUE(cube.SetByName({"MA", "Sales"}, CellValue(50)).ok());
  EXPECT_TRUE(cube.SetByName({"MA", "COGS"}, CellValue(20)).ok());
  EXPECT_TRUE(cube.SetByName({"NY", "Headcount"}, CellValue(7)).ok());
  return ProfitWorld{std::move(cube), margin, sales, cogs, stats, headcount};
}

CellRef Ref(const ProfitWorld& w, const std::string& market, MemberId account) {
  const Schema& s = w.cube.schema();
  return CellRef{AxisRef::OfMember(*s.dimension(0).FindMember(market)),
                 AxisRef::OfMember(account)};
}

TEST(ConsolidationTest, DefaultWeightIsOne) {
  Dimension d("D");
  MemberId m = *d.AddChildOfRoot("x");
  EXPECT_EQ(d.member(m).weight, 1.0);
}

TEST(ConsolidationTest, PathWeightMultipliesAlongChain) {
  Dimension d("D");
  MemberId a = *d.AddChildOfRoot("a", -1.0);
  MemberId b = *d.AddMember("b", a, 2.0);
  MemberId c = *d.AddMember("c", b, 3.0);
  EXPECT_EQ(d.PathWeight(c, c), 1.0);
  EXPECT_EQ(d.PathWeight(c, b), 3.0);
  EXPECT_EQ(d.PathWeight(c, a), 6.0);
  EXPECT_EQ(d.PathWeight(c, d.root()), -6.0);
}

TEST(ConsolidationTest, SubtractiveRollup) {
  ProfitWorld w = BuildProfitWorld();
  // Margin(NY) = Sales - COGS = 40.
  EXPECT_EQ(EvaluateCell(w.cube, Ref(w, "NY", w.margin)), CellValue(40.0));
  // Margin(East) = 150 - 80 = 70.
  EXPECT_EQ(EvaluateCell(w.cube, Ref(w, "East", w.margin)), CellValue(70.0));
  // The children themselves read plainly.
  EXPECT_EQ(EvaluateCell(w.cube, Ref(w, "NY", w.cogs)), CellValue(60.0));
}

TEST(ConsolidationTest, TildeMembersExcludedFromParentRollup) {
  ProfitWorld w = BuildProfitWorld();
  const Schema& s = w.cube.schema();
  MemberId accounts_root = s.dimension(1).root();
  // Accounts total = Margin's consolidation only; Stats (~) is ignored:
  // (100-60) + (50-20) = 70, not 77.
  EXPECT_EQ(EvaluateCell(w.cube, Ref(w, "East", accounts_root)),
            CellValue(70.0));
  // Headcount is still directly addressable.
  EXPECT_EQ(EvaluateCell(w.cube, Ref(w, "NY", w.headcount)), CellValue(7.0));
  // And Stats itself consolidates its own children normally.
  EXPECT_EQ(EvaluateCell(w.cube, Ref(w, "NY", w.stats)), CellValue(7.0));
}

TEST(ConsolidationTest, WeightedPositionsUnder) {
  ProfitWorld w = BuildProfitWorld();
  std::vector<std::pair<int, double>> positions =
      w.cube.PositionsUnderWeighted(1, AxisRef::OfMember(w.margin));
  ASSERT_EQ(positions.size(), 2u);
  EXPECT_EQ(positions[0].second, 1.0);   // Sales.
  EXPECT_EQ(positions[1].second, -1.0);  // COGS.
  // From the root, Stats' subtree is dropped (weight 0).
  std::vector<std::pair<int, double>> all = w.cube.PositionsUnderWeighted(
      1, AxisRef::OfMember(w.cube.schema().dimension(1).root()));
  EXPECT_EQ(all.size(), 2u);
}

TEST(ConsolidationTest, AggregateCacheAppliesWeights) {
  ProfitWorld w = BuildProfitWorld();
  AggregateCache cache = AggregateCache::BuildGreedy(w.cube, 4);
  BatchCellEvaluator batch(w.cube, &cache);
  // Margin over the whole Market dimension (only Accounts restricted, so a
  // {Accounts}-keeping view can answer): (100+50) - (60+20) = 70.
  CellRef margin_all = Ref(w, "Market", w.margin);
  const int64_t hits_before = cache.hits;
  const CellValue served = batch.Evaluate(margin_all);
  EXPECT_EQ(cache.hits, hits_before + 1) << "served from a view";
  EXPECT_EQ(served, CellValue(70.0));
  EXPECT_EQ(served, EvaluateCell(w.cube, margin_all));
}

TEST(ConsolidationTest, WeightsSurviveSerialization) {
  ProfitWorld w = BuildProfitWorld();
  std::string path = std::string(::testing::TempDir()) + "/weights.olap";
  ASSERT_TRUE(SaveCube(w.cube, path).ok());
  Result<Cube> loaded = LoadCube(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dimension& accounts = loaded->schema().dimension(1);
  EXPECT_EQ(accounts.member(w.cogs).weight, -1.0);
  EXPECT_EQ(accounts.member(w.stats).weight, 0.0);
  EXPECT_EQ(EvaluateCell(*loaded, Ref(w, "East", w.margin)), CellValue(70.0));
  std::remove(path.c_str());
}

TEST(ConsolidationTest, VaryingDimensionWeights) {
  // A varying dimension with a subtracting group: Net { Hires(+), Exits(-) },
  // employees moving between them.
  Schema schema;
  Dimension org("Org");
  MemberId net = *org.AddChildOfRoot("Net");
  MemberId hires = *org.AddMember("Hires", net, 1.0);
  MemberId exits = *org.AddMember("Exits", net, -1.0);
  MemberId alice = *org.AddMember("Alice", hires);
  MemberId bob = *org.AddMember("Bob", exits);
  Dimension time("Time", DimensionKind::kParameter);
  EXPECT_TRUE(time.AddChildOfRoot("T0").ok());
  EXPECT_TRUE(time.AddChildOfRoot("T1").ok());
  int org_dim = schema.AddDimension(std::move(org));
  int time_dim = schema.AddDimension(std::move(time));
  ASSERT_TRUE(schema.BindVarying(org_dim, time_dim, true).ok());
  // Alice "exits" at T1.
  ASSERT_TRUE(schema.mutable_dimension(org_dim)->ApplyChange(alice, exits, 1).ok());

  Cube cube(std::move(schema));
  ASSERT_TRUE(cube.SetByName({"Hires/Alice", "T0"}, CellValue(5)).ok());
  ASSERT_TRUE(cube.SetByName({"Exits/Alice", "T1"}, CellValue(5)).ok());
  ASSERT_TRUE(cube.SetByName({"Bob", "T0"}, CellValue(3)).ok());

  const Schema& s = cube.schema();
  CellRef net_t0 = {AxisRef::OfMember(net),
                    AxisRef::OfMember(*s.dimension(time_dim).FindMember("T0"))};
  CellRef net_t1 = {AxisRef::OfMember(net),
                    AxisRef::OfMember(*s.dimension(time_dim).FindMember("T1"))};
  // T0: Alice under Hires (+5), Bob under Exits (-3) => 2.
  EXPECT_EQ(EvaluateCell(cube, net_t0), CellValue(2.0));
  // T1: Alice under Exits (-5) => -5.
  EXPECT_EQ(EvaluateCell(cube, net_t1), CellValue(-5.0));
  (void)bob;
}

}  // namespace
}  // namespace olap
