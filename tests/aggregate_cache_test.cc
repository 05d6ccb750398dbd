#include "agg/aggregate_cache.h"

#include <gtest/gtest.h>

#include "agg/batch_eval.h"
#include "common/metrics.h"
#include "engine/executor.h"
#include "rules/evaluator.h"
#include "support/naive_aggregator.h"
#include "workload/paper_example.h"
#include "workload/workforce.h"

namespace olap {
namespace {

class AggregateCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = BuildPaperExample(); }

  CellRef Ref(const AxisRef& org, const std::string& loc,
              const std::string& time, const std::string& measure) {
    const Schema& s = ex_.cube.schema();
    return CellRef{
        org,
        AxisRef::OfMember(*s.dimension(ex_.location_dim).FindMember(loc)),
        AxisRef::OfMember(*s.dimension(ex_.time_dim).FindMember(time)),
        AxisRef::OfMember(*s.dimension(ex_.measures_dim).FindMember(measure))};
  }

  PaperExample ex_;
};

TEST_F(AggregateCacheTest, GreedyBuildMaterializesViews) {
  AggregateCache cache = AggregateCache::BuildGreedy(ex_.cube, 4);
  EXPECT_EQ(cache.num_views(), 4);
  EXPECT_GT(cache.TotalCells(), 0);
}

TEST_F(AggregateCacheTest, CachedAnswersMatchLeafScans) {
  AggregateCache cache = AggregateCache::BuildGreedy(ex_.cube, 8);
  BatchCellEvaluator batch(ex_.cube, &cache);
  // Derived refs of a few representative shapes: served from a view or
  // rolled up from the leaves, the answer is the direct roll-up.
  const Schema& s = ex_.cube.schema();
  std::vector<CellRef> refs = {
      Ref(AxisRef::OfMember(s.dimension(ex_.org_dim).root()), "Location",
          "Time", "Measures"),
      Ref(AxisRef::OfMember(ex_.fte), "Location", "Time", "Measures"),
      Ref(AxisRef::OfMember(s.dimension(ex_.org_dim).root()), "NY", "Time",
          "Measures"),
      Ref(AxisRef::OfMember(s.dimension(ex_.org_dim).root()), "East", "Qtr1",
          "Measures"),
      Ref(AxisRef::OfMember(ex_.joe), "Location", "Time", "Salary"),
  };
  for (const CellRef& ref : refs) {
    EXPECT_EQ(batch.Evaluate(ref), EvaluateCell(ex_.cube, ref));
  }
  EXPECT_GT(cache.hits, 0);
}

TEST_F(AggregateCacheTest, GrandTotalFromEmptyView) {
  // The empty group-by (grand total) is among the first greedy picks.
  AggregateCache cache = AggregateCache::BuildGreedy(ex_.cube, 10);
  BatchCellEvaluator batch(ex_.cube, &cache);
  CellRef total = Ref(AxisRef::OfMember(ex_.cube.schema().dimension(0).root()),
                      "Location", "Time", "Measures");
  EXPECT_EQ(batch.Evaluate(total), CellValue(250.0));
  EXPECT_EQ(cache.hits, 1);
  EXPECT_EQ(cache.misses, 0);
}

TEST_F(AggregateCacheTest, FullyRestrictedRefMisses) {
  AggregateCache cache = AggregateCache::BuildGreedy(ex_.cube, 4);
  BatchCellEvaluator batch(ex_.cube, &cache);
  // A derived ref restricting every dimension: no proper view covers it,
  // so it misses and rolls up from the leaves.
  CellRef derived = Ref(AxisRef::OfMember(ex_.fte), "NY", "Jan", "Salary");
  EXPECT_EQ(batch.Evaluate(derived), EvaluateCell(ex_.cube, derived));
  EXPECT_EQ(cache.misses, 1);
  // A leaf ref is a direct read, not a lookup.
  CellRef leaf = Ref(AxisRef::OfInstance(ex_.joe, ex_.fte_joe), "NY", "Jan",
                     "Salary");
  EXPECT_EQ(batch.Evaluate(leaf), EvaluateCell(ex_.cube, leaf));
  EXPECT_EQ(cache.hits, 0);
  EXPECT_EQ(cache.misses, 1);
}

TEST_F(AggregateCacheTest, EvaluatorUsesCache) {
  AggregateCache cache = AggregateCache::BuildGreedy(ex_.cube, 8);
  BatchCellEvaluator batch(ex_.cube, &cache);
  CellEvaluator with_cache(ex_.cube, nullptr, &batch);
  CellEvaluator without_cache(ex_.cube, nullptr);
  CellRef ref = Ref(AxisRef::OfMember(ex_.pte), "Location", "Time", "Measures");
  int64_t hits_before = cache.hits;
  EXPECT_EQ(with_cache.Evaluate(ref), without_cache.Evaluate(ref));
  EXPECT_GT(cache.hits, hits_before);
}

TEST_F(AggregateCacheTest, PatchCellDeltaTracksEditsExactly) {
  std::vector<GroupByMask> masks = {0b0000, 0b0011, 0b0101, 0b1110};
  AggregateCache cache(ex_.cube, masks);
  cache.EnableIncrementalMaintenance(ex_.cube);
  ASSERT_TRUE(cache.incremental());
  Counter* kept = MetricsRegistry::Global().counter("cache.invalidate.views_kept");
  const int64_t kept_before = kept->value();

  // A value change, a fresh non-⊥ write, and a clear back to ⊥ — each
  // patched through the sidecar counts.
  struct Edit { std::vector<int> coords; CellValue v; };
  std::vector<Edit> edits = {
      {{ex_.fte_joe, 0, 0, 0}, CellValue(123.0)},
      {{ex_.contractor_joe, 1, 3, 0}, CellValue(55.0)},
      {{ex_.fte_joe, 0, 0, 0}, CellValue::Null()},
  };
  for (const Edit& e : edits) {
    const double before = CellValue::ToStorage(ex_.cube.GetCell(e.coords));
    ex_.cube.SetCell(e.coords, e.v);
    cache.PatchCellDelta(e.coords, before, CellValue::ToStorage(e.v));
  }
  EXPECT_GT(kept->value(), kept_before);

  // Every patched view is value- and null-pattern-identical to a rebuild
  // over the edited cube (⊥ restored where the last contribution left).
  AggregateCache rebuilt(ex_.cube, masks);
  for (int i = 0; i < cache.num_views(); ++i) {
    EXPECT_TRUE(cache.view_resident(i));
    EXPECT_TRUE(cache.view(i) == rebuilt.view(i)) << "view " << i;
  }
}

TEST_F(AggregateCacheTest, NonIncrementalPatchDropsResidentViews) {
  std::vector<GroupByMask> masks = {0b0000, 0b0011};
  AggregateCache cache(ex_.cube, masks);
  ASSERT_FALSE(cache.incremental());
  Counter* dropped =
      MetricsRegistry::Global().counter("cache.invalidate.views_dropped");
  const int64_t dropped_before = dropped->value();

  const std::vector<int> coords = {ex_.fte_joe, 0, 0, 0};
  const double before = CellValue::ToStorage(ex_.cube.GetCell(coords));
  ex_.cube.SetCell(coords, CellValue(1.0));
  cache.PatchCellDelta(coords, before, 1.0);

  // Without the sidecar there is no safe patch: everything drops.
  for (int i = 0; i < cache.num_views(); ++i) {
    EXPECT_FALSE(cache.view_resident(i));
  }
  EXPECT_EQ(cache.TotalCells(), 0);
  EXPECT_EQ(dropped->value(), dropped_before + 2);
  EXPECT_EQ(cache.SmallestCovering(0b0011), nullptr);
}

TEST(AggregateCacheEngineTest, QueriesAgreeWithAndWithoutAggregates) {
  WorkforceConfig config;
  config.num_departments = 8;
  config.num_employees = 64;
  config.num_changing = 8;
  config.num_measures = 3;
  config.num_scenarios = 2;
  WorkforceCube wf = BuildWorkforceCube(config);

  Database plain_db, agg_db;
  ASSERT_TRUE(RegisterWorkforce(&plain_db, "App.Db", wf).ok());
  ASSERT_TRUE(RegisterWorkforce(&agg_db, "App.Db", std::move(wf)).ok());
  ASSERT_TRUE(agg_db.BuildAggregates("App.Db", 12).ok());
  ASSERT_NE(agg_db.aggregates("App.Db"), nullptr);

  const char* queries[] = {
      // Aggregate-heavy: departments x quarters (cache-friendly).
      "SELECT {([Current], [Local])} ON COLUMNS, "
      "{CrossJoin({[Department].Children}, {Descendants([Period],1)})} "
      "ON ROWS FROM App.Db",
      // Mixed leaf/aggregate.
      "SELECT {[Account].Levels(0).Members} ON COLUMNS, "
      "{Descendants([Period],1)} ON ROWS FROM App.Db",
      // Non-visual what-if: derived cells still evaluate on the stored
      // cube, so its views serve; results identical.
      "WITH PERSPECTIVE {(Jan), (Jul)} FOR Department STATIC "
      "SELECT {([Current])} ON COLUMNS, "
      "{[EmployeesWithAtleastOneMove-Set1].Children} ON ROWS FROM App.Db",
  };
  Executor plain(&plain_db), aggregated(&agg_db);
  for (const char* query : queries) {
    Result<QueryResult> a = plain.Execute(query);
    Result<QueryResult> b = aggregated.Execute(query);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->grid.num_rows(), b->grid.num_rows()) << query;
    ASSERT_EQ(a->grid.num_columns(), b->grid.num_columns()) << query;
    for (int r = 0; r < a->grid.num_rows(); ++r) {
      for (int c = 0; c < a->grid.num_columns(); ++c) {
        EXPECT_EQ(a->grid.at(r, c), b->grid.at(r, c))
            << query << " @ " << r << "," << c;
      }
    }
  }
}

TEST(AggregateCacheEngineTest, BuildAggregatesValidation) {
  Database db;
  EXPECT_EQ(db.BuildAggregates("Nope", 4).code(), StatusCode::kNotFound);
  PaperExample ex = BuildPaperExample();
  ASSERT_TRUE(db.AddCube("W", std::move(ex.cube)).ok());
  EXPECT_EQ(db.BuildAggregates("W", -1).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(db.BuildAggregates("W", 0).ok());
  EXPECT_EQ(db.aggregates("W")->num_views(), 0);
}

}  // namespace
}  // namespace olap
