// NON EMPTY axes and the Tail/Except/Intersect set functions.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "mdx/binder.h"
#include "mdx/parser.h"
#include "support/financial_cube.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

class MdxExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = BuildPaperExample();
    ASSERT_TRUE(db_.AddCube("Warehouse", ex_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  QueryResult MustExecute(const std::string& mdx) {
    Result<QueryResult> r = exec_->Execute(mdx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *std::move(r) : QueryResult{};
  }

  std::vector<mdx::BoundTuple> MustBindSet(const std::string& set_text) {
    Result<mdx::ParsedQuery> q =
        mdx::Parse("SELECT " + set_text + " ON COLUMNS FROM Warehouse");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    Result<std::vector<mdx::BoundTuple>> tuples =
        mdx::BindSet(*q->axes[0].set, ex_.cube.schema(), nullptr);
    EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
    return tuples.ok() ? *tuples : std::vector<mdx::BoundTuple>{};
  }

  PaperExample ex_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(MdxExtensionsTest, NonEmptyRowsDropAllNullRows) {
  // Without NON EMPTY: Sue and Dave (no data) appear as all-⊥ rows.
  QueryResult all = MustExecute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{[FTE].Children, [PTE].Children} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  QueryResult filtered = MustExecute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "NON EMPTY {[FTE].Children, [PTE].Children} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_GT(all.grid.num_rows(), filtered.grid.num_rows());
  for (int r = 0; r < filtered.grid.num_rows(); ++r) {
    bool any = false;
    for (int c = 0; c < filtered.grid.num_columns(); ++c) {
      any |= !filtered.grid.at(r, c).is_null();
    }
    EXPECT_TRUE(any) << filtered.grid.row_labels()[r];
  }
  // FTE/Joe has Jan data and must survive.
  bool found = false;
  for (const std::string& label : filtered.grid.row_labels()) {
    found |= label == "FTE/Joe";
  }
  EXPECT_TRUE(found);
}

TEST_F(MdxExtensionsTest, NonEmptyColumnsDropAllNullColumns) {
  // Joe's FTE instance only has Jan data: Feb..Jun columns vanish.
  QueryResult r = MustExecute(
      "SELECT NON EMPTY {Time.[Jan], Time.[Feb], Time.[May]} ON COLUMNS, "
      "{Organization.[FTE].[Joe]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_columns(), 1);
  EXPECT_EQ(r.grid.column_labels()[0], "Jan");
}

TEST_F(MdxExtensionsTest, NonEmptyKeepsPropertyColumnsAligned) {
  QueryResult r = MustExecute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "NON EMPTY {[Organization].[Joe]} DIMENSION PROPERTIES [Organization] "
      "ON ROWS FROM Warehouse WHERE ([NY], [Salary])");
  // Only FTE/Joe has Jan data.
  ASSERT_EQ(r.grid.num_rows(), 1);
  ASSERT_EQ(r.grid.num_property_columns(), 1);
  EXPECT_EQ(r.grid.property_values(0)[0], "FTE");
}

TEST_F(MdxExtensionsTest, TailTakesLastElements) {
  std::vector<mdx::BoundTuple> tuples =
      MustBindSet("{Tail({[FTE].Children}, 2)}");
  ASSERT_EQ(tuples.size(), 2u);  // Lisa, Sue (of Joe, Lisa, Sue).
  EXPECT_EQ(tuples[0].refs[0].second.member, ex_.lisa);
  EXPECT_EQ(tuples[1].refs[0].second.member, ex_.sue);
  EXPECT_EQ(MustBindSet("{Tail({[FTE].Children}, 99)}").size(), 3u);
}

TEST_F(MdxExtensionsTest, ExceptRemovesMatchingTuples) {
  std::vector<mdx::BoundTuple> tuples =
      MustBindSet("{Except({[FTE].Children}, {[Lisa]})}");
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].refs[0].second.member, ex_.joe);
  EXPECT_EQ(tuples[1].refs[0].second.member, ex_.sue);
}

TEST_F(MdxExtensionsTest, IntersectKeepsCommonTuples) {
  std::vector<mdx::BoundTuple> tuples =
      MustBindSet("{Intersect({[FTE].Children}, {[Lisa], [Tom]})}");
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].refs[0].second.member, ex_.lisa);
}

TEST_F(MdxExtensionsTest, FilterByValue) {
  // σ_{value > c} at the language level (the paper's "products which had a
  // sales over $1000" example, Sec. 4.1). Year totals: Joe 70, Lisa 60,
  // Sue ⊥ (fails every comparison).
  QueryResult r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, "
      "{Filter({[FTE].Children}, Measures.[Salary] > 65)} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_rows(), 3);  // Joe (70) passes -> his 3 instances.
  r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, "
      "{Filter({[FTE].Children}, Measures.[Salary] >= 60)} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_EQ(r.grid.num_rows(), 4);  // Joe's instances + Lisa.
  r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, "
      "{Filter({[FTE].Children}, Measures.[Salary] < 65)} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_rows(), 1);
  EXPECT_EQ(r.grid.row_labels()[0], "FTE/Lisa");
}

TEST_F(MdxExtensionsTest, FilterConditionCombinesWithTupleContext) {
  // The condition is evaluated at each tuple's own coordinates: filter
  // states by Joe's salary there — only NY has any.
  QueryResult r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, "
      "{Filter(Location.Region.State.Members, "
      "Organization.[Joe] > 0)} ON ROWS "
      "FROM Warehouse WHERE ([Salary])");
  ASSERT_EQ(r.grid.num_rows(), 1);
  EXPECT_EQ(r.grid.row_labels()[0], "NY");
}

TEST_F(MdxExtensionsTest, FilterOperatorsAndErrors) {
  // Equality / inequality / negative thresholds parse and evaluate.
  QueryResult r = MustExecute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{Filter({[FTE].Children}, Measures.[Salary] = 60)} ON ROWS "
      "FROM Warehouse WHERE ([NY])");
  EXPECT_EQ(r.grid.num_rows(), 1);  // Lisa.
  r = MustExecute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{Filter({[FTE].Children}, Measures.[Salary] <> 60)} ON ROWS "
      "FROM Warehouse WHERE ([NY])");
  EXPECT_EQ(r.grid.num_rows(), 3);  // Joe's instances (70 != 60).
  r = MustExecute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{Filter({[FTE].Children}, Measures.[Salary] > -1)} ON ROWS "
      "FROM Warehouse WHERE ([NY])");
  EXPECT_EQ(r.grid.num_rows(), 4);  // Joe + Lisa; Sue is ⊥.
  // Bad operator and missing threshold are parse errors.
  EXPECT_FALSE(exec_
                   ->Execute("SELECT {Filter({x}, y !! 3)} ON COLUMNS FROM "
                             "Warehouse")
                   .ok());
  EXPECT_FALSE(exec_
                   ->Execute("SELECT {Filter({x}, y > )} ON COLUMNS FROM "
                             "Warehouse")
                   .ok());
}

TEST_F(MdxExtensionsTest, OrderSortsByValue) {
  // NY/Salary year totals: FTE 70 (FTE/Joe 10 + Lisa 60), PTE 70
  // (Tom 60 + PTE/Joe 10), Contractor 110 (Jane 60 + Joe 50). The FTE/PTE
  // tie resolves by stable sort (input order).
  QueryResult r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, "
      "{Order({[FTE], [PTE], [Contractor]}, Measures.[Salary], DESC)} "
      "ON ROWS FROM Warehouse WHERE ([NY])");
  ASSERT_EQ(r.grid.num_rows(), 3);
  EXPECT_EQ(r.grid.row_labels()[0], "Contractor");  // 110.
  EXPECT_EQ(r.grid.row_labels()[1], "FTE");         // 70, tie kept stable.
  EXPECT_EQ(r.grid.row_labels()[2], "PTE");         // 70.
  // Ascending is the default.
  r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, "
      "{Order({[FTE], [PTE], [Contractor]}, Measures.[Salary])} "
      "ON ROWS FROM Warehouse WHERE ([NY])");
  EXPECT_EQ(r.grid.row_labels()[0], "FTE");
  EXPECT_EQ(r.grid.row_labels()[2], "Contractor");
}

TEST_F(MdxExtensionsTest, OrderPutsNullLast) {
  QueryResult r = MustExecute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{Order({[FTE].Children}, Measures.[Salary], DESC)} ON ROWS "
      "FROM Warehouse WHERE ([NY])");
  // Joe 70, Lisa 60, Sue ⊥ — Sue last either direction.
  ASSERT_EQ(r.grid.num_rows(), 5);  // Joe expands to 3 instances.
  EXPECT_EQ(r.grid.row_labels()[4], "FTE/Sue");
}

TEST_F(MdxExtensionsTest, TopAndBottomCount) {
  QueryResult r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, "
      "{TopCount({[FTE], [PTE], [Contractor]}, 1, Measures.[Salary])} "
      "ON ROWS FROM Warehouse WHERE ([NY])");
  ASSERT_EQ(r.grid.num_rows(), 1);
  EXPECT_EQ(r.grid.row_labels()[0], "Contractor");
  r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, "
      "{BottomCount({[FTE], [PTE], [Contractor]}, 2, Measures.[Salary])} "
      "ON ROWS FROM Warehouse WHERE ([NY])");
  ASSERT_EQ(r.grid.num_rows(), 2);
  // FTE and PTE tie at 70; stable order keeps FTE first.
  EXPECT_EQ(r.grid.row_labels()[0], "FTE");
  EXPECT_EQ(r.grid.row_labels()[1], "PTE");
}

// Filter, Order and TopCount key on a rule's values like the grid does.
// Margin% is defined only by its rule; over every market and month it is
// 66.7 for TV, 400 for Radio and 11.1 for Amp, an order unlike the set's.
TEST_F(MdxExtensionsTest, ValueFunctionsKeyOnRuleDerivedCells) {
  ASSERT_TRUE(db_.AddCube("Sales", BuildFinancialCube(60, 20, 90)).ok());
  ASSERT_TRUE(db_.AddRule("Sales", "[Margin%] = Margin / COGS * 100").ok());
  auto grid_of = [&](const std::string& set) {
    return MustExecute("SELECT {[Measures].[Margin%]} ON COLUMNS, {" + set +
                       "} ON ROWS FROM Sales")
        .grid;
  };
  // The grid's Margin% per product row, in the set's order.
  const ResultGrid grid = grid_of("[TV], [Radio], [Amp]");
  ASSERT_EQ(grid.num_rows(), 3);
  std::vector<std::string> rows = grid.row_labels();
  std::map<std::string, double> margin;
  for (int r = 0; r < 3; ++r) {
    ASSERT_FALSE(grid.at(r, 0).is_null()) << rows[r];
    margin[rows[r]] = grid.at(r, 0).value();
  }
  EXPECT_EQ(margin[rows[1]], 640.0 / 160 * 100);  // Radio.
  // Filter keeps the products whose grid value passes.
  std::vector<std::string> expected;
  for (const std::string& row : rows) {
    if (margin[row] > 50) expected.push_back(row);
  }
  EXPECT_EQ(expected.size(), 2u);
  EXPECT_EQ(
      grid_of("Filter({[TV], [Radio], [Amp]}, [Measures].[Margin%] > 50)")
          .row_labels(),
      expected);
  // Order and TopCount rank by the grid values: Radio, TV, Amp.
  expected = rows;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](const std::string& a, const std::string& b) {
                     return margin[a] > margin[b];
                   });
  EXPECT_EQ(expected, (std::vector<std::string>{rows[1], rows[0], rows[2]}));
  EXPECT_EQ(
      grid_of("Order({[TV], [Radio], [Amp]}, [Measures].[Margin%], DESC)")
          .row_labels(),
      expected);
  EXPECT_EQ(
      grid_of("TopCount({[TV], [Radio], [Amp]}, 1, [Measures].[Margin%])")
          .row_labels(),
      std::vector<std::string>{expected.front()});
}

TEST_F(MdxExtensionsTest, FilterWithoutDataFails) {
  Result<mdx::ParsedQuery> q = mdx::Parse(
      "SELECT {Filter({[FTE].Children}, Measures.[Salary] > 0)} ON COLUMNS "
      "FROM Warehouse");
  ASSERT_TRUE(q.ok());
  Result<std::vector<mdx::BoundTuple>> tuples =
      mdx::BindSet(*q->axes[0].set, ex_.cube.schema(), nullptr, nullptr);
  EXPECT_EQ(tuples.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MdxExtensionsTest, NonEmptyParses) {
  Result<mdx::ParsedQuery> q = mdx::Parse(
      "SELECT NON EMPTY {x} ON COLUMNS, {y} ON ROWS FROM c");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->axes[0].non_empty);
  EXPECT_FALSE(q->axes[1].non_empty);
  EXPECT_FALSE(mdx::Parse("SELECT NON {x} ON COLUMNS FROM c").ok());
}

TEST_F(MdxExtensionsTest, NonEmptyWithPerspective) {
  // The Fig. 4 query with NON EMPTY drops the inactive Sue/Dave rows AND
  // the dropped FTE/Joe instance in one go.
  QueryResult r = MustExecute(
      "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL "
      "SELECT {Time.[Feb], Time.[Mar]} ON COLUMNS, "
      "NON EMPTY {[FTE].Children, [PTE].Children, [Contractor].Children} "
      "ON ROWS FROM Warehouse WHERE ([NY], [Salary])");
  for (const std::string& label : r.grid.row_labels()) {
    EXPECT_NE(label, "FTE/Sue");
    EXPECT_NE(label, "PTE/Dave");
  }
  bool has_pte_joe = false;
  for (const std::string& label : r.grid.row_labels()) {
    has_pte_joe |= label == "PTE/Joe";
  }
  EXPECT_TRUE(has_pte_joe);
}

// ---------------------------------------------------------------------------
// INTRODUCE: hypothetical new members end-to-end through the MDX surface.
// ---------------------------------------------------------------------------

TEST_F(MdxExtensionsTest, IntroduceCloneSeedsTheNewMember) {
  // Newbie joins FTE in Mar, seeded as half of Lisa. Lisa is 10 at
  // (NY, Salary) every month, so Newbie is 5 from Mar onward and ⊥ before.
  QueryResult r = MustExecute(
      "WITH INTRODUCE {([Newbie], [FTE], [Mar], CLONE [Lisa] 0.5)} "
      "FOR Organization "
      "SELECT {Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS, "
      "{[FTE].[Newbie], [FTE].[Lisa]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_rows(), 2);
  ASSERT_EQ(r.grid.num_columns(), 3);
  EXPECT_TRUE(r.grid.at(0, 0).is_null());  // Newbie before its epoch.
  EXPECT_EQ(r.grid.at(0, 1), CellValue(5.0));
  EXPECT_EQ(r.grid.at(0, 2), CellValue(5.0));
  // Cloning leaves the source untouched.
  EXPECT_EQ(r.grid.at(1, 0), CellValue(10.0));
  EXPECT_EQ(r.grid.at(1, 1), CellValue(10.0));
  EXPECT_EQ(r.grid.at(1, 2), CellValue(10.0));
  EXPECT_TRUE(r.used_whatif);
  EXPECT_GT(r.whatif_stats.cells_seeded, 0);
}

TEST_F(MdxExtensionsTest, IntroduceTransferMovesTheSourceData) {
  // TRANSFER at factor 1.0 moves Jane's workload to the new hire from Apr
  // on: Jane's Apr cell becomes an explicit 0 (the cell still exists, its
  // value moved), Phil picks up the 10. VISUAL so Jane's row reads the
  // transformed cube (non-visual retains stored values for members that
  // exist in the stored schema).
  QueryResult r = MustExecute(
      "WITH INTRODUCE {([Phil], [Contractor], [Apr], TRANSFER [Jane] 1.0)} "
      "FOR Organization VISUAL "
      "SELECT {Time.[Mar], Time.[Apr]} ON COLUMNS, "
      "{[Contractor].[Phil], [Contractor].[Jane]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_rows(), 2);
  ASSERT_EQ(r.grid.num_columns(), 2);
  EXPECT_TRUE(r.grid.at(0, 0).is_null());       // Phil before the epoch.
  EXPECT_EQ(r.grid.at(0, 1), CellValue(10.0));  // Phil inherits Apr.
  EXPECT_EQ(r.grid.at(1, 0), CellValue(10.0));  // Jane keeps Mar.
  EXPECT_EQ(r.grid.at(1, 1), CellValue(0.0));   // Jane's Apr moved away.
}

TEST_F(MdxExtensionsTest, IntroduceInnerMemberWithLeafUnderIt) {
  // A new department (moment omitted => inner member) plus a hire under it
  // in the same clause: later specs may name earlier hypothetical members
  // as parents. The derived [Consulting] cell rolls up its new leaf.
  QueryResult r = MustExecute(
      "WITH INTRODUCE {([Consulting], [Organization]), "
      "([Ann], [Consulting], [Mar], CLONE [Lisa] 1.0)} FOR Organization "
      "SELECT {Time.[Feb], Time.[Mar]} ON COLUMNS, "
      "{[Consulting], [FTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_rows(), 2);
  ASSERT_EQ(r.grid.num_columns(), 2);
  EXPECT_TRUE(r.grid.at(0, 0).is_null());       // Before Ann's epoch.
  EXPECT_EQ(r.grid.at(0, 1), CellValue(10.0));  // Ann's cloned Mar.
  EXPECT_EQ(r.grid.at(1, 0), CellValue(10.0));  // FTE = Lisa, untouched.
  EXPECT_EQ(r.grid.at(1, 1), CellValue(10.0));
}

TEST_F(MdxExtensionsTest, FilterCannotReferenceIntroducedMembers) {
  // Filter/Order predicates evaluate against the stored cube, which does
  // not contain the hypothetical member — the binder must reject this
  // rather than read out of bounds.
  Result<QueryResult> r = exec_->Execute(
      "WITH INTRODUCE {([Newbie], [FTE], [Mar], CLONE [Lisa] 0.5)} "
      "FOR Organization "
      "SELECT Filter({Time.[Mar]}, [Newbie] > 0) ON COLUMNS, "
      "{[FTE]} ON ROWS FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("introduced"), std::string::npos)
      << r.status().ToString();
}

// ---------------------------------------------------------------------------
// COMPARE <query> VERSUS <query>: delta grid + comparison metrics.
// ---------------------------------------------------------------------------

TEST_F(MdxExtensionsTest, CompareVersusProducesDeltaGridAndMetrics) {
  // Scenario A reassigns Contractor/Joe to FTE from Apr (visual); scenario
  // B is the unmodified cube. At (NY, Salary, Apr): A has FTE = Lisa 10 +
  // Joe 10 = 20, Contractor = Jane 10; B has FTE = 10, Contractor = 20.
  Result<QueryResult> res = exec_->Execute(
      "COMPARE "
      "WITH CHANGES {([Contractor].[Joe], [Contractor], [FTE], [Apr])} "
      "VISUAL "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE], [Contractor]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary]) "
      "VERSUS "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE], [Contractor]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const QueryResult& r = *res;
  EXPECT_TRUE(r.compared);
  ASSERT_EQ(r.grid.num_rows(), 2);
  ASSERT_EQ(r.grid.num_columns(), 1);
  EXPECT_EQ(r.grid.at(0, 0), CellValue(10.0));    // FTE: 20 - 10.
  EXPECT_EQ(r.grid.at(1, 0), CellValue(-10.0));   // Contractor: 10 - 20.
  EXPECT_EQ(r.comparison.cells_compared, 2);
  EXPECT_EQ(r.comparison.active_a, 2);
  EXPECT_EQ(r.comparison.active_b, 2);
  EXPECT_EQ(r.comparison.overlap, 2);
  EXPECT_TRUE(r.comparison.a_contains_b);
  EXPECT_TRUE(r.comparison.b_contains_a);
  EXPECT_EQ(r.comparison.jaccard, 1.0);
  EXPECT_EQ(r.comparison.l1, 20.0);
  EXPECT_EQ(r.comparison.linf, 10.0);
}

TEST_F(MdxExtensionsTest, CompareRejectsMismatchedAxes) {
  Result<QueryResult> r = exec_->Execute(
      "COMPARE "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary]) "
      "VERSUS "
      "SELECT {Time.[Apr]} ON COLUMNS, {[Contractor]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("same axes"), std::string::npos)
      << r.status().ToString();
}

TEST_F(MdxExtensionsTest, CompareIdenticalSidesIsAllZero) {
  Result<QueryResult> r = exec_->Execute(
      "COMPARE "
      "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[FTE], [PTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary]) "
      "VERSUS "
      "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[FTE], [PTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_TRUE(r->compared);
  EXPECT_EQ(r->comparison.l1, 0.0);
  EXPECT_EQ(r->comparison.l2, 0.0);
  EXPECT_EQ(r->comparison.linf, 0.0);
  EXPECT_EQ(r->comparison.active_a, r->comparison.active_b);
  EXPECT_EQ(r->comparison.jaccard, 1.0);
  for (int row = 0; row < r->grid.num_rows(); ++row) {
    for (int col = 0; col < r->grid.num_columns(); ++col) {
      if (!r->grid.at(row, col).is_null()) {
        EXPECT_EQ(r->grid.at(row, col), CellValue(0.0));
      }
    }
  }
}

}  // namespace
}  // namespace olap
