#include "engine/executor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/metrics.h"
#include "support/financial_cube.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = BuildPaperExample();
    ASSERT_TRUE(db_.AddCube("Warehouse", ex_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  QueryResult MustExecute(const std::string& mdx,
                          const QueryOptions& options = QueryOptions()) {
    Result<QueryResult> r = exec_->Execute(mdx, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << mdx;
    return r.ok() ? *std::move(r) : QueryResult{};
  }

  PaperExample ex_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

// The Sec. 3.2 example: Joe's salary per quarter per state (Fig. 3).
TEST_F(ExecutorTest, Section32QueryProducesFig3Grid) {
  QueryResult r = MustExecute(
      "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
      "Location.Region.State.MEMBERS ON ROWS "
      "FROM Warehouse "
      "WHERE (Organization.[FTE].[Joe], Measures.[Salary])");
  EXPECT_EQ(r.grid.num_columns(), 2);
  EXPECT_EQ(r.grid.num_rows(), 8);
  EXPECT_EQ(r.grid.column_labels()[0], "Qtr1");
  EXPECT_EQ(r.grid.row_labels()[0], "NY");
  // FTE/Joe only has Jan=10 in NY.
  EXPECT_EQ(r.grid.at(0, 0), CellValue(10.0));
  EXPECT_TRUE(r.grid.at(0, 1).is_null());
  EXPECT_TRUE(r.grid.at(1, 0).is_null());  // MA.
  EXPECT_FALSE(r.used_whatif);
}

TEST_F(ExecutorTest, LeafMemberRowsExpandToInstances) {
  // A bare Joe row expands into his three instances, like Fig. 2's layout.
  QueryResult r = MustExecute(
      "SELECT {Time.[Jan], Time.[Feb], Time.[Mar]} ON COLUMNS, "
      "{[Organization].[Joe]} ON ROWS FROM Warehouse "
      "WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_rows(), 3);
  EXPECT_EQ(r.grid.row_labels()[0], "FTE/Joe");
  EXPECT_EQ(r.grid.row_labels()[1], "PTE/Joe");
  EXPECT_EQ(r.grid.row_labels()[2], "Contractor/Joe");
  EXPECT_EQ(r.grid.at(0, 0), CellValue(10.0));   // FTE/Joe Jan.
  EXPECT_TRUE(r.grid.at(0, 1).is_null());        // FTE/Joe Feb ⊥.
  EXPECT_EQ(r.grid.at(1, 1), CellValue(10.0));   // PTE/Joe Feb.
  EXPECT_EQ(r.grid.at(2, 2), CellValue(30.0));   // Contractor/Joe Mar.
}

TEST_F(ExecutorTest, AggregateRowsUseRollup) {
  QueryResult r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, {[FTE], [PTE], [Contractor]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_rows(), 3);
  // FTE Q1 = FTE/Joe Jan 10 + Lisa 30.
  EXPECT_EQ(r.grid.at(0, 0), CellValue(40.0));
  // PTE Q1 = Tom 30 + PTE/Joe 10.
  EXPECT_EQ(r.grid.at(1, 0), CellValue(40.0));
  // Contractor Q1 = Jane 30 + Contractor/Joe Mar 30.
  EXPECT_EQ(r.grid.at(2, 0), CellValue(60.0));
}

TEST_F(ExecutorTest, MissingDimensionsDefaultToRoot) {
  QueryResult r = MustExecute(
      "SELECT {Measures.[Salary]} ON COLUMNS FROM Warehouse");
  ASSERT_EQ(r.grid.num_rows(), 1);
  EXPECT_EQ(r.grid.row_labels()[0], "(all)");
  EXPECT_EQ(r.grid.at(0, 0), CellValue(250.0));  // Whole cube.
}

TEST_F(ExecutorTest, RulesApplyInQueries) {
  ASSERT_TRUE(db_.AddRule("Warehouse", "Compensation = Salary + Benefits").ok());
  QueryResult r = MustExecute(
      "SELECT {Measures.[Compensation]} ON COLUMNS, {Time.[Jan]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Lisa])");
  // Benefits has no data: rule null semantics make the sum ⊥.
  EXPECT_TRUE(r.grid.at(0, 0).is_null());
  ASSERT_TRUE(
      db_.FindMutableCube("Warehouse")
          .value()
          ->SetByName({"Lisa", "NY", "Jan", "Benefits"}, CellValue(3))
          .ok());
  r = MustExecute(
      "SELECT {Measures.[Compensation]} ON COLUMNS, {Time.[Jan]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Lisa])");
  EXPECT_EQ(r.grid.at(0, 0), CellValue(13.0));
}

// Perspective query end-to-end: the paper's forward example through MDX.
TEST_F(ExecutorTest, ForwardPerspectiveQuery) {
  QueryResult r = MustExecute(
      "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL "
      "SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS, "
      "{[Organization].[Joe]} ON ROWS FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_TRUE(r.used_whatif);
  // FTE/Joe dropped; rows = PTE/Joe (owns Feb,Mar) and Contractor/Joe.
  ASSERT_EQ(r.grid.num_rows(), 2);
  EXPECT_EQ(r.grid.row_labels()[0], "PTE/Joe");
  EXPECT_EQ(r.grid.row_labels()[1], "Contractor/Joe");
  EXPECT_TRUE(r.grid.at(0, 0).is_null());        // Jan ⊥.
  EXPECT_EQ(r.grid.at(0, 1), CellValue(10.0));   // Feb.
  EXPECT_EQ(r.grid.at(0, 2), CellValue(30.0));   // Mar, inherited.
  EXPECT_TRUE(r.grid.at(0, 3).is_null());        // Apr belongs to Contractor.
  EXPECT_EQ(r.grid.at(1, 3), CellValue(10.0));
}

TEST_F(ExecutorTest, StaticPerspectiveDropsRows) {
  QueryResult r = MustExecute(
      "WITH PERSPECTIVE {(Jan)} FOR Organization STATIC "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_rows(), 1);
  EXPECT_EQ(r.grid.row_labels()[0], "FTE/Joe");
  EXPECT_EQ(r.grid.at(0, 0), CellValue(10.0));
}

TEST_F(ExecutorTest, DimensionPropertiesColumn) {
  QueryResult r = MustExecute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{[Organization].[Joe]} DIMENSION PROPERTIES [Organization] ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_EQ(r.grid.num_property_columns(), 1);
  EXPECT_EQ(r.grid.property_name(0), "Organization");
  ASSERT_EQ(r.grid.num_rows(), 3);
  EXPECT_EQ(r.grid.property_values(0)[0], "FTE");
  EXPECT_EQ(r.grid.property_values(0)[1], "PTE");
  EXPECT_EQ(r.grid.property_values(0)[2], "Contractor");
}

TEST_F(ExecutorTest, ChangesQueryEndToEnd) {
  QueryResult r = MustExecute(
      "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} VISUAL "
      "SELECT {Time.[Qtr2]} ON COLUMNS, {[PTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_TRUE(r.used_whatif);
  // Visual Q2 under PTE: Tom 30 + PTE/Lisa 30 = 60.
  EXPECT_EQ(r.grid.at(0, 0), CellValue(60.0));
}

TEST_F(ExecutorTest, MultipleMdxStrategyGivesSameGrid) {
  const std::string query =
      "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
      "SELECT {Time.[Jan], Time.[Mar], Time.[Jun]} ON COLUMNS, "
      "{[FTE].Children, [PTE].Children} ON ROWS FROM Warehouse "
      "WHERE ([NY], [Salary])";
  QueryOptions direct;
  QueryOptions multi;
  multi.strategy = EvalStrategy::kMultipleMdx;
  QueryResult a = MustExecute(query, direct);
  QueryResult b = MustExecute(query, multi);
  ASSERT_EQ(a.grid.num_rows(), b.grid.num_rows());
  ASSERT_EQ(a.grid.num_columns(), b.grid.num_columns());
  for (int row = 0; row < a.grid.num_rows(); ++row) {
    for (int col = 0; col < a.grid.num_columns(); ++col) {
      EXPECT_EQ(a.grid.at(row, col), b.grid.at(row, col)) << row << "," << col;
    }
  }
  EXPECT_GT(b.whatif_stats.passes, a.whatif_stats.passes);
}

TEST_F(ExecutorTest, ErrorsPropagate) {
  EXPECT_EQ(exec_->Execute("garbage").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      exec_->Execute("SELECT {Time.[Jan]} ON COLUMNS FROM Nowhere").status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(exec_->Execute("SELECT {[Nobody]} ON COLUMNS FROM Warehouse")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(exec_->Execute(
                    "SELECT {Time.[Jan]} ON COLUMNS, {[NY]} ON ROWS, "
                    "{[Salary]} ON AXIS(3) FROM Warehouse")
                .status()
                .code(),
            StatusCode::kUnimplemented);
  // PAGES without ROWS is rejected.
  EXPECT_EQ(exec_->Execute(
                    "SELECT {Time.[Jan]} ON COLUMNS, {[Salary]} ON PAGES "
                    "FROM Warehouse")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // No COLUMNS axis.
  EXPECT_EQ(
      exec_->Execute("SELECT {Time.[Jan]} ON ROWS FROM Warehouse").status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, PagesAxisFoldsIntoRows) {
  QueryResult r = MustExecute(
      "SELECT {Time.[Qtr1]} ON COLUMNS, {[NY], [MA]} ON ROWS, "
      "{Measures.[Salary], Measures.[Benefits]} ON PAGES FROM Warehouse "
      "WHERE ([Lisa])");
  // Page-major: (Salary, NY), (Salary, MA), (Benefits, NY), (Benefits, MA).
  ASSERT_EQ(r.grid.num_rows(), 4);
  EXPECT_EQ(r.grid.row_labels()[0], "Salary, NY");
  EXPECT_EQ(r.grid.row_labels()[2], "Benefits, NY");
  EXPECT_EQ(r.grid.at(0, 0), CellValue(30.0));   // Lisa's Q1 salary in NY.
  EXPECT_TRUE(r.grid.at(2, 0).is_null());        // No benefits data.
  // Sharing a dimension between PAGES and ROWS is rejected.
  EXPECT_EQ(exec_
                ->Execute("SELECT {Time.[Jan]} ON COLUMNS, {[NY]} ON ROWS, "
                          "{[MA]} ON PAGES FROM Warehouse")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// batched_eval off is the per-cell oracle: on an aggregated cube it reads
// no view (zero cache lookups) and returns the batched grid bit for bit.
TEST_F(ExecutorTest, PerCellEvaluationIsALeafRollupOracle) {
  ASSERT_TRUE(db_.BuildAggregates("Warehouse", 6).ok());
  const char* query =
      "SELECT {Time.[Qtr1], Time.[Qtr2], Time.[Jan]} ON COLUMNS, "
      "{[FTE], [PTE], [Contractor], [Organization]} ON ROWS FROM Warehouse "
      "WHERE (Measures.[Salary])";
  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  const QueryResult batched = MustExecute(query);
  MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_GT(delta.counter_value("agg.cache.lookups"), 0);

  QueryOptions per_cell;
  per_cell.batched_eval = false;
  before = reg.TakeSnapshot();
  const QueryResult oracle = MustExecute(query, per_cell);
  delta = MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_EQ(delta.counter_value("agg.cache.lookups"), 0);
  EXPECT_EQ(delta.counter_value("agg.batch.refs"), 0);

  ASSERT_EQ(batched.grid.num_rows(), oracle.grid.num_rows());
  ASSERT_EQ(batched.grid.num_columns(), oracle.grid.num_columns());
  for (int r = 0; r < batched.grid.num_rows(); ++r) {
    for (int c = 0; c < batched.grid.num_columns(); ++c) {
      const CellValue a = batched.grid.at(r, c);
      const CellValue b = oracle.grid.at(r, c);
      ASSERT_EQ(a.is_null(), b.is_null()) << r << "," << c;
      if (!a.is_null()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(a.value()),
                  std::bit_cast<uint64_t>(b.value()))
            << r << "," << c;
      }
    }
  }
}

// A leaf cell that a rule defines (Margin% = Margin / COGS * 100, over the
// East override of Margin) evaluates its rule under a what-if as in the
// plain query. The perspective {Jan} leaves every single-instance product
// as it is, so each grid cell must equal the plain query's, in either mode,
// batched or per-cell.
TEST_F(ExecutorTest, LeafRuleCellsUnderAnIdentityPerspectiveMatchThePlainQuery) {
  Database db;
  ASSERT_TRUE(db.AddCube("Sales", BuildFinancialCube()).ok());
  ASSERT_TRUE(
      db.AddRule("Sales", "FOR Market = East, Margin = 0.93 * Sales - COGS")
          .ok());
  ASSERT_TRUE(db.AddRule("Sales", "[Margin%] = Margin / COGS * 100").ok());
  Executor exec(&db);
  const std::string select =
      "SELECT {CrossJoin({[Measures].[Margin%]}, {[Time].[Jan], [Time].[Feb]})}"
      " ON COLUMNS, {CrossJoin({[TV], [Radio], [Amp]}, {[NY], [CA]})} ON ROWS "
      "FROM Sales";
  Result<QueryResult> plain = exec.Execute(select);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(plain->grid.num_rows(), 6);
  ASSERT_EQ(plain->grid.num_columns(), 2);
  EXPECT_EQ(plain->grid.at(0, 0), CellValue((0.93 * 100 - 60) / 60 * 100));
  EXPECT_EQ(plain->grid.at(1, 0), CellValue(40.0 / 60 * 100));
  for (const char* mode : {"", " VISUAL"}) {
    for (bool batched : {true, false}) {
      QueryOptions options;
      options.batched_eval = batched;
      Result<QueryResult> whatif = exec.Execute(
          std::string("WITH PERSPECTIVE {(Jan)} FOR Product STATIC") + mode +
              " " + select,
          options);
      ASSERT_TRUE(whatif.ok()) << whatif.status().ToString();
      ASSERT_EQ(whatif->grid.num_rows(), plain->grid.num_rows());
      ASSERT_EQ(whatif->grid.num_columns(), plain->grid.num_columns());
      for (int r = 0; r < plain->grid.num_rows(); ++r) {
        for (int c = 0; c < plain->grid.num_columns(); ++c) {
          const CellValue want = plain->grid.at(r, c);
          const CellValue got = whatif->grid.at(r, c);
          ASSERT_FALSE(got.is_null())
              << "mode '" << mode << "' batched " << batched << " cell " << r
              << "," << c;
          EXPECT_EQ(std::bit_cast<uint64_t>(want.value()),
                    std::bit_cast<uint64_t>(got.value()))
              << "mode '" << mode << "' batched " << batched << " cell " << r
              << "," << c;
        }
      }
    }
  }
}

// A non-visual query reads a derived cell that names an introduced member
// from the what-if output, which the stored input lacks, through a batch
// prepared over those refs: two plans (input and output), and values equal
// to the per-cell oracle's.
TEST_F(ExecutorTest, NonVisualRefsNamingNewMembersReadTheOutputThroughABatch) {
  const char* query =
      "WITH INTRODUCE {([Consulting], [Organization]), "
      "([Ann], [Consulting], [Mar], CLONE [Lisa] 1.0)} FOR Organization "
      "SELECT {Time.[Feb], Time.[Mar]} ON COLUMNS, {[Consulting], [FTE]} "
      "ON ROWS FROM Warehouse WHERE ([NY], [Salary])";
  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  const QueryResult batched = MustExecute(query);
  MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_EQ(delta.counter_value("agg.batch.plans"), 2);
  QueryOptions per_cell;
  per_cell.batched_eval = false;
  const QueryResult oracle = MustExecute(query, per_cell);
  ASSERT_EQ(batched.grid.num_rows(), 2);
  ASSERT_EQ(oracle.grid.num_rows(), 2);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(batched.grid.at(r, c), oracle.grid.at(r, c)) << r << "," << c;
    }
  }
  EXPECT_EQ(batched.grid.at(0, 1), CellValue(10.0));  // Ann's cloned Mar.
}

TEST_F(ExecutorTest, GridToStringRendersTable) {
  QueryResult r = MustExecute(
      "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[Lisa]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  std::string table = r.grid.ToString();
  EXPECT_NE(table.find("Jan"), std::string::npos);
  EXPECT_NE(table.find("FTE/Lisa"), std::string::npos);
  EXPECT_NE(table.find("10"), std::string::npos);
}

}  // namespace
}  // namespace olap
