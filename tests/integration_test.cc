// End-to-end: the Sec. 6 workforce cube driven through the Fig. 10 queries
// via the full engine stack (parser -> binder -> what-if -> grid).

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "workload/workforce.h"

namespace olap {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static WorkforceConfig Config() {
    WorkforceConfig config;
    config.num_departments = 10;
    config.num_employees = 120;
    config.num_changing = 12;
    config.num_measures = 4;
    config.num_scenarios = 2;
    config.seed = 2026;
    return config;
  }

  void SetUp() override {
    WorkforceCube wf = BuildWorkforceCube(Config());
    dept_dim_ = wf.dept_dim;
    changing_ = wf.changing_employees;
    ASSERT_TRUE(RegisterWorkforce(&db_, "App.Db", std::move(wf)).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  QueryResult MustExecute(const std::string& mdx,
                          const QueryOptions& options = QueryOptions()) {
    Result<QueryResult> r = exec_->Execute(mdx, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *std::move(r) : QueryResult{};
  }

  int dept_dim_ = 0;
  std::vector<MemberId> changing_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

// Fig. 10(a): static multi-perspective over all changing employees.
TEST_F(IntegrationTest, Fig10aStaticQuery) {
  QueryResult r = MustExecute(R"(
    WITH perspective {(Jan), (Jul)} for Department STATIC
    select {CrossJoin(
              {[Account].Levels(0).Members},
              {([Current], [Local], [BU Version_1], [HSP_InputValue])})}
           on columns,
           {CrossJoin(
              { Union(
                  {Union({[EmployeesWithAtleastOneMove-Set1].Children},
                         {[EmployeesWithAtleastOneMove-Set2].Children})},
                  {[EmployeesWithAtleastOneMove-Set3].Children})},
              {Descendants([Period],1,self_and_after)})}
           DIMENSION PROPERTIES [Department] on rows
    from [App].[Db])");
  EXPECT_TRUE(r.used_whatif);
  EXPECT_EQ(r.grid.num_columns(), 4);  // 4 accounts x 1 tuple.
  // Rows: (changing-employee instances active at Jan or Jul) x (4 quarters
  // + 12 months). Each employee has 1..2 surviving instances here.
  EXPECT_GT(r.grid.num_rows(), 0);
  EXPECT_EQ(r.grid.num_rows() % 16, 0);
  EXPECT_EQ(r.grid.num_property_columns(), 1);
  EXPECT_GT(r.grid.CountNonNull(), 0);
}

// Fig. 10(b): dynamic forward on a single employee.
TEST_F(IntegrationTest, Fig10bForwardQuery) {
  QueryResult r = MustExecute(R"(
    WITH perspective {(Jan), (Apr), (Jul), (Oct)} for Department DYNAMIC FORWARD
    select {CrossJoin({[Account].Levels(0).Members},
                      {([Current], [Local], [BU Version_1], [HSP_InputValue])})}
           on columns,
           {CrossJoin({EmployeeS3}, {Descendants([Period],1,self_and_after)})}
           DIMENSION PROPERTIES [Department] on rows
    from [App].[Db])");
  EXPECT_TRUE(r.used_whatif);
  EXPECT_EQ(r.grid.num_columns(), 4);
  EXPECT_GT(r.grid.num_rows(), 0);
}

// Fig. 10(c): Head(set, k) controls the number of varying members.
TEST_F(IntegrationTest, Fig10cHeadQuery) {
  QueryResult small = MustExecute(R"(
    WITH perspective {(Jan), (Apr), (Jul), (Oct)} for Department DYNAMIC FORWARD
    select {CrossJoin({[Account].Levels(0).Members},
                      {([Current], [Local], [BU Version_1], [HSP_InputValue])})}
           on columns,
           {CrossJoin({Head({[EmployeesWithAtleastOneMove-Set1].Children}, 2)},
                      {Descendants([Period],1,self_and_after)})}
           DIMENSION PROPERTIES [Department] on rows
    from [App].[Db])");
  QueryResult larger = MustExecute(R"(
    WITH perspective {(Jan), (Apr), (Jul), (Oct)} for Department DYNAMIC FORWARD
    select {CrossJoin({[Account].Levels(0).Members},
                      {([Current], [Local], [BU Version_1], [HSP_InputValue])})}
           on columns,
           {CrossJoin({Head({[EmployeesWithAtleastOneMove-Set1].Children}, 4)},
                      {Descendants([Period],1,self_and_after)})}
           DIMENSION PROPERTIES [Department] on rows
    from [App].[Db])");
  EXPECT_GT(larger.grid.num_rows(), small.grid.num_rows());
  EXPECT_GE(larger.whatif_stats.cells_moved, small.whatif_stats.cells_moved);
}

// The strategies agree on the real workload, for static, forward and
// backward, in both modes, over every changing employee. {Mar, Jun, Sep}
// leaves moments before Pmin and after Pmax, where dynamic semantics keep
// the original assignment of every instance surviving *any* perspective;
// VISUAL rows show it, because a revisiting employee's member-level cells
// are then summed from the relocated leaves.
TEST_F(IntegrationTest, StrategiesAgreeOnWorkforce) {
  for (const char* perspectives :
       {"{(Jan), (Apr), (Jul)}", "{(Mar), (Jun), (Sep)}"}) {
    for (const char* sem : {"STATIC", "DYNAMIC FORWARD", "DYNAMIC BACKWARD"}) {
      for (const char* mode : {"", " VISUAL"}) {
        const std::string what = std::string(perspectives) + " " + sem + mode;
        std::string query = std::string("WITH perspective ") + perspectives +
                            " for Department " + sem + mode + R"(
          select {CrossJoin({[Account].Levels(0).Members}, {([Current])})}
                 on columns,
                 {CrossJoin(
                    {Union({Union({[EmployeesWithAtleastOneMove-Set1].Children},
                                  {[EmployeesWithAtleastOneMove-Set2].Children})},
                           {[EmployeesWithAtleastOneMove-Set3].Children})},
                    {Descendants([Period],0,leaves)})} on rows
          from [App].[Db])";
        QueryOptions multi;
        multi.strategy = EvalStrategy::kMultipleMdx;
        QueryResult a = MustExecute(query);
        QueryResult b = MustExecute(query, multi);
        ASSERT_EQ(a.grid.num_rows(), b.grid.num_rows()) << what;
        for (int row = 0; row < a.grid.num_rows(); ++row) {
          for (int col = 0; col < a.grid.num_columns(); ++col) {
            ASSERT_EQ(a.grid.at(row, col), b.grid.at(row, col))
                << what << " " << row << "," << col;
          }
        }
      }
    }
  }
}

// Conservation: forward relocation only moves values between instances of
// the same member, so any member's full-year total is unchanged.
TEST_F(IntegrationTest, ForwardPreservesMemberYearTotals) {
  const Cube& cube = *db_.FindCube("App.Db").value();
  const Dimension& dept = cube.schema().dimension(dept_dim_);
  MemberId emp = changing_[0];
  std::string emp_name = dept.member(emp).name;

  auto year_total = [&](const char* with_clause) {
    std::string query = std::string(with_clause) +
                        " select {CrossJoin({[Account].Levels(0).Members},"
                        "{([Current])})} on columns, {[Department].[" +
                        emp_name + "]} on rows from [App].[Db]";
    QueryResult r = MustExecute(query);
    CellValue sum;
    for (int row = 0; row < r.grid.num_rows(); ++row) {
      for (int col = 0; col < r.grid.num_columns(); ++col) {
        sum += r.grid.at(row, col);
      }
    }
    return sum;
  };

  CellValue original = year_total("");
  CellValue forward = year_total(
      "WITH perspective {(Jan)} for Department DYNAMIC FORWARD VISUAL");
  EXPECT_EQ(original, forward);
}

// Sanity: a no-clause query sees the raw cube, aggregated.
TEST_F(IntegrationTest, PlainAggregationQuery) {
  QueryResult r = MustExecute(
      "select {([Current], [Local], [BU Version_1], [HSP_InputValue])} "
      "on columns, {Descendants([Period],1)} on rows from [App].[Db]");
  // 4 quarters; each aggregates 3 months of every employee/measure.
  EXPECT_EQ(r.grid.num_rows(), 4);
  for (int q = 0; q < 4; ++q) {
    EXPECT_TRUE(r.grid.at(q, 0).has_value());
  }
}

}  // namespace
}  // namespace olap
