#include <gtest/gtest.h>

#include "engine/executor.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = BuildPaperExample();
    ASSERT_TRUE(db_.AddCube("Warehouse", ex_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  std::string MustExplain(const std::string& mdx,
                          const QueryOptions& options = QueryOptions()) {
    Result<std::string> r = exec_->Explain(mdx, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : "";
  }

  PaperExample ex_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExplainTest, PlainQuery) {
  std::string plan = MustExplain(
      "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
      "NON EMPTY {[FTE].Children} ON ROWS FROM Warehouse "
      "WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("cube: Warehouse"), std::string::npos);
  EXPECT_NE(plan.find("columns: 2 tuple(s)"), std::string::npos);
  EXPECT_NE(plan.find("rows: 3 tuple(s), NON EMPTY"), std::string::npos);
  EXPECT_NE(plan.find("slicer: 2 coordinate(s)"), std::string::npos);
  EXPECT_EQ(plan.find("what-if"), std::string::npos);
}

TEST_F(ExplainTest, WhatIfQueryShowsSpecAndScope) {
  std::string plan = MustExplain(
      "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("what-if: dimension 'Organization', DYNAMIC FORWARD, "
                      "NON-VISUAL, 2 perspective(s) {1, 3}"),
            std::string::npos);
  EXPECT_NE(plan.find("merge scoped to 1 member(s)"), std::string::npos);
  EXPECT_NE(plan.find("strategy: direct"), std::string::npos);
}

TEST_F(ExplainTest, VisualModeIsUnscoped) {
  std::string plan = MustExplain(
      "WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC FORWARD VISUAL "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("VISUAL, 1 perspective(s)"), std::string::npos);
  EXPECT_NE(plan.find("unscoped merge"), std::string::npos);
}

TEST_F(ExplainTest, StrategyAndAggregatesReported) {
  ASSERT_TRUE(db_.BuildAggregates("Warehouse", 4).ok());
  QueryOptions options;
  options.strategy = EvalStrategy::kMultipleMdx;
  std::string plan = MustExplain(
      "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse",
      options);
  EXPECT_NE(plan.find("strategy: multiple-MDX simulation"), std::string::npos);
  // Non-visual what-if evaluates derived cells on the stored input cube, so
  // the persistent aggregations still apply.
  EXPECT_NE(plan.find("aggregations: 4 view(s), 4 resident, serving derived cells"),
            std::string::npos);
  // Visual mode evaluates the transformed output cube: only the per-query
  // scratch views built by batched evaluation can serve.
  plan = MustExplain(
      "WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC FORWARD VISUAL "
      "SELECT {Time.[Jan]} ON COLUMNS, {[Organization].[Joe]} ON ROWS "
      "FROM Warehouse",
      options);
  EXPECT_NE(plan.find("aggregations: 4 view(s), 4 resident, scratch only (transformed cube)"),
            std::string::npos);
  plan = MustExplain("SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse");
  EXPECT_NE(plan.find("aggregations: 4 view(s), 4 resident, serving derived cells"),
            std::string::npos);
}

TEST_F(ExplainTest, AllocationReported) {
  std::string plan = MustExplain(
      "WITH ALLOCATION {(0.25, [NY], [MA], ([PTE], [Salary]))} "
      "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse");
  EXPECT_NE(plan.find("allocation: move 25% along dimension 'Location'"),
            std::string::npos);
}

TEST_F(ExplainTest, IntroduceReported) {
  std::string plan = MustExplain(
      "WITH INTRODUCE {([Consulting], [Organization]), "
      "([Newbie], [FTE], [Mar], CLONE [Lisa] 0.5)} FOR Organization "
      "SELECT {Time.[Jan]} ON COLUMNS, {[FTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("2 introduced member(s) (1 seeded)"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, CompareShowsBothScenarioPlans) {
  std::string plan = MustExplain(
      "COMPARE "
      "WITH CHANGES {([Contractor].[Joe], [Contractor], [FTE], [Apr])} "
      "VISUAL "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary]) "
      "VERSUS "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  EXPECT_NE(plan.find("compare: delta grid"), std::string::npos) << plan;
  EXPECT_NE(plan.find("-- scenario A --"), std::string::npos);
  EXPECT_NE(plan.find("-- scenario B --"), std::string::npos);
  // Side A's what-if clause renders inside its block; side B is plain.
  EXPECT_NE(plan.find("1 positive change(s)"), std::string::npos);
}

TEST_F(ExplainTest, ExplainAnalyzeRendersComparisonAndComposeSpan) {
  Result<std::string> r = exec_->ExplainAnalyze(
      "COMPARE "
      "WITH CHANGES {([Contractor].[Joe], [Contractor], [FTE], [Apr])} "
      "VISUAL "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE], [Contractor]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary]) "
      "VERSUS "
      "SELECT {Time.[Apr]} ON COLUMNS, {[FTE], [Contractor]} ON ROWS "
      "FROM Warehouse WHERE ([NY], [Salary])");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("comparison: cells=2"), std::string::npos) << *r;
  EXPECT_NE(r->find("containment=equal"), std::string::npos);
  // The profiled span tree includes the scenario algebra's spans.
  EXPECT_NE(r->find("scenario.compare"), std::string::npos);
  EXPECT_NE(r->find("scenario.compose"), std::string::npos);
}

// Members the stored Organization dimension does not have (INTRODUCE'd
// ones) leave the merge unscoped: the planner cannot tell whether they
// aggregate, and scoping never changes results.
TEST_F(ExplainTest, IntroducedMembersLeaveTheMergeUnscoped) {
  for (const char* mdx : {
           // An introduced inner member with a new leaf under it.
           "WITH INTRODUCE {([Consulting], [Organization]), "
           "([Ann], [Consulting], [Mar], CLONE [Lisa] 1.0)} FOR Organization "
           "SELECT {Time.[Feb], Time.[Mar]} ON COLUMNS, "
           "{[Consulting], [FTE]} ON ROWS "
           "FROM Warehouse WHERE ([NY], [Salary])",
           // Only an introduced leaf on the varying axis.
           "WITH INTRODUCE {([Newbie], [FTE], [Mar], CLONE [Lisa] 0.5)} "
           "FOR Organization "
           "SELECT {Time.[Mar]} ON COLUMNS, {[Newbie]} ON ROWS "
           "FROM Warehouse WHERE ([NY], [Salary])",
       }) {
    std::string plan = MustExplain(mdx);
    EXPECT_NE(plan.find("unscoped merge"), std::string::npos) << plan;
    Result<QueryResult> r = exec_->Execute(mdx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

// EXPLAIN prints the plan Execute runs: it says the persistent views serve
// derived cells exactly when executing the query draws hits from them.
TEST_F(ExplainTest, PersistentViewsServeExactlyWhenExplainSaysSo) {
  ASSERT_TRUE(db_.BuildAggregates("Warehouse", 4).ok());
  const AggregateCache* cache = db_.aggregates("Warehouse");
  ASSERT_NE(cache, nullptr);
  auto serves = [&](const std::string& mdx, bool expected) {
    const std::string plan = MustExplain(mdx);
    const bool says = plan.find("serving derived cells") != std::string::npos;
    const int64_t hits = cache->hits;
    Result<QueryResult> r = exec_->Execute(mdx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(says, cache->hits > hits) << plan << mdx;
    EXPECT_EQ(says, expected) << plan << mdx;
  };
  const std::string select =
      "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
      "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
      "WHERE (Measures.[Salary])";
  const std::string changes =
      "WITH CHANGES {([Contractor].[Joe], [Contractor], [FTE], [Apr])} ";
  serves(select, true);
  serves(changes + select, true);           // Non-visual: stored input.
  serves(changes + "VISUAL " + select, false);  // Transformed output.
  serves("COMPARE " + changes + select + " VERSUS " + select, false);
  ASSERT_TRUE(db_.BumpStructuralEpoch("Warehouse").ok());
  serves(select, false);  // Stale key: bypassed.
}

TEST_F(ExplainTest, ErrorsPropagate) {
  EXPECT_FALSE(exec_->Explain("garbage").ok());
  EXPECT_FALSE(exec_->Explain("SELECT {x} ON COLUMNS FROM Nowhere").ok());
}

}  // namespace
}  // namespace olap
