// Query-governor contract: deadlines and cancellation surface as
// kDeadlineExceeded / kCancelled, pressure walks the degradation ladder
// (recorded in governor.* metrics, the query result and EXPLAIN ANALYZE)
// instead of failing outright, degraded and cancelled-then-retried queries
// stay bit-identical to the ungoverned oracle, and every exit path leaves
// the engine reusable (reservations released, the disk readable).

#include "engine/governor.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "agg/chunk_aggregator.h"
#include "common/metrics.h"
#include "engine/executor.h"
#include "storage/cube_io.h"
#include "storage/simulated_disk.h"
#include "support/fault_env.h"
#include "workload/paper_example.h"
#include "workload/product.h"

namespace olap {
namespace {

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

void ExpectGridsBitIdentical(const ResultGrid& expected,
                             const ResultGrid& actual) {
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  for (int r = 0; r < expected.num_rows(); ++r) {
    for (int c = 0; c < expected.num_columns(); ++c) {
      EXPECT_EQ(BitsOf(expected.at(r, c)), BitsOf(actual.at(r, c)))
          << "cell (" << r << ", " << c << ")";
    }
  }
}

DiskModel TestModel() {
  DiskModel m;
  m.seek_seconds_per_chunk = 1e-6;
  m.max_seek_seconds = 1e-3;
  m.transfer_seconds = 1e-4;
  return m;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

bool Contains(const std::vector<std::string>& steps, const char* step) {
  for (const std::string& s : steps) {
    if (s == step) return true;
  }
  return false;
}

// ---- GovernorOptions / QueryContext unit behaviour -----------------------

TEST(GovernorOptionsTest, ActiveOnlyWhenSomeLimitOrFlagIsSet) {
  EXPECT_FALSE(GovernorOptions{}.active());
  GovernorOptions enabled;
  enabled.enabled = true;
  EXPECT_TRUE(enabled.active());
  GovernorOptions deadline;
  deadline.deadline_seconds = 1.0;
  EXPECT_TRUE(deadline.active());
  GovernorOptions budget;
  budget.memory_budget_cells = 100;
  EXPECT_TRUE(budget.active());
  GovernorOptions cancellable;
  CancellationSource source;
  cancellable.cancel = source.token();
  EXPECT_TRUE(cancellable.active());
}

TEST(QueryContextTest, BudgetDenialLatchesMemoryPressure) {
  GovernorOptions options;
  options.memory_budget_cells = 10;
  QueryContext ctx(options);
  EXPECT_FALSE(ctx.UnderMemoryPressure());
  EXPECT_TRUE(ctx.TryReserveCells(8));
  EXPECT_EQ(ctx.reserved_cells(), 8);
  EXPECT_FALSE(ctx.TryReserveCells(8));  // 16 > 10: denied.
  EXPECT_TRUE(ctx.UnderMemoryPressure());  // Sticky.
  EXPECT_EQ(ctx.reserved_cells(), 8);      // Denial reserves nothing.
  ctx.ReleaseCells(8);
  EXPECT_EQ(ctx.reserved_cells(), 0);
  EXPECT_TRUE(ctx.UnderMemoryPressure());  // Still sticky after release.
}

TEST(QueryContextTest, UnlimitedBudgetAlwaysReserves) {
  GovernorOptions options;
  options.enabled = true;  // No memory budget.
  QueryContext ctx(options);
  EXPECT_TRUE(ctx.TryReserveCells(int64_t{1} << 40));
  EXPECT_FALSE(ctx.UnderMemoryPressure());
  ctx.ReleaseCells(int64_t{1} << 40);
}

TEST(QueryContextTest, DestructorReturnsLeakedReservationsToTheGauge) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Gauge* gauge = reg.gauge("governor.mem.reserved_cells");
  const int64_t before = gauge->value();
  {
    GovernorOptions options;
    options.memory_budget_cells = 1000;
    QueryContext ctx(options);
    ASSERT_TRUE(ctx.TryReserveCells(500));
    EXPECT_EQ(gauge->value(), before + 500);
    // No release: the context must give the cells back itself.
  }
  EXPECT_EQ(gauge->value(), before);
}

TEST(QueryContextTest, DegradationStepsDeduplicateAndKeepOrder) {
  GovernorOptions options;
  options.enabled = true;
  QueryContext ctx(options);
  ctx.RecordDegradation(DegradeStep::kSerialRollup);
  ctx.RecordDegradation(DegradeStep::kBatchedEvalOff);
  ctx.RecordDegradation(DegradeStep::kSerialRollup);  // Duplicate collapses.
  const std::vector<std::string> steps = ctx.degradation_steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0], "serial_rollup");
  EXPECT_EQ(steps[1], "batched_eval_off");
}

TEST(QueryContextTest, PressureFractionZeroMeansImmediatePressure) {
  GovernorOptions options;
  options.deadline_seconds = 3600.0;
  options.pressure_fraction = 0.0;
  QueryContext ctx(options);
  EXPECT_TRUE(ctx.UnderDeadlinePressure());
  EXPECT_TRUE(ctx.CheckInterrupted("phase").ok());  // Far from the deadline.
}

// ---- executor integration -------------------------------------------------

class GovernedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = BuildPaperExample();
    ASSERT_TRUE(db_.AddCube("Warehouse", ex_.cube).ok());
    exec_ = std::make_unique<Executor>(&db_);
  }

  QueryResult MustExecute(const std::string& mdx, const QueryOptions& options) {
    Result<QueryResult> r = exec_->Execute(mdx, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << mdx;
    return r.ok() ? *std::move(r) : QueryResult{};
  }

  PaperExample ex_;
  Database db_;
  std::unique_ptr<Executor> exec_;
};

// A what-if query over aggregate rows: touches Split/Relocate, batched
// evaluation (derived cells) and the parallel evaluate phase.
const char kGovernedQuery[] =
    "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
    "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
    "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
    "WHERE (Location.[NY], Measures.[Salary])";

TEST_F(GovernedQueryTest, EnabledButIdleGovernorChangesNothing) {
  QueryOptions plain;
  plain.eval_threads = 2;
  const QueryResult oracle = MustExecute(kGovernedQuery, plain);

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  QueryOptions governed = plain;
  governed.governor.enabled = true;
  const QueryResult r = MustExecute(kGovernedQuery, governed);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  ExpectGridsBitIdentical(oracle.grid, r.grid);
  EXPECT_TRUE(r.governor_steps.empty());
  EXPECT_EQ(delta.counter_value("governor.queries"), 1);
  EXPECT_EQ(delta.counter_value("governor.cancelled"), 0);
  EXPECT_EQ(delta.counter_value("governor.deadline_exceeded"), 0);
}

TEST_F(GovernedQueryTest, PreCancelledQueryReturnsCancelled) {
  CancellationSource source;
  source.RequestCancel();
  QueryOptions options;
  options.governor.cancel = source.token();

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  Result<QueryResult> r = exec_->Execute(kGovernedQuery, options);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_EQ(delta.counter_value("governor.cancelled"), 1);

  // The engine stays reusable: the same Executor then serves the same
  // query, bit-identical to the ungoverned oracle.
  const QueryResult oracle = MustExecute(kGovernedQuery, QueryOptions());
  const QueryResult retry = MustExecute(kGovernedQuery, QueryOptions());
  ExpectGridsBitIdentical(oracle.grid, retry.grid);
}

TEST_F(GovernedQueryTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  QueryOptions options;
  options.governor.deadline_seconds = 1e-9;
  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  Result<QueryResult> r = exec_->Execute(kGovernedQuery, options);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_EQ(delta.counter_value("governor.deadline_exceeded"), 1);
}

// A query whose derived cells leave Location at its droppable root: the
// batch planner materializes a scratch cover view for it (kGovernedQuery
// pins every dimension, so its "view" would be the raw cube and no scratch
// is ever planned — no allocation to deny, so no batched_eval_off rung).
const char kBudgetQuery[] =
    "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
    "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
    "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
    "WHERE (Measures.[Salary])";

TEST_F(GovernedQueryTest, DeadlinePressureWalksTheLadderNotFailure) {
  QueryOptions plain;
  plain.eval_threads = 4;
  const QueryResult oracle = MustExecute(kBudgetQuery, plain);

  // A huge deadline with pressure_fraction 0: the query is "pressured"
  // from the first phase but nowhere near failing — it must degrade and
  // still succeed with bit-identical results.
  QueryOptions governed = plain;
  governed.governor.deadline_seconds = 3600.0;
  governed.governor.pressure_fraction = 0.0;

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  const QueryResult r = MustExecute(kBudgetQuery, governed);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  ExpectGridsBitIdentical(oracle.grid, r.grid);
  EXPECT_TRUE(Contains(r.governor_steps, "batched_eval_off"));
  EXPECT_TRUE(Contains(r.governor_steps, "serial_rollup"));
  EXPECT_GE(delta.counter_value("governor.degrade.batched_eval_off"), 1);
  EXPECT_GE(delta.counter_value("governor.degrade.serial_rollup"), 1);
  EXPECT_EQ(delta.counter_value("governor.deadline_exceeded"), 0);
}

TEST_F(GovernedQueryTest, MemoryBudgetDenialShedsBatchedEval) {
  const QueryResult oracle = MustExecute(kBudgetQuery, QueryOptions());

  QueryOptions governed;
  governed.governor.memory_budget_cells = 1;  // Denies any scratch plan.

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  const QueryResult r = MustExecute(kBudgetQuery, governed);
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  ExpectGridsBitIdentical(oracle.grid, r.grid);
  EXPECT_TRUE(Contains(r.governor_steps, "batched_eval_off"));
  EXPECT_GE(delta.counter_value("governor.mem.denied"), 1);
  EXPECT_GE(delta.counter_value("agg.batch.budget_denied"), 1);
  // All reservations returned by the end of the query.
  EXPECT_EQ(reg.gauge("governor.mem.reserved_cells")->value(), 0);
}

// COMPARE's shared scratch views go through the same reservation as an
// ordinary query's: a denial sheds them, records the rung and leaves the
// grid unchanged.
TEST_F(GovernedQueryTest, MemoryBudgetDenialShedsCompareScratchViews) {
  const std::string query =
      std::string("COMPARE ") + kBudgetQuery +
      " VERSUS "
      "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
      "{[FTE], [PTE], [Contractor]} ON ROWS FROM Warehouse "
      "WHERE (Measures.[Salary])";
  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  const QueryResult oracle = MustExecute(query, QueryOptions());
  MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_GE(delta.counter_value("scenario.compare.shared_views"), 1);

  QueryOptions governed;
  governed.governor.memory_budget_cells = 1;  // Denies any scratch plan.
  before = reg.TakeSnapshot();
  const QueryResult r = MustExecute(query, governed);
  delta = MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  ExpectGridsBitIdentical(oracle.grid, r.grid);
  EXPECT_TRUE(Contains(r.governor_steps, "batched_eval_off"));
  EXPECT_GE(delta.counter_value("governor.mem.denied"), 1);
  EXPECT_EQ(delta.counter_value("scenario.compare.shared_views"), 0);
  EXPECT_EQ(reg.gauge("governor.mem.reserved_cells")->value(), 0);
}

TEST_F(GovernedQueryTest, CancelDuringExecutionLeavesExecutorReusable) {
  CancellationSource source;
  source.CancelAfterPolls(5);  // Trip early, mid-pipeline.
  QueryOptions options;
  options.eval_threads = 2;
  options.governor.cancel = source.token();
  Result<QueryResult> r = exec_->Execute(kGovernedQuery, options);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();

  const QueryResult oracle = MustExecute(kGovernedQuery, QueryOptions());
  QueryOptions parallel;
  parallel.eval_threads = 4;
  const QueryResult retry = MustExecute(kGovernedQuery, parallel);
  ExpectGridsBitIdentical(oracle.grid, retry.grid);
}

TEST_F(GovernedQueryTest, ExplainAnalyzeShowsLadderSteps) {
  QueryOptions governed;
  governed.eval_threads = 4;
  governed.governor.deadline_seconds = 3600.0;
  governed.governor.pressure_fraction = 0.0;
  Result<std::string> text = exec_->ExplainAnalyze(kBudgetQuery, governed);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("governor: degraded ["), std::string::npos);
  EXPECT_NE(text->find("batched_eval_off"), std::string::npos);
  EXPECT_NE(text->find("serial_rollup"), std::string::npos);
}

TEST_F(GovernedQueryTest, ExplainAnalyzeShowsIdleGovernor) {
  QueryOptions governed;
  governed.governor.enabled = true;
  Result<std::string> text = exec_->ExplainAnalyze(kGovernedQuery, governed);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("governor: active, no degradation"), std::string::npos);
}

// ---- out-of-core stream: read faults and cancellation ---------------------

class OutOfCoreStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProductCubeConfig config;
    config.separation_chunks = 30;
    config.chunk_products = 1;
    config.fill_data = true;
    workload_ = BuildProductCube(config);
    path_ = TempPath("governor_ooc_cube.olap");
    ASSERT_TRUE(SaveCube(workload_.cube, path_).ok());
    masks_ = {GroupByMask{0b001}, GroupByMask{0b011}};
    order_.resize(workload_.cube.num_dims());
    std::iota(order_.begin(), order_.end(), 0);
    ChunkAggregator oracle_agg(workload_.cube);
    oracle_ = oracle_agg.Compute(masks_, order_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  ProductCube workload_;
  std::string path_;
  std::vector<GroupByMask> masks_;
  std::vector<int> order_;
  std::vector<GroupByResult> oracle_;
};

TEST_F(OutOfCoreStreamTest, TransientExhaustionRecoversBitIdentically) {
  FaultInjectingEnv env(Env::Default());
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(&env, path_).ok());
  // Inject after attach so the fault hits the stream's first ranged read,
  // not the backing-file indexing pass.
  env.InjectError(FaultOp::kRead, /*skip=*/0, StatusCode::kResourceExhausted,
                  /*times=*/1);

  MetricsRegistry& reg = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  ChunkAggregator agg(workload_.cube);
  Result<std::vector<GroupByResult>> views =
      agg.ComputeOutOfCore(masks_, order_, &disk);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  const MetricsRegistry::Snapshot delta =
      MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());

  for (size_t i = 0; i < masks_.size(); ++i) {
    EXPECT_TRUE((*views)[i] == oracle_[i]) << "mask " << i;
  }
  // The fault was taken and retried, not skipped.
  EXPECT_EQ(delta.counter_value("disk.fetch_failures"), 1);
}

TEST_F(OutOfCoreStreamTest, PersistentExhaustionSurfacesTheError) {
  FaultInjectingEnv env(Env::Default());
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(&env, path_).ok());
  env.InjectError(FaultOp::kRead, /*skip=*/0, StatusCode::kResourceExhausted,
                  FaultInjectingEnv::kForever);

  ChunkAggregator agg(workload_.cube);
  Result<std::vector<GroupByResult>> views =
      agg.ComputeOutOfCore(masks_, order_, &disk);
  // The retries are spent: the error surfaces instead of looping forever.
  EXPECT_EQ(views.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(OutOfCoreStreamTest, MidStreamCancelReturnsPromptlyAndKeepsTheDisk) {
  // Reads flow through the fault harness, as in the fault cases above.
  FaultInjectingEnv env(Env::Default());
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(&env, path_).ok());
  // Both ends of the id range alternately: two ranged reads per window.
  std::vector<ChunkId> stored;
  workload_.cube.ForEachChunk(
      [&](ChunkId id, const Chunk&) { stored.push_back(id); });
  ASSERT_GT(stored.size(), 4u);
  std::vector<ChunkId> schedule;
  const size_t half = stored.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    schedule.push_back(stored[i]);
    schedule.push_back(stored[stored.size() - 1 - i]);
  }

  CancellationSource source;
  std::chrono::steady_clock::time_point cancelled_at;
  int delivered = 0;
  const Status status = disk.ReadSchedule(
      schedule,
      [&](ChunkId, const Chunk&) {
        if (++delivered == 2) {
          source.RequestCancel();
          cancelled_at = std::chrono::steady_clock::now();
        }
      },
      source.token());
  const auto elapsed = std::chrono::steady_clock::now() - cancelled_at;
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_LT(delivered, static_cast<int>(schedule.size()));
  // Acceptance bound: the cancelled stream returns within 100ms.
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
      100);

  // The disk is immediately reusable for an uncancelled stream.
  size_t next = 0;
  const Status again = disk.ReadSchedule(
      schedule, [&](ChunkId id, const Chunk&) {
        EXPECT_EQ(id, schedule[next]);
        ++next;
      });
  EXPECT_TRUE(again.ok()) << again.ToString();
  EXPECT_EQ(next, schedule.size());
}

}  // namespace
}  // namespace olap
