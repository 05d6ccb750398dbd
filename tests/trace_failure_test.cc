// Error paths must leave closed, well-formed span trees with the failure
// recorded — a query or storage operation that dies half-way cannot leak an
// open span (which would poison the whole session's trace).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <vector>

#include "common/trace.h"
#include "engine/executor.h"
#include "storage/cube_io.h"
#include "storage/simulated_disk.h"
#include "support/fault_env.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

class TraceFailureTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (TraceCollector::enabled()) TraceCollector::DisableAndDrain();
  }

  // Asserts the drained session is closed and well-formed, and that at
  // least one span named `span` carries an error whose text mentions
  // `detail_fragment`.
  void ExpectClosedErrorTree(const TraceData& data, const std::string& span,
                             const std::string& detail_fragment) {
    std::string why;
    EXPECT_TRUE(data.WellFormed(&why)) << why;
    bool found = false;
    for (const SpanRecord& s : data.spans) {
      EXPECT_GT(s.end_ns, 0) << s.name << " left open";
      if (s.name == span && !s.ok) {
        found = true;
        EXPECT_NE(s.detail.find(detail_fragment), std::string::npos)
            << s.detail;
      }
    }
    EXPECT_TRUE(found) << "no failed '" << span << "' span recorded";
  }
};

TEST_F(TraceFailureTest, FetchChunkWithoutBackingClosesWithError) {
  SimulatedDisk disk(DiskModel{}, 4);
  ASSERT_TRUE(TraceCollector::Enable());
  Result<Chunk> chunk = disk.FetchChunk(7);
  EXPECT_FALSE(chunk.ok());
  ExpectClosedErrorTree(TraceCollector::DisableAndDrain(), "disk.fetch_chunk",
                        "backing");
}

TEST_F(TraceFailureTest, LoadFailureUnderFaultEnvClosesWithError) {
  PaperExample ex = BuildPaperExample();
  const std::string path = TempPath("trace_failure.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());

  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kUnavailable,
                  FaultInjectingEnv::kForever);
  LoadOptions options;
  options.env = &env;

  ASSERT_TRUE(TraceCollector::Enable());
  Result<Cube> loaded = LoadCube(path, options);
  EXPECT_FALSE(loaded.ok());
  ExpectClosedErrorTree(TraceCollector::DisableAndDrain(), "storage.load", "");
  std::remove(path.c_str());
}

TEST_F(TraceFailureTest, RetriedLoadRecordsEveryAttemptThenError) {
  PaperExample ex = BuildPaperExample();
  const std::string path = TempPath("trace_failure_retry.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());

  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kUnavailable,
                  FaultInjectingEnv::kForever);
  LoadOptions options;
  options.env = &env;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0;

  ASSERT_TRUE(TraceCollector::Enable());
  Result<Cube> loaded = LoadCubeWithRetry(path, options, policy);
  EXPECT_FALSE(loaded.ok());
  TraceData data = TraceCollector::DisableAndDrain();
  ExpectClosedErrorTree(data, "storage.load_retry", "");
  // One inner load span per attempt, all closed, all failed.
  EXPECT_EQ(data.CountOf("storage.load"), 3);
  for (const SpanRecord& s : data.spans) {
    if (s.name == "storage.load") {
      EXPECT_FALSE(s.ok);
    }
  }
  std::remove(path.c_str());
}

TEST_F(TraceFailureTest, FailedQueryClosesTheWholeTree) {
  PaperExample ex = BuildPaperExample();
  Database db;
  ASSERT_TRUE(db.AddCube("Warehouse", ex.cube).ok());
  Executor exec(&db);

  // A bind-time failure (unknown member): the query dies before evaluation.
  ASSERT_TRUE(TraceCollector::Enable());
  Result<QueryResult> r = exec.Execute(
      "SELECT {Time.[Nonexistent]} ON COLUMNS FROM Warehouse");
  EXPECT_FALSE(r.ok());
  TraceData data = TraceCollector::DisableAndDrain();
  ExpectClosedErrorTree(data, "query.execute", "");
  EXPECT_EQ(data.CountOf("query.parse"), 1);
  EXPECT_EQ(data.CountOf("query.bind"), 1);
  // Phases after the failure never ran — and left no dangling spans.
  EXPECT_EQ(data.CountOf("query.evaluate"), 0);
}

TEST_F(TraceFailureTest, FaultMidStreamClosesFetchRunSpansWithError) {
  PaperExample ex = BuildPaperExample();
  const std::string path = TempPath("trace_failure_stream.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());

  std::vector<ChunkId> schedule;
  ex.cube.ForEachChunk(
      [&](ChunkId id, const Chunk&) { schedule.push_back(id); });
  ASSERT_GE(schedule.size(), 2u);

  FaultInjectingEnv env(Env::Default());
  SimulatedDisk disk(DiskModel{}, 0);
  // Attach through the healthy env (indexing must succeed), then let the
  // first ranged read through and fail every later one: the fault lands
  // mid-stream, inside a disk.fetch_run span, after chunks were delivered.
  ASSERT_TRUE(disk.AttachBackingFile(&env, path).ok());
  env.InjectError(FaultOp::kRead, /*skip=*/1, StatusCode::kUnavailable,
                  FaultInjectingEnv::kForever);

  ASSERT_TRUE(TraceCollector::Enable());
  int delivered = 0;
  const Status failure = disk.ReadSchedule(
      schedule, [&](ChunkId, const Chunk&) { ++delivered; });
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable) << failure.ToString();
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, static_cast<int>(schedule.size()));
  ExpectClosedErrorTree(TraceCollector::DisableAndDrain(), "disk.fetch_run",
                        "");
  std::remove(path.c_str());
}

TEST_F(TraceFailureTest, RejectedWhatIfSpecClosesComputeSpanWithError) {
  PaperExample ex = BuildPaperExample();

  // An invalid spec straight at the what-if layer (no varying dimension):
  // ComputePerspectiveCube fails before any operator runs, and its span
  // must close carrying the error.
  WhatIfSpec spec;
  spec.varying_dim = -1;
  EvalStats stats;
  ScenarioEvalOptions opts;
  opts.stats = &stats;
  ASSERT_TRUE(TraceCollector::Enable());
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex.cube, spec, opts);
  EXPECT_FALSE(pc.ok());
  ExpectClosedErrorTree(TraceCollector::DisableAndDrain(),
                        "whatif.compute_perspective_cube", "varying");
}

}  // namespace
}  // namespace olap
