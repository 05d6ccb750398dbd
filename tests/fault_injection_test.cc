// End-to-end fault-injection suite for the storage layer: every scenario
// routes real SaveCube/LoadCube traffic through a FaultInjectingEnv and
// asserts the durability contract of storage/cube_io.h —
//   (a) a crash mid-SaveCube leaves the previous file loadable (atomicity),
//   (b) a bit-flip in a chunk payload is detected as kDataLoss and recovery
//       salvages every other chunk,
//   (c) transient kUnavailable faults are absorbed by the retry policy.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "storage/cube_io.h"
#include "storage/retry.h"
#include "support/fake_clock.h"
#include "support/fault_env.h"
#include "workload/paper_example.h"
#include "workload/workforce.h"

namespace olap {
namespace {

// Unique per test case: cases of the same binary run concurrently under
// `ctest -j`, so a shared filename would race.
std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = info == nullptr
                           ? std::string("unknown")
                           : std::string(info->test_suite_name()) + "_" +
                                 info->name();
  for (char& c : unique) {
    if (c == '/' || c == '\\') c = '_';
  }
  return std::string(::testing::TempDir()) + "/" + unique + "_" + name;
}

WorkforceCube SmallWorkforce() {
  WorkforceConfig config;
  config.num_departments = 4;
  config.num_employees = 20;
  config.num_changing = 5;
  config.num_measures = 2;
  config.num_scenarios = 1;
  return BuildWorkforceCube(config);
}

// The paper cube's signature cell, used to recognize which version of a
// file a load observed.
void ExpectIsPaperCube(const Cube& cube) {
  ASSERT_EQ(cube.schema().num_dimensions(), 4);
  EXPECT_EQ(*cube.GetByName({"Contractor/Joe", "NY", "Mar", "Salary"}),
            CellValue(30.0));
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("fault_injection.olap");
    example_ = BuildPaperExample();
    ASSERT_TRUE(SaveCube(example_.cube, path_).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
  PaperExample example_;
};

// (a) Crash during the temp-file write: the append tears mid-buffer and the
// simulated process dies. The previous file must stay fully loadable and no
// temp file may linger.
TEST_F(FaultInjectionTest, TornWriteMidSaveLeavesPreviousFileLoadable) {
  WorkforceCube replacement = SmallWorkforce();
  FaultInjectingEnv env(Env::Default());
  env.InjectTornWrite(/*skip=*/2, /*fraction=*/0.5);
  SaveOptions options;
  options.env = &env;
  Status s = SaveCube(replacement.cube, path_, options);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();

  EXPECT_FALSE(Env::Default()->FileExists(path_ + ".tmp"));
  Result<Cube> loaded = LoadCube(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIsPaperCube(*loaded);
}

// (a) Crash between fsync and rename: same guarantee.
TEST_F(FaultInjectionTest, CrashBeforeRenameLeavesPreviousFileLoadable) {
  WorkforceCube replacement = SmallWorkforce();
  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kRename, /*skip=*/0, StatusCode::kUnavailable);
  SaveOptions options;
  options.env = &env;
  EXPECT_FALSE(SaveCube(replacement.cube, path_, options).ok());

  EXPECT_FALSE(Env::Default()->FileExists(path_ + ".tmp"));
  Result<Cube> loaded = LoadCube(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIsPaperCube(*loaded);
}

// (a) Failed fsync must not replace the destination either.
TEST_F(FaultInjectionTest, FailedSyncAbortsTheSave) {
  WorkforceCube replacement = SmallWorkforce();
  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kSync, /*skip=*/0, StatusCode::kDataLoss);
  SaveOptions options;
  options.env = &env;
  EXPECT_EQ(SaveCube(replacement.cube, path_, options).code(),
            StatusCode::kDataLoss);
  Result<Cube> loaded = LoadCube(path_);
  ASSERT_TRUE(loaded.ok());
  ExpectIsPaperCube(*loaded);
}

// (b) A single flipped bit in one chunk payload: strict load reports
// kDataLoss; recovery salvages every other chunk bit-exactly.
TEST_F(FaultInjectionTest, BitFlipInChunkPayloadDetectedAndRecovered) {
  Result<CubeChunkIndex> index = IndexCubeChunks(Env::Default(), path_);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_GE(index->entries.size(), 2u) << "need multiple chunks to salvage";

  // Corrupt the second chunk record's payload.
  auto victim = std::next(index->entries.begin());
  const ChunkId victim_id = victim->first;
  FaultInjectingEnv env(Env::Default());
  env.InjectBitFlip(victim->second.payload_offset + 1, 0x10);

  LoadOptions strict;
  strict.env = &env;
  Result<Cube> failed = LoadCube(path_, strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);

  LoadOptions recovery;
  recovery.env = &env;
  recovery.recover = true;
  RecoveryReport report;
  recovery.report = &report;
  Result<Cube> recovered = LoadCube(path_, recovery);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.chunks_total,
            static_cast<int64_t>(index->entries.size()));
  EXPECT_EQ(report.chunks_dropped, 1);
  EXPECT_EQ(report.chunks_salvaged, report.chunks_total - 1);

  // Every cell outside the dropped chunk survived bit-exactly; the dropped
  // chunk reads back as ⊥.
  const ChunkLayout& layout = example_.cube.layout();
  example_.cube.ForEachCell([&](const std::vector<int>& coords, CellValue v) {
    if (layout.ChunkOf(coords) == victim_id) {
      EXPECT_TRUE(recovered->GetCell(coords).is_null());
    } else {
      EXPECT_EQ(recovered->GetCell(coords), v);
    }
  });
}

// (b) Recovery still fails when the schema itself is rotten — there is
// nothing to attach chunks to.
TEST_F(FaultInjectionTest, SchemaCorruptionIsNotRecoverable) {
  FaultInjectingEnv env(Env::Default());
  // Offset 30 lands inside the schema section payload (header is 16 bytes,
  // section framing 8, so ≥24 is schema payload territory).
  env.InjectBitFlip(/*offset=*/30, /*mask=*/0x40);
  LoadOptions recovery;
  recovery.env = &env;
  recovery.recover = true;
  Result<Cube> r = LoadCube(path_, recovery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

// (c) Two transient kUnavailable faults are absorbed by the retry policy
// and the third attempt succeeds — with the documented backoff schedule.
TEST_F(FaultInjectionTest, RetryAbsorbsTwoTransientFaults) {
  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kUnavailable,
                  /*times=*/2);
  LoadOptions load;
  load.env = &env;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.decorrelated_jitter = false;  // Assert the deterministic schedule.
  FakeClock clock;
  Result<Cube> loaded = LoadCubeWithRetry(path_, load, policy, &clock);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIsPaperCube(*loaded);
  EXPECT_EQ(env.op_count(FaultOp::kOpenRead), 3);
  ASSERT_EQ(clock.sleeps().size(), 2u);
  EXPECT_DOUBLE_EQ(clock.sleeps()[0], policy.initial_backoff_seconds);
  EXPECT_DOUBLE_EQ(clock.sleeps()[1],
                   policy.initial_backoff_seconds * policy.backoff_multiplier);
}

// (c) Three transient faults exhaust a three-attempt policy.
TEST_F(FaultInjectionTest, RetryExhaustionSurfacesTheTransientError) {
  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kUnavailable,
                  /*times=*/3);
  LoadOptions load;
  load.env = &env;
  RetryPolicy policy;
  policy.max_attempts = 3;
  FakeClock clock;
  Result<Cube> loaded = LoadCubeWithRetry(path_, load, policy, &clock);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(clock.sleeps().size(), 2u);
}

// (c) The same policy wired through Database::Open.
TEST_F(FaultInjectionTest, DatabaseOpenRetriesTransientFaults) {
  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kUnavailable,
                  /*times=*/2);
  Database db;
  Database::OpenOptions options;
  options.load.env = &env;
  options.retry.max_attempts = 3;
  FakeClock clock;
  options.clock = &clock;
  Status s = db.Open("Warehouse", path_, options);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(clock.sleeps().size(), 2u);
  Result<const Cube*> cube = db.FindCube("Warehouse");
  ASSERT_TRUE(cube.ok());
  ExpectIsPaperCube(**cube);
}

// Permanent faults pass straight through Database::Open without retries.
TEST_F(FaultInjectionTest, DatabaseOpenDoesNotRetryDataLoss) {
  FaultInjectingEnv env(Env::Default());
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kDataLoss,
                  FaultInjectingEnv::kForever);
  Database db;
  Database::OpenOptions options;
  options.load.env = &env;
  FakeClock clock;
  options.clock = &clock;
  Status s = db.Open("Warehouse", path_, options);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(clock.sleeps().empty());
  EXPECT_EQ(env.op_count(FaultOp::kOpenRead), 1);
}

// The compressed format gives the same atomicity + recovery guarantees.
TEST_F(FaultInjectionTest, CompressedChunkBitFlipAlsoDetected) {
  std::string path = TempPath("fault_compressed.olap");
  ASSERT_TRUE(SaveCube(example_.cube, path, /*compress=*/true).ok());
  Result<CubeChunkIndex> index = IndexCubeChunks(Env::Default(), path);
  ASSERT_TRUE(index.ok());
  ASSERT_GE(index->entries.size(), 2u);

  FaultInjectingEnv env(Env::Default());
  env.InjectBitFlip(index->entries.begin()->second.payload_offset, 0x01);
  LoadOptions strict;
  strict.env = &env;
  EXPECT_EQ(LoadCube(path, strict).status().code(), StatusCode::kDataLoss);

  LoadOptions recovery;
  recovery.env = &env;
  recovery.recover = true;
  RecoveryReport report;
  recovery.report = &report;
  Result<Cube> recovered = LoadCube(path, recovery);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.chunks_dropped, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace olap
