// Out-of-core read path invariants: ranged-read cost math, coalesced
// backing-file reads, and the synchronous schedule walk
// (SimulatedDisk::ReadSchedule) — schedule-order delivery bit-identical to
// a per-entry FetchChunk loop, fewer ranged reads than chunks, identical
// charges whether it streams or only charges — plus the out-of-core
// aggregation and executor paths built on top. Fault, retry and cancel
// behaviour of the walk is covered by governor_test (OutOfCoreStreamTest)
// and trace_failure_test.

#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "agg/chunk_aggregator.h"
#include "common/trace.h"
#include "engine/executor.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"
#include "workload/paper_example.h"
#include "workload/product.h"

namespace olap {
namespace {

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

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

void ExpectChunksBitIdentical(const Chunk& expected, const Chunk& actual,
                              const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (int64_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(BitsOf(expected.Get(i)), BitsOf(actual.Get(i)))
        << context << " offset " << i;
  }
}

// ---- ReadRun cost contract ----------------------------------------------

TEST(ReadRunTest, SingleChunkRunMatchesReadChunk) {
  SimulatedDisk a(TestModel(), 0);
  SimulatedDisk b(TestModel(), 0);
  EXPECT_DOUBLE_EQ(a.ReadChunk(7), b.ReadRun(7, 1));
  EXPECT_DOUBLE_EQ(a.ReadChunk(3), b.ReadRun(3, 1));
  EXPECT_DOUBLE_EQ(a.stats().virtual_seconds, b.stats().virtual_seconds);
}

TEST(ReadRunTest, RunChargesOneSeekPlusPerMissTransfers) {
  SimulatedDisk disk(TestModel(), 0);
  // Head at 0; run [10, 15): 10 chunks of travel + 5 transfers.
  double cost = disk.ReadRun(10, 5);
  EXPECT_DOUBLE_EQ(cost, 10 * 1e-6 + 5 * 1e-4);
  EXPECT_EQ(disk.stats().physical_reads, 5);
  EXPECT_EQ(disk.stats().total_seek_chunks, 10);
  EXPECT_EQ(disk.stats().coalesced_reads, 1);
  // Head finished on the run's last chunk: a sequential follow-up run
  // travels one chunk only.
  double next = disk.ReadRun(15, 5);
  EXPECT_DOUBLE_EQ(next, 1 * 1e-6 + 5 * 1e-4);
}

TEST(ReadRunTest, RunIsCheaperThanSeparateSeeks) {
  SimulatedDisk coalesced(TestModel(), 0);
  SimulatedDisk separate(TestModel(), 0);
  double run_cost = coalesced.ReadRun(500, 8);
  double loop_cost = 0.0;
  for (int i = 0; i < 8; ++i) {
    loop_cost += separate.ReadChunk(500 + i);
    separate.ReadChunk(0);  // Model the interleaved far access of Fig. 12.
  }
  EXPECT_LT(run_cost, loop_cost);
}

TEST(ReadRunTest, CachedChunksInsideRunAreNotTransferred) {
  SimulatedDisk disk(TestModel(), /*cache=*/8);
  disk.ReadChunk(12);
  disk.ResetStats();
  // Run [10, 15): id 12 hits; misses 10,11,13,14. One seek from head 12 to
  // the first miss (distance 2) + 4 transfers.
  double cost = disk.ReadRun(10, 5);
  EXPECT_DOUBLE_EQ(cost, 2 * 1e-6 + 4 * 1e-4);
  EXPECT_EQ(disk.stats().physical_reads, 4);
  EXPECT_EQ(disk.stats().cache_hits, 1);
}

TEST(ReadRunTest, EmptyAndFullyCachedRunsChargeNothing) {
  SimulatedDisk disk(TestModel(), /*cache=*/8);
  EXPECT_DOUBLE_EQ(disk.ReadRun(5, 0), 0.0);
  disk.ReadRun(5, 3);
  EXPECT_DOUBLE_EQ(disk.ReadRun(5, 3), 0.0);  // All hits now.
}

// ---- ranged backing reads -----------------------------------------------

TEST(FetchRunTest, RangedFetchMatchesPerChunkFetch) {
  ProductCubeConfig config;
  config.separation_chunks = 12;
  config.chunk_products = 1;
  config.fill_data = true;
  ProductCube workload = BuildProductCube(config);
  const std::string path = TempPath("fetch_run.olap");
  ASSERT_TRUE(SaveCube(workload.cube, path).ok());

  std::vector<ChunkId> stored;
  workload.cube.ForEachChunk(
      [&](ChunkId id, const Chunk&) { stored.push_back(id); });
  ASSERT_GE(stored.size(), 2u);

  // Longest fully contiguous prefix of the stored ids.
  int count = 1;
  while (count < static_cast<int>(stored.size()) &&
         stored[count] == stored[0] + static_cast<ChunkId>(count)) {
    ++count;
  }
  ASSERT_GE(count, 2) << "product cube should store adjacent chunks";

  SimulatedDisk ranged(TestModel(), 0);
  SimulatedDisk single(TestModel(), 0);
  ASSERT_TRUE(ranged.AttachBackingFile(Env::Default(), path).ok());
  ASSERT_TRUE(single.AttachBackingFile(Env::Default(), path).ok());

  Result<std::vector<Chunk>> run = ranged.FetchRun(stored[0], count);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(static_cast<int>(run->size()), count);
  for (int i = 0; i < count; ++i) {
    Result<Chunk> one = single.FetchChunk(stored[0] + i);
    ASSERT_TRUE(one.ok());
    ExpectChunksBitIdentical(*one, (*run)[i],
                             "chunk " + std::to_string(stored[0] + i));
  }
  EXPECT_EQ(ranged.stats().coalesced_reads, 1);
  std::remove(path.c_str());
}

TEST(FetchRunTest, RunWithMissingChunkIsNotFound) {
  PaperExample ex = BuildPaperExample();
  const std::string path = TempPath("fetch_run_missing.olap");
  ASSERT_TRUE(SaveCube(ex.cube, path).ok());
  // (The sparse paper-example cube is exactly what this case needs.)

  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path).ok());
  ChunkId absent = 0;
  while (disk.backing_index().entries.count(absent) > 0) ++absent;
  EXPECT_EQ(disk.FetchRun(absent, 1).status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ---- schedule walk ---------------------------------------------------------

class ScheduleWalkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProductCubeConfig config;
    config.separation_chunks = 60;
    config.chunk_products = 1;
    config.fill_data = true;
    workload_ = BuildProductCube(config);
    path_ = TempPath("schedule_walk_cube.olap");
    ASSERT_TRUE(SaveCube(workload_.cube, path_).ok());
    workload_.cube.ForEachChunk(
        [&](ChunkId id, const Chunk&) { stored_.push_back(id); });
    ASSERT_GT(stored_.size(), 8u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Fig. 12-style alternation between the two halves of the id range,
  // plus a revisit of the first few entries (merge passes re-read).
  std::vector<ChunkId> InterleavedSchedule() const {
    std::vector<ChunkId> schedule;
    const size_t half = stored_.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      schedule.push_back(stored_[i]);
      schedule.push_back(stored_[half + i]);
    }
    for (size_t i = 0; i < 4 && i < stored_.size(); ++i) {
      schedule.push_back(stored_[i]);
    }
    return schedule;
  }

  // Revisits inside one window: c, b, a, d, c, b, e, d, c, ...
  std::vector<ChunkId> RevisitingSchedule() const {
    std::vector<ChunkId> schedule;
    for (size_t i = 2; i < 20 && i < stored_.size(); ++i) {
      schedule.push_back(stored_[i]);
      schedule.push_back(stored_[i - 1]);
      schedule.push_back(stored_[i - 2]);
    }
    return schedule;
  }

  // The per-entry reference: FetchChunk per schedule entry.
  std::vector<Chunk> PerChunkStream(const std::vector<ChunkId>& schedule) {
    SimulatedDisk disk(TestModel(), 0);
    EXPECT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
    std::vector<Chunk> chunks;
    for (ChunkId id : schedule) {
      Result<Chunk> chunk = disk.FetchChunk(id);
      EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
      chunks.push_back(*std::move(chunk));
    }
    return chunks;
  }

  ProductCube workload_;
  std::string path_;
  std::vector<ChunkId> stored_;
};

void ExpectSameStats(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.physical_reads, b.physical_reads);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.total_seek_chunks, b.total_seek_chunks);
  EXPECT_EQ(a.coalesced_reads, b.coalesced_reads);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);  // Bitwise, not near.
}

TEST_F(ScheduleWalkTest, DeliversScheduleOrderBitIdenticalToFetchChunk) {
  for (const std::vector<ChunkId>& schedule :
       {InterleavedSchedule(), RevisitingSchedule()}) {
    const std::vector<Chunk> expected = PerChunkStream(schedule);
    SimulatedDisk disk(TestModel(), 0);
    ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
    std::vector<std::pair<ChunkId, Chunk>> delivered;
    ASSERT_TRUE(disk.ReadSchedule(schedule, [&](ChunkId id, const Chunk& c) {
                      delivered.emplace_back(id, c);
                    }).ok());
    ASSERT_EQ(delivered.size(), schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      ASSERT_EQ(delivered[i].first, schedule[i]) << "entry " << i;
      ExpectChunksBitIdentical(expected[i], delivered[i].second,
                               "entry " + std::to_string(i));
    }
  }
}

TEST_F(ScheduleWalkTest, CoalescesAdjacentIdsIntoFewerReads) {
  // Ascending schedule: each window's ids merge into one ranged read.
  std::vector<ChunkId> schedule(stored_.begin(), stored_.begin() + 32);
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
  int64_t delivered = 0;
  ASSERT_TRUE(TraceCollector::Enable());
  const Status status =
      disk.ReadSchedule(schedule, [&](ChunkId, const Chunk&) { ++delivered; });
  const TraceData trace = TraceCollector::DisableAndDrain();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(delivered, static_cast<int64_t>(schedule.size()));
  EXPECT_LT(trace.CountOf("disk.fetch_run"),
            static_cast<int64_t>(schedule.size()) / 2);
  EXPECT_GT(disk.stats().coalesced_reads, 0);
  EXPECT_EQ(disk.stats().physical_reads,
            static_cast<int64_t>(schedule.size()));
}

TEST_F(ScheduleWalkTest, StreamingChargesWhatTheChargeOnlyWalkCharges) {
  for (const std::vector<ChunkId>& schedule :
       {InterleavedSchedule(), RevisitingSchedule()}) {
    for (int64_t cache : {int64_t{0}, int64_t{8}}) {
      SimulatedDisk streamed(TestModel(), cache);
      ASSERT_TRUE(streamed.AttachBackingFile(Env::Default(), path_).ok());
      ASSERT_TRUE(
          streamed.ReadSchedule(schedule, [](ChunkId, const Chunk&) {}).ok());
      SimulatedDisk charged(TestModel(), cache);  // No backing file needed.
      ASSERT_TRUE(charged.ReadSchedule(schedule).ok());
      ExpectSameStats(streamed.stats(), charged.stats());
    }
  }
}

TEST_F(ScheduleWalkTest, ChargeOnlyWalkIsDeterministicAndCheaperThanSerial) {
  const std::vector<ChunkId> schedule = InterleavedSchedule();
  SimulatedDisk first(TestModel(), 0);
  SimulatedDisk second(TestModel(), 0);
  ASSERT_TRUE(first.ReadSchedule(schedule).ok());
  ASSERT_TRUE(second.ReadSchedule(schedule).ok());
  ExpectSameStats(first.stats(), second.stats());
  EXPECT_EQ(first.stats().physical_reads,
            static_cast<int64_t>(schedule.size()));

  // The windowed coalescing must beat one seek per schedule entry on the
  // alternating workload.
  SimulatedDisk serial(TestModel(), 0);
  double serial_cost = 0.0;
  for (ChunkId id : schedule) serial_cost += serial.ReadChunk(id);
  EXPECT_LT(first.stats().virtual_seconds, serial_cost);
}

// ---- out-of-core aggregation --------------------------------------------

TEST_F(ScheduleWalkTest, OutOfCoreRollupMatchesInMemoryBitwise) {
  std::vector<GroupByMask> masks;
  for (GroupByMask mask = 0; mask < (1u << workload_.cube.num_dims());
       ++mask) {
    masks.push_back(mask);
  }
  std::vector<int> order(workload_.cube.num_dims());
  std::iota(order.begin(), order.end(), 0);

  ChunkAggregator memory_agg(workload_.cube);
  const std::vector<GroupByResult> expected =
      memory_agg.Compute(masks, order);

  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path_).ok());
  ChunkAggregator agg(workload_.cube);
  Result<std::vector<GroupByResult>> views =
      agg.ComputeOutOfCore(masks, order, &disk);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  ASSERT_EQ(views->size(), masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    EXPECT_TRUE((*views)[i] == expected[i]) << "mask " << masks[i];
  }
  EXPECT_EQ(agg.stats().chunks_read, memory_agg.stats().chunks_read);
  EXPECT_EQ(agg.stats().cells_scanned, memory_agg.stats().cells_scanned);
}

TEST_F(ScheduleWalkTest, OutOfCoreRollupWithoutBackingFails) {
  SimulatedDisk bare(TestModel(), 0);
  ChunkAggregator agg(workload_.cube);
  std::vector<int> order(workload_.cube.num_dims());
  std::iota(order.begin(), order.end(), 0);
  Result<std::vector<GroupByResult>> views =
      agg.ComputeOutOfCore({GroupByMask{0b001}}, order, &bare);
  EXPECT_EQ(views.status().code(), StatusCode::kFailedPrecondition);
}

// ---- executor wiring -----------------------------------------------------

TEST(PipelinedQueryTest, PipelinedIoPreservesQueryResults) {
  ProductCubeConfig config;
  config.separation_chunks = 40;
  config.chunk_products = 1;
  config.fill_data = true;
  ProductCube workload = BuildProductCube(config);
  const std::string path = TempPath("pipelined_query.olap");
  ASSERT_TRUE(SaveCube(workload.cube, path).ok());

  Database db;
  ASSERT_TRUE(db.AddCube("Products", workload.cube).ok());
  Executor exec(&db);

  // A plain roll-up grid plus the Fig. 12 what-if query; both must be
  // unaffected by how the reads are charged/streamed.
  const std::string plain =
      "SELECT {[Product].Children} ON ROWS, "
      "{[Time].Children} ON COLUMNS FROM Products";
  const std::string whatif =
      "WITH PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD "
      "SELECT {Time.[Jan], Time.[Jul]} ON COLUMNS, "
      "{Product.[1001]} ON ROWS FROM Products "
      "WHERE (Measures.[Sales])";
  for (const std::string& q : {plain, whatif}) {
    for (int threads : {1, 4}) {
      const std::string what = q + " threads " + std::to_string(threads);
      SimulatedDisk sync_disk(TestModel(), 0);
      ASSERT_TRUE(sync_disk.AttachBackingFile(Env::Default(), path).ok());
      QueryOptions sync_options;
      sync_options.disk = &sync_disk;
      sync_options.eval_threads = threads;
      Result<QueryResult> sync_result = exec.Execute(q, sync_options);

      SimulatedDisk piped_disk(TestModel(), 0);
      ASSERT_TRUE(piped_disk.AttachBackingFile(Env::Default(), path).ok());
      QueryOptions piped_options = sync_options;
      piped_options.disk = &piped_disk;
      piped_options.pipelined_io = true;
      Result<QueryResult> piped_result = exec.Execute(q, piped_options);

      if (!sync_result.ok()) {
        // A query the binder rejects must fail identically in both modes.
        EXPECT_FALSE(piped_result.ok()) << what;
        continue;
      }
      ASSERT_TRUE(piped_result.ok()) << piped_result.status().ToString();
      ASSERT_EQ(sync_result->grid.num_rows(), piped_result->grid.num_rows());
      ASSERT_EQ(sync_result->grid.num_columns(),
                piped_result->grid.num_columns());
      for (int r = 0; r < sync_result->grid.num_rows(); ++r) {
        for (int c = 0; c < sync_result->grid.num_columns(); ++c) {
          EXPECT_EQ(BitsOf(sync_result->grid.at(r, c)),
                    BitsOf(piped_result->grid.at(r, c)))
              << what << " cell " << r << "," << c;
        }
      }
    }
  }
  std::remove(path.c_str());
}

// EXPLAIN renders the streaming decision of the plan Execute runs: scratch
// views stream from the backing file only with pipelined_io on and only
// when derived cells evaluate on the stored cube the file holds.
TEST(PipelinedQueryTest, ExplainShowsWhereScratchViewsStream) {
  ProductCubeConfig config;
  config.separation_chunks = 4;
  ProductCube workload = BuildProductCube(config);
  const std::string path = TempPath("explain_stream.olap");
  ASSERT_TRUE(SaveCube(workload.cube, path).ok());
  Database db;
  ASSERT_TRUE(db.AddCube("Products", workload.cube).ok());
  Executor exec(&db);
  SimulatedDisk disk(TestModel(), 0);
  ASSERT_TRUE(disk.AttachBackingFile(Env::Default(), path).ok());
  QueryOptions piped;
  piped.disk = &disk;
  piped.pipelined_io = true;
  QueryOptions sync = piped;
  sync.pipelined_io = false;

  const std::string select =
      "SELECT {Time.[Jan], Time.[Jul]} ON COLUMNS, {[Product].Children} "
      "ON ROWS FROM Products";
  const std::string perspective =
      "WITH PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD ";
  const char kStreamed[] = "scratch views: streamed from the backing file";
  auto streams = [&](const std::string& mdx, const QueryOptions& options) {
    Result<std::string> plan = exec.Explain(mdx, options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() && plan->find(kStreamed) != std::string::npos;
  };
  EXPECT_TRUE(streams(select, piped));
  EXPECT_TRUE(streams(perspective + select, piped));  // Non-visual: stored.
  EXPECT_FALSE(streams(perspective + "VISUAL " + select, piped));
  EXPECT_FALSE(streams(select, sync));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace olap
