// Out-of-core read benchmark: a per-chunk FetchChunk loop against the
// synchronous coalescing walk (SimulatedDisk::ReadSchedule) on a Fig. 12-
// style workload — a product cube whose merge schedule alternates between
// two far-apart chunk regions, so every per-chunk fetch pays a long seek
// while the walk's 16-entry window merges each region's chunks into
// ranged reads (one seek per run). A second block times the out-of-core
// roll-up (ChunkAggregator::ComputeOutOfCore) against a per-chunk
// reference that does the same traversal, partition plan, accumulation and
// merge but reads each visited chunk with FetchChunk, so the two differ
// only in their read path.
//
// Reported time is wall time plus the SimulatedDisk's virtual I/O
// seconds, matching the other benches; wall time is the minimum over
// kReps alternating runs of each mode and is also gated on its own.
// Emits BENCH_outofcore.json.
//
// Usage: bench_outofcore [--smoke] [--check] [--out PATH]
//   --smoke  smaller cube (CI).
//   --check  exit non-zero unless: the walk delivers the interleave
//            bit-identically to the per-chunk loop, the walked roll-up
//            equals the per-chunk and the in-memory roll-ups, the walk
//            beats the per-chunk loop by >= 1.5x in total (wall + virtual)
//            time on the interleave, and the walk's wall time is at most
//            1.5x the per-chunk loop's on the interleave and the roll-up.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "agg/chunk_aggregator.h"
#include "agg/group_by.h"
#include "common/thread_pool.h"
#include "cube/cube.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"
#include "workload/product.h"

namespace olap {
namespace {

using Clock = std::chrono::steady_clock;

// Alternating repetitions of each mode; wall time is their minimum.
constexpr int kReps = 9;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Order-dependent FNV-style digest of a delivered chunk stream: equal
// digests mean the bytes AND the order matched.
uint64_t FoldChunk(uint64_t h, ChunkId id, const Chunk& chunk) {
  h = (h ^ static_cast<uint64_t>(id)) * 1099511628211ull;
  for (int64_t i = 0; i < chunk.size(); ++i) {
    const double raw = CellValue::ToStorage(chunk.Get(i));
    uint64_t bits;
    std::memcpy(&bits, &raw, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

// The Fig. 12 access pattern: chunks of two far-apart regions consumed
// alternately (front half, back half, front half, ...), the way a merge of
// two distant member instances walks the grid.
std::vector<ChunkId> InterleavedSchedule(const std::vector<ChunkId>& stored) {
  const size_t half = stored.size() / 2;
  std::vector<ChunkId> schedule;
  schedule.reserve(stored.size());
  for (size_t i = 0; i < half; ++i) {
    schedule.push_back(stored[i]);
    schedule.push_back(stored[half + i]);
  }
  for (size_t i = 2 * half; i < stored.size(); ++i) schedule.push_back(stored[i]);
  return schedule;
}

// ChunkAggregator's traversal for the identity dimension order (dim 0
// fastest), restricted to the chunks the backing file stores.
std::vector<ChunkId> RollupVisitOrder(const ChunkLayout& layout,
                                      const CubeChunkIndex& index) {
  const std::vector<int>& grid = layout.chunks_per_dim();
  std::vector<int> coords(grid.size(), 0);
  std::vector<ChunkId> visit;
  while (true) {
    const ChunkId id = layout.ChunkIdAt(coords);
    if (index.entries.count(id) > 0) visit.push_back(id);
    size_t d = 0;
    while (d < grid.size() && ++coords[d] == grid[d]) coords[d++] = 0;
    if (d == grid.size()) break;
  }
  return visit;
}

struct Run {
  double wall_ms = 0.0;  // Minimum over samples.
  double virtual_ms = 0.0;
  IoStats io;
  uint64_t digest = 0;
  int samples = 0;
  bool ok = true;
  double total_ms() const { return wall_ms + virtual_ms; }

  // One repetition of `body` (which streams through `disk`) from a cold
  // disk; keeps the fastest wall time and the (deterministic) charges.
  template <typename Body>
  void Sample(SimulatedDisk* disk, Body body) {
    if (!ok) return;
    disk->Reset();
    const Clock::time_point t0 = Clock::now();
    ok = body(&digest);
    const double wall = MsSince(t0);
    wall_ms = samples++ == 0 ? wall : std::min(wall_ms, wall);
    io = disk->stats();
    virtual_ms = io.virtual_seconds * 1e3;
  }
};

bool PerChunkStream(SimulatedDisk* disk, const std::vector<ChunkId>& schedule,
                    uint64_t* digest) {
  uint64_t h = 14695981039346656037ull;
  for (ChunkId id : schedule) {
    Result<Chunk> chunk = disk->FetchChunk(id);
    if (!chunk.ok()) {
      fprintf(stderr, "fetch of chunk %" PRIu64 " failed: %s\n",
              static_cast<uint64_t>(id), chunk.status().ToString().c_str());
      return false;
    }
    h = FoldChunk(h, id, *chunk);
  }
  *digest = h;
  return true;
}

bool WalkStream(SimulatedDisk* disk, const std::vector<ChunkId>& schedule,
                uint64_t* digest) {
  uint64_t h = 14695981039346656037ull;
  const Status status =
      disk->ReadSchedule(schedule, [&](ChunkId id, const Chunk& chunk) {
        h = FoldChunk(h, id, chunk);
      });
  if (!status.ok()) {
    fprintf(stderr, "schedule walk failed: %s\n", status.ToString().c_str());
    return false;
  }
  *digest = h;
  return true;
}

// ---- roll-up workload ----------------------------------------------------

struct RollupResult {
  Run per_chunk;
  Run walk;
  bool bit_identical = false;   // walk == per-chunk loop, cells_scanned too.
  bool matches_memory = false;  // walk == in-memory pass.
};

RollupResult RunRollup(const Cube& cube, SimulatedDisk* disk) {
  RollupResult r;
  const std::vector<GroupByMask> masks = {0b001, 0b010, 0b011, 0b110};
  std::vector<int> order(cube.num_dims());
  std::iota(order.begin(), order.end(), 0);
  const ChunkLayout& layout = cube.layout();

  // ComputeOutOfCore with its ReadSchedule call replaced by one FetchChunk
  // per visit entry: the same traversal, RollupPartitionCount plan,
  // per-chunk CountNonNull, per-partition accumulation and ascending merge.
  std::vector<GroupByResult> per_chunk_views;
  int64_t per_chunk_cells = 0;
  auto per_chunk = [&](uint64_t*) {
    const std::vector<ChunkId> visit =
        RollupVisitOrder(layout, disk->backing_index());
    const int64_t num_visited = static_cast<int64_t>(visit.size());
    per_chunk_views.clear();
    int64_t total_view_cells = 0;
    for (GroupByMask mask : masks) {
      per_chunk_views.push_back(MakeGroupByShell(cube, mask));
      total_view_cells += per_chunk_views.back().num_cells();
    }
    const int64_t num_partitions = RollupPartitionCount(
        num_visited, num_visited * layout.cells_per_chunk(),
        layout.cells_per_chunk(), total_view_cells,
        static_cast<int64_t>(masks.size()));
    std::vector<std::vector<GroupByResult>> partials;
    if (num_partitions > 1) {
      partials.resize(num_partitions);
      for (std::vector<GroupByResult>& partial : partials) {
        for (GroupByMask mask : masks) {
          partial.push_back(MakeGroupByShell(cube, mask));
        }
      }
    }
    per_chunk_cells = 0;
    for (int64_t i = 0; i < num_visited; ++i) {
      Result<Chunk> chunk = disk->FetchChunk(visit[i]);
      if (!chunk.ok()) {
        fprintf(stderr, "rollup fetch failed: %s\n",
                chunk.status().ToString().c_str());
        return false;
      }
      per_chunk_cells += chunk->CountNonNull();
      AccumulateChunkIntoGroupBys(
          layout, visit[i], *chunk,
          num_partitions > 1 ? &partials[i * num_partitions / num_visited]
                             : &per_chunk_views);
    }
    for (const std::vector<GroupByResult>& partial : partials) {
      for (size_t m = 0; m < per_chunk_views.size(); ++m) {
        per_chunk_views[m].MergeFrom(partial[m]);
      }
    }
    return true;
  };
  std::vector<GroupByResult> walk_views;
  int64_t walk_cells = 0;
  auto walk = [&](uint64_t*) {
    ChunkAggregator agg(cube);
    Result<std::vector<GroupByResult>> views =
        agg.ComputeOutOfCore(masks, order, disk);
    if (!views.ok()) {
      fprintf(stderr, "rollup walk failed: %s\n",
              views.status().ToString().c_str());
      return false;
    }
    walk_views = *std::move(views);
    walk_cells = agg.stats().cells_scanned;
    return true;
  };
  // Alternating repetitions: both modes see the same host load phases.
  for (int rep = 0; rep < kReps; ++rep) {
    r.per_chunk.Sample(disk, per_chunk);
    r.walk.Sample(disk, walk);
  }

  if (!r.per_chunk.ok || !r.walk.ok) return r;
  ChunkAggregator memory_agg(cube);
  const std::vector<GroupByResult> memory_views =
      memory_agg.Compute(masks, order);
  r.bit_identical =
      walk_views == per_chunk_views && walk_cells == per_chunk_cells;
  r.matches_memory = walk_views == memory_views;
  return r;
}

// ---- driver --------------------------------------------------------------

void PrintRun(FILE* f, const char* name, const Run& r, const char* tail) {
  fprintf(f,
          "    \"%s\": {\"wall_ms\": %.3f, \"virtual_ms\": %.3f, "
          "\"total_ms\": %.3f, \"physical_reads\": %lld, "
          "\"coalesced_reads\": %lld, \"seek_chunks\": %lld}%s\n",
          name, r.wall_ms, r.virtual_ms, r.total_ms(),
          static_cast<long long>(r.io.physical_reads),
          static_cast<long long>(r.io.coalesced_reads),
          static_cast<long long>(r.io.total_seek_chunks), tail);
}

int Main(int argc, char** argv) {
  bool smoke = false, check = false;
  std::string out_path = "BENCH_outofcore.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--smoke] [--check] [--out PATH]\n",
              argv[0]);
      return 2;
    }
  }

  // Fig. 12 geometry: one product per chunk along the varying axis, the
  // probe's two instances far apart, fillers in between. Stored chunk ids
  // are contiguous (every grid chunk holds data), so the two halves of the
  // id range are two distant platter regions.
  ProductCubeConfig config;
  config.separation_chunks = smoke ? 2000 : 4000;
  config.chunk_products = 1;
  config.fill_data = true;
  ProductCube workload = BuildProductCube(config);
  const Cube& cube = workload.cube;

  const std::string path = "/tmp/bench_outofcore_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".olapcub2";
  Status saved = SaveCube(cube, path);
  if (!saved.ok()) {
    fprintf(stderr, "SaveCube failed: %s\n", saved.ToString().c_str());
    return 1;
  }

  DiskModel model;
  SimulatedDisk disk(model, /*cache_capacity_chunks=*/0);
  Status attached = disk.AttachBackingFile(Env::Default(), path);
  if (!attached.ok()) {
    fprintf(stderr, "AttachBackingFile failed: %s\n",
            attached.ToString().c_str());
    return 1;
  }

  std::vector<ChunkId> stored;
  cube.ForEachChunk([&](ChunkId id, const Chunk&) { stored.push_back(id); });
  const std::vector<ChunkId> schedule = InterleavedSchedule(stored);

  fprintf(stderr,
          "bench_outofcore: %lld stored chunks, schedule %zu, %d reps, "
          "file %s\n",
          static_cast<long long>(cube.NumStoredChunks()), schedule.size(),
          kReps, path.c_str());

  Run per_chunk, walk;
  for (int rep = 0; rep < kReps; ++rep) {
    per_chunk.Sample(&disk, [&](uint64_t* digest) {
      return PerChunkStream(&disk, schedule, digest);
    });
    walk.Sample(&disk, [&](uint64_t* digest) {
      return WalkStream(&disk, schedule, digest);
    });
  }
  const bool stream_identical =
      per_chunk.ok && walk.ok && per_chunk.digest == walk.digest;
  const double speedup_total =
      walk.total_ms() > 0 ? per_chunk.total_ms() / walk.total_ms() : 0.0;
  const double stream_wall_ratio =
      per_chunk.wall_ms > 0 ? walk.wall_ms / per_chunk.wall_ms : 0.0;

  const RollupResult rollup = RunRollup(cube, &disk);
  const double rollup_wall_ratio =
      rollup.per_chunk.wall_ms > 0
          ? rollup.walk.wall_ms / rollup.per_chunk.wall_ms
          : 0.0;

  std::remove(path.c_str());

  // ---- report ------------------------------------------------------------
  FILE* f = fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  fprintf(f, "{\n");
  fprintf(f, "  \"bench\": \"bench_outofcore\",\n");
  fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(f, "  \"hardware_cores\": %d,\n", ThreadPool::HardwareCores());
  fprintf(f, "  \"hardware_concurrency\": %u,\n",
          std::max(1u, std::thread::hardware_concurrency()));
  fprintf(f, "  \"affinity_cores\": %d,\n", ThreadPool::AffinityVisibleCores());
  fprintf(f, "  \"chunks\": %lld,\n",
          static_cast<long long>(cube.NumStoredChunks()));
  fprintf(f, "  \"schedule_len\": %zu,\n", schedule.size());
  fprintf(f, "  \"window\": %d,\n", SimulatedDisk::kScheduleWindow);
  fprintf(f, "  \"reps\": %d,\n", kReps);
  fprintf(f,
          "  \"disk\": {\"seek_seconds_per_chunk\": %g, "
          "\"max_seek_seconds\": %g, \"transfer_seconds\": %g},\n",
          model.seek_seconds_per_chunk, model.max_seek_seconds,
          model.transfer_seconds);
  fprintf(f, "  \"fig12_interleave\": {\n");
  PrintRun(f, "per_chunk", per_chunk, ",");
  PrintRun(f, "walk", walk, ",");
  fprintf(f,
          "    \"speedup_total\": %.2f, \"wall_ratio\": %.2f, "
          "\"bit_identical\": %s\n  },\n",
          speedup_total, stream_wall_ratio,
          stream_identical ? "true" : "false");
  fprintf(f, "  \"rollup_outofcore\": {\n");
  PrintRun(f, "per_chunk", rollup.per_chunk, ",");
  PrintRun(f, "walk", rollup.walk, ",");
  fprintf(f,
          "    \"wall_ratio\": %.2f, \"bit_identical\": %s, "
          "\"matches_memory\": %s\n  }\n",
          rollup_wall_ratio, rollup.bit_identical ? "true" : "false",
          rollup.matches_memory ? "true" : "false");
  fprintf(f, "}\n");
  fclose(f);
  fprintf(stderr,
          "interleave: per-chunk %.3f ms wall + %.3f ms virtual, walk %.3f ms "
          "wall + %.3f ms virtual (%.2fx total, wall ratio %.2f)\n"
          "rollup: per-chunk %.3f ms wall, walk %.3f ms wall (ratio %.2f)\n"
          "wrote %s\n",
          per_chunk.wall_ms, per_chunk.virtual_ms, walk.wall_ms,
          walk.virtual_ms, speedup_total, stream_wall_ratio,
          rollup.per_chunk.wall_ms, rollup.walk.wall_ms, rollup_wall_ratio,
          out_path.c_str());

  // ---- gates -------------------------------------------------------------
  int failures = 0;
  if (!stream_identical) {
    fprintf(stderr, "FAIL interleave: walk differs from the per-chunk loop\n");
    ++failures;
  }
  if (!rollup.per_chunk.ok || !rollup.walk.ok || !rollup.bit_identical ||
      !rollup.matches_memory) {
    fprintf(stderr,
            "FAIL rollup_outofcore: walk/per-chunk/in-memory mismatch\n");
    ++failures;
  }
  if (check) {
    constexpr double kSpeedupFloor = 1.5;
    constexpr double kWallCeiling = 1.5;
    if (speedup_total < kSpeedupFloor) {
      fprintf(stderr,
              "FAIL interleave: walk total %.3f ms vs per-chunk %.3f ms "
              "(%.2fx < %.1fx floor)\n",
              walk.total_ms(), per_chunk.total_ms(), speedup_total,
              kSpeedupFloor);
      ++failures;
    }
    if (stream_wall_ratio > kWallCeiling) {
      fprintf(stderr,
              "FAIL interleave: walk wall %.3f ms is %.2fx the per-chunk "
              "loop's %.3f ms (> %.1fx)\n",
              walk.wall_ms, stream_wall_ratio, per_chunk.wall_ms, kWallCeiling);
      ++failures;
    }
    if (rollup_wall_ratio > kWallCeiling) {
      fprintf(stderr,
              "FAIL rollup_outofcore: walk wall %.3f ms is %.2fx the "
              "per-chunk loop's %.3f ms (> %.1fx)\n",
              rollup.walk.wall_ms, rollup_wall_ratio, rollup.per_chunk.wall_ms,
              kWallCeiling);
      ++failures;
    }
  }
  if (failures > 0) {
    fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  fprintf(stderr, "all checks passed\n");
  return 0;
}

}  // namespace
}  // namespace olap

int main(int argc, char** argv) { return olap::Main(argc, argv); }
