#ifndef OLAP_STORAGE_SIMULATED_DISK_H_
#define OLAP_STORAGE_SIMULATED_DISK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "cube/chunk.h"
#include "cube/chunk_layout.h"
#include "storage/cube_io.h"
#include "storage/lru_cache.h"

namespace olap {

// Cost model of a rotating disk holding the cube's chunks contiguously in
// chunk-id order.
//
// The paper's Fig. 12 experiment measures query time against the physical
// separation of two related chunks on a real 20 GB cube: elapsed time grows
// with separation and then flattens "because disk seek time eventually
// becomes a constant overhead". We reproduce that mechanism directly: the
// cost of reading a chunk is a transfer cost plus a seek cost that grows
// linearly with head travel distance and saturates at the full-stroke seek
// time. (Documented substitution — see DESIGN.md §2.)
struct DiskModel {
  // Seconds of head travel per chunk of distance.
  double seek_seconds_per_chunk = 2e-7;
  // Full-stroke seek time; seek cost saturates here.
  double max_seek_seconds = 8e-3;
  // Fixed cost to transfer one chunk.
  double transfer_seconds = 1e-4;
};

// Read/seek statistics accumulated by a SimulatedDisk.
struct IoStats {
  int64_t physical_reads = 0;
  int64_t cache_hits = 0;
  int64_t evictions = 0;          // LRU entries displaced by misses.
  int64_t total_seek_chunks = 0;  // Sum of head travel distances.
  int64_t coalesced_reads = 0;    // Ranged accesses spanning > 1 chunk.
  double virtual_seconds = 0.0;   // Total simulated I/O time.
};

// Charges virtual I/O time for chunk accesses, with an LRU cache in front.
// The engine's evaluation strategies call ReadChunk for every chunk they
// visit; benchmarks add stats().virtual_seconds to measured CPU time.
//
// Thread-safe: the cache, the head position and the statistics sit behind
// one mutex. The cost of an access depends on the previous one, so the
// accounting is inherently sequential; every charge of a query runs on
// that query's thread.
//
// Optionally backed by a real OLAPCUB2 cube file via AttachBackingFile:
// FetchChunk/FetchRun/ReadSchedule then route cache misses through the Env
// as ranged, CRC-verified reads of the file's chunk records
// (storage/cube_io.h) while charging the same cost model — the out-of-core
// read path of the engine.
class SimulatedDisk {
 public:
  SimulatedDisk(const DiskModel& model, int64_t cache_capacity_chunks)
      : model_(model), cache_(cache_capacity_chunks) {}

  // Accounts for accessing chunk `id`; returns the virtual seconds charged
  // (0 on a cache hit).
  double ReadChunk(ChunkId id);

  // Accounts for ONE coalesced ranged access covering chunks
  // [begin, begin + count): ids resident in the cache are hits; the misses
  // are charged a single seek (head to the first miss) plus one transfer
  // each, and the head finishes on the last miss — the cost contract of a
  // single contiguous I/O, which is what makes coalescing adjacent chunk
  // ids worth it under the Fig. 12 seek model. Returns the seconds charged
  // (0 when every id hits).
  double ReadRun(ChunkId begin, int count);

  // Indexes the OLAPCUB2 file at `path` and keeps it open for FetchChunk.
  // `env` nullptr -> Env::Default(); must outlive this disk.
  Status AttachBackingFile(Env* env, const std::string& path);
  bool has_backing() const { return backing_file_ != nullptr; }
  // The backing file's chunk index (valid while has_backing()).
  const CubeChunkIndex& backing_index() const { return backing_index_; }

  // Reads chunk `id` from the backing file (CRC-verified), charging the
  // cost model exactly as ReadChunk does. kFailedPrecondition without a
  // backing file; kNotFound if the file stores no such chunk; kDataLoss on
  // checksum mismatch.
  Result<Chunk> FetchChunk(ChunkId id);

  // Ranged fetch: charges ReadRun(begin, count) and reads the chunks'
  // records with one ranged file read.
  Result<std::vector<Chunk>> FetchRun(ChunkId begin, int count);

  // Schedule entries the coalescing walk looks at once: its coalescing
  // horizon and the most decoded chunks it holds. 16 is the lookahead the
  // asynchronous prefetcher this walk replaced used by default, so the
  // perspective read passes charge exactly what they charged under it
  // (EXPERIMENTS.md has the walk's own 1/4/16/64 sweep).
  static constexpr int kScheduleWindow = 16;

  using ChunkSink = std::function<void(ChunkId id, const Chunk& chunk)>;

  // Reads `schedule` (normally a Sec. 5.2 pebbling order) on the calling
  // thread. At each unread entry the walk takes the window of the next
  // kScheduleWindow entries and grows the entry's id into the maximal run
  // of adjacent ids that the window's unread entries hold; the run is one
  // ReadRun charge and marks every window entry it covers as read. With
  // `sink`, each run is read with FetchRun (retried on transient faults
  // under the default RetryPolicy, honouring `cancel`) and every entry's
  // chunk goes to `sink` in schedule order, revisits included. Without
  // it the walk only charges and needs no backing file; a fault-free
  // stream charges exactly what the charge-only walk does. Returns the
  // first read error or the token's stop status (polled once per run).
  Status ReadSchedule(const std::vector<ChunkId>& schedule,
                      const ChunkSink& sink = nullptr,
                      const CancellationToken& cancel = {});

  IoStats stats() const;
  void ResetStats();
  // Drops cache contents, resets the head to chunk 0 and zeroes the stats.
  void Reset();

  const DiskModel& model() const { return model_; }

 private:
  double SeekSeconds(int64_t distance) const;

  DiskModel model_;
  mutable std::mutex mu_;  // Guards cache_, head_ and stats_.
  LruChunkCache cache_;
  ChunkId head_ = 0;
  IoStats stats_;
  std::unique_ptr<RandomAccessFile> backing_file_;
  CubeChunkIndex backing_index_;
};

}  // namespace olap

#endif  // OLAP_STORAGE_SIMULATED_DISK_H_
