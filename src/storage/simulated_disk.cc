#include "storage/simulated_disk.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "storage/retry.h"

namespace olap {

namespace {

struct DiskMetrics {
  Counter* physical_reads;
  Counter* cache_hits;
  Counter* evictions;
  Counter* seek_chunks;
  Counter* coalesced_reads;

  static const DiskMetrics& Get() {
    static DiskMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return DiskMetrics{reg.counter("disk.reads.physical"),
                         reg.counter("disk.reads.cache_hits"),
                         reg.counter("disk.cache.evictions"),
                         reg.counter("disk.seek_chunks"),
                         reg.counter("disk.coalesced_reads")};
    }();
    return m;
  }
};

}  // namespace

double SimulatedDisk::SeekSeconds(int64_t distance) const {
  return std::min(model_.seek_seconds_per_chunk * static_cast<double>(distance),
                  model_.max_seek_seconds);
}

double SimulatedDisk::ReadChunk(ChunkId id) {
  const DiskMetrics& metrics = DiskMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t evictions_before = cache_.evictions();
  if (cache_.Touch(id)) {
    ++stats_.cache_hits;
    metrics.cache_hits->Increment();
    return 0.0;
  }
  const int64_t evicted = cache_.evictions() - evictions_before;
  const int64_t distance = std::llabs(id - head_);
  head_ = id;
  const double cost = SeekSeconds(distance) + model_.transfer_seconds;
  ++stats_.physical_reads;
  stats_.total_seek_chunks += distance;
  stats_.evictions += evicted;
  stats_.virtual_seconds += cost;
  metrics.physical_reads->Increment();
  metrics.seek_chunks->Increment(distance);
  if (evicted > 0) metrics.evictions->Increment(evicted);
  return cost;
}

double SimulatedDisk::ReadRun(ChunkId begin, int count) {
  if (count <= 0) return 0.0;
  if (count == 1) return ReadChunk(begin);
  const DiskMetrics& metrics = DiskMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t evictions_before = cache_.evictions();
  int64_t misses = 0;
  ChunkId first_miss = begin;
  ChunkId last_miss = begin;
  for (int i = 0; i < count; ++i) {
    const ChunkId id = begin + i;
    if (cache_.Touch(id)) continue;
    if (misses == 0) first_miss = id;
    last_miss = id;
    ++misses;
  }
  const int64_t hits = count - misses;
  const int64_t evicted = cache_.evictions() - evictions_before;
  stats_.cache_hits += hits;
  stats_.evictions += evicted;
  if (hits > 0) metrics.cache_hits->Increment(hits);
  if (evicted > 0) metrics.evictions->Increment(evicted);
  if (misses == 0) return 0.0;
  // One contiguous I/O: a single seek to the run's first miss, then the
  // transfer of every missed chunk while the head sweeps forward.
  const int64_t distance = std::llabs(first_miss - head_);
  head_ = last_miss;
  const double cost = SeekSeconds(distance) +
                      model_.transfer_seconds * static_cast<double>(misses);
  stats_.physical_reads += misses;
  stats_.total_seek_chunks += distance;
  ++stats_.coalesced_reads;
  stats_.virtual_seconds += cost;
  metrics.physical_reads->Increment(misses);
  metrics.seek_chunks->Increment(distance);
  metrics.coalesced_reads->Increment();
  return cost;
}

IoStats SimulatedDisk::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SimulatedDisk::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = IoStats{};
}

void SimulatedDisk::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
  head_ = 0;
  stats_ = IoStats{};
}

Status SimulatedDisk::AttachBackingFile(Env* env, const std::string& path) {
  if (env == nullptr) env = Env::Default();
  Result<CubeChunkIndex> index = IndexCubeChunks(env, path);
  if (!index.ok()) return index.status();
  Result<std::unique_ptr<RandomAccessFile>> file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  backing_index_ = *std::move(index);
  backing_file_ = *std::move(file);
  return Status::Ok();
}

Result<Chunk> SimulatedDisk::FetchChunk(ChunkId id) {
  TraceSpan span("disk.fetch_chunk");
  if (backing_file_ == nullptr) {
    Status status = Status::FailedPrecondition("no backing file attached");
    span.SetError(status);
    return status;
  }
  ReadChunk(id);  // Charge the cost model (cache hit => no physical read).
  // The actual read runs outside the accounting mutex: the backing file is
  // positional (pread), so concurrent fetches do not interleave state.
  Result<Chunk> chunk = ReadIndexedChunk(backing_file_.get(), backing_index_, id);
  if (!chunk.ok()) {
    static Counter* failures =
        MetricsRegistry::Global().counter("disk.fetch_failures");
    failures->Increment();
    span.SetError(chunk.status());
  }
  return chunk;
}

Result<std::vector<Chunk>> SimulatedDisk::FetchRun(ChunkId begin, int count) {
  TraceSpan span("disk.fetch_run");
  if (span.active()) {
    span.SetDetail("begin=" + std::to_string(begin) +
                   " count=" + std::to_string(count));
  }
  if (backing_file_ == nullptr) {
    Status status = Status::FailedPrecondition("no backing file attached");
    span.SetError(status);
    return status;
  }
  ReadRun(begin, count);
  Result<std::vector<Chunk>> chunks =
      ReadIndexedChunkRun(backing_file_.get(), backing_index_, begin, count);
  if (!chunks.ok()) {
    static Counter* failures =
        MetricsRegistry::Global().counter("disk.fetch_failures");
    failures->Increment();
    span.SetError(chunks.status());
  }
  return chunks;
}

Status SimulatedDisk::ReadSchedule(const std::vector<ChunkId>& schedule,
                                   const ChunkSink& sink,
                                   const CancellationToken& cancel) {
  constexpr size_t kWindow = kScheduleWindow;
  const size_t n = schedule.size();
  std::vector<char> read(n, 0);
  // Decoded chunks of read but undelivered entries. They all lie within
  // kWindow entries of the head, so position i owns slot i % kWindow.
  std::vector<Chunk> held(sink ? kWindow : 0);
  for (size_t head = 0; head < n; ++head) {
    if (!read[head]) {
      OLAP_RETURN_IF_ERROR(cancel.Poll("schedule read"));
      const size_t end = std::min(n, head + kWindow);
      // Grow the head's id into the maximal run of adjacent ids that the
      // window's unread entries hold.
      ChunkId lo = schedule[head];
      ChunkId hi = lo;
      for (bool grew = true; grew;) {
        grew = false;
        for (size_t i = head + 1; i < end; ++i) {
          if (read[i]) continue;
          if (schedule[i] == lo - 1) {
            --lo;
            grew = true;
          } else if (schedule[i] == hi + 1) {
            ++hi;
            grew = true;
          }
        }
      }
      const int count = static_cast<int>(hi - lo + 1);
      if (sink) {
        Result<std::vector<Chunk>> run = CallWithRetry(
            RetryPolicy(), Clock::Real(), [&] { return FetchRun(lo, count); },
            cancel);
        if (!run.ok()) return run.status();
        // An id revisited later in the window is copied; its last entry
        // takes the decoded chunk itself.
        for (size_t i = head; i < end; ++i) {
          if (read[i] || schedule[i] < lo || schedule[i] > hi) continue;
          Chunk& decoded = (*run)[schedule[i] - lo];
          bool revisited = false;
          for (size_t j = i + 1; j < end && !revisited; ++j) {
            revisited = !read[j] && schedule[j] == schedule[i];
          }
          if (revisited) {
            held[i % kWindow] = decoded;
          } else {
            held[i % kWindow] = std::move(decoded);
          }
        }
      } else {
        ReadRun(lo, count);
      }
      for (size_t i = head; i < end; ++i) {
        if (schedule[i] >= lo && schedule[i] <= hi) read[i] = 1;
      }
    }
    if (sink) {
      sink(schedule[head], held[head % kWindow]);
      held[head % kWindow] = Chunk();
    }
  }
  return Status::Ok();
}

}  // namespace olap
