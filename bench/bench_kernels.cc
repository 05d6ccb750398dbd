// Kernel micro-benchmarks: chunk-native Relocate/Split + parallel rollup
// against the cell-at-a-time reference path, over the Fig. 11–13 workload
// shapes. Emits machine-readable JSON (BENCH_kernels.json) consumed by
// EXPERIMENTS.md and the CI bench smoke job.
//
// Unlike the figure benchmarks this is a plain main() binary (no Google
// Benchmark): the JSON schema, the smoke mode and the --check gate are the
// interface.
//
//   bench_kernels [--smoke] [--out <path>] [--check] [--profile]
//                 [--profile-out <path>]
//
//   --smoke   scaled-down workloads + fewer repetitions (CI-sized)
//   --out     write the JSON report to <path> (default: stdout only)
//   --check   exit non-zero if the 1-thread kernel path is more than 1.5x
//             slower than the per-cell reference on any workload, if any
//             result mismatches the reference, or if an enabled-but-idle
//             query governor costs more than 5% on the Fig. 12 query
//             (the CI regression gate)
//   --profile       also time the Fig. 12 Relocate with tracing enabled vs
//                   disabled (serial and 4-thread) and emit the per-span
//                   breakdown + metrics delta as a second JSON report; with
//                   --check, fail if the tracing overhead exceeds 5%
//   --profile-out   where --profile writes its JSON
//                   (default: BENCH_kernels_profile.json next to --out, or
//                   stdout only)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "agg/batch_eval.h"
#include "agg/chunk_aggregator.h"
#include "agg/kernels.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/executor.h"
#include "support/naive_aggregator.h"
#include "support/operator_oracles.h"
#include "whatif/operators.h"
#include "whatif/perspective.h"
#include "workload/product.h"
#include "workload/workforce.h"

namespace olap::bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr double kCheckSlowdownLimit = 1.5;
// rollup_workforce gates: the batched path must beat per-cell evaluation by
// this factor serially, and adding threads must never cost more than noise.
constexpr double kRollupMinSerialSpeedup = 3.0;
constexpr double kThreadNoiseLimit = 1.25;
constexpr double kRollup4tNoiseLimit = 1.15;
// Absolute slack for the thread-scaling gates. Sub-millisecond kernels on a
// loaded or single-core machine jitter by a large relative factor, so the
// grace also scales with the per-cell baseline (the slowest timing we have
// for the workload) — regressions worth failing on are multiples, not a
// fraction of a millisecond.
constexpr double kThreadNoiseGraceMs = 0.5;
constexpr double kThreadNoiseGraceFraction = 0.15;

struct Timing {
  double percell_ms = 0.0;
  std::map<int, double> kernel_ms;  // thread count -> best-of-reps ms.
  bool identical = true;            // Kernel outputs matched the reference.
};

struct WorkloadReport {
  std::string name;
  int64_t cells = 0;
  int64_t chunks = 0;
  Timing timing;
  // agg.cache.lookups delta over one what-if query (-1 = not measured):
  // proof that what-if queries reach the scratch aggregate cache.
  int64_t cache_lookups = -1;
};

double BestOfMs(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(end - start).count());
  }
  return best;
}

bool CubesBitIdentical(const Cube& a, const Cube& b) {
  if (a.NumStoredChunks() != b.NumStoredChunks()) return false;
  bool same = true;
  a.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    if (!same) return;
    const Chunk* other = b.FindChunk(id);
    if (other == nullptr || other->size() != chunk.size()) {
      same = false;
      return;
    }
    for (int64_t off = 0; off < chunk.size(); ++off) {
      double x = CellValue::ToStorage(chunk.Get(off));
      double y = CellValue::ToStorage(other->Get(off));
      if (std::memcmp(&x, &y, sizeof(x)) != 0) {
        same = false;
        return;
      }
    }
  });
  return same;
}

// Times RelocateReference vs the chunk-native Relocate at each thread count
// and verifies bit-identity of every kernel output against the reference.
Timing TimeRelocate(const Cube& cube, int vd,
                    const std::vector<DynamicBitset>& vs_out, int reps) {
  Timing t;
  const Schema schema_out = Relocate(cube, vd, vs_out).schema();
  Cube ref = RelocateReference(cube, schema_out, vd, vs_out);
  t.percell_ms = BestOfMs(reps, [&] {
    Cube out = RelocateReference(cube, schema_out, vd, vs_out);
    if (out.NumStoredChunks() == 0 && cube.NumStoredChunks() > 0) abort();
  });
  for (int threads : kThreadCounts) {
    Cube out = Relocate(cube, vd, vs_out, {}, nullptr, threads);
    t.identical = t.identical && CubesBitIdentical(ref, out);
    t.kernel_ms[threads] = BestOfMs(reps, [&] {
      Cube timed = Relocate(cube, vd, vs_out, {}, nullptr, threads);
      if (timed.NumStoredChunks() != ref.NumStoredChunks()) abort();
    });
  }
  return t;
}

// Fig. 11 shape: the workforce cube, one forward query whose perspective
// set spans the year (every instance of the 250 changing employees is
// retrieved and merged).
WorkloadReport RunFig11(bool smoke) {
  WorkforceConfig config;
  config.num_departments = smoke ? 10 : 51;
  config.num_employees = smoke ? 200 : 2025;
  config.num_changing = smoke ? 30 : 250;
  config.num_measures = smoke ? 4 : 10;
  config.num_scenarios = smoke ? 2 : 5;
  config.seed = 20080407;
  WorkforceCube wf = BuildWorkforceCube(config);

  const Dimension& dim = wf.cube.schema().dimension(wf.dept_dim);
  std::vector<DynamicBitset> vs_out = TransformValiditySets(
      dim, Perspectives({0, 3, 6, 9}), Semantics::kForward);

  WorkloadReport report;
  report.name = "fig11_perspectives";
  report.cells = wf.cube.CountNonNullCells();
  report.chunks = wf.cube.NumStoredChunks();
  report.timing = TimeRelocate(wf.cube, wf.dept_dim, vs_out, smoke ? 3 : 5);
  return report;
}

// Fig. 12 shape: the controlled-placement product cube; the probe product's
// two instances sit thousands of chunks apart, everything between them is
// identity traffic — the workload the whole-chunk fast path and the
// chunk-range parallel partitioning are built for. This is the acceptance
// workload: the 4-thread kernel path must beat the per-cell reference >= 3x.
WorkloadReport RunFig12(bool smoke) {
  ProductCubeConfig config;
  config.separation_chunks = smoke ? 400 : 2000;
  config.chunk_products = 4;  // Denser chunks than Fig. 12's query bench.
  config.move_moment = 6;
  ProductCube pc = BuildProductCube(config);

  const Dimension& dim = pc.cube.schema().dimension(pc.product_dim);
  std::vector<DynamicBitset> vs_out = TransformValiditySets(
      dim, Perspectives({0, 6}), Semantics::kForward);

  WorkloadReport report;
  report.name = "fig12_colocation";
  report.cells = pc.cube.CountNonNullCells();
  report.chunks = pc.cube.NumStoredChunks();
  report.timing = TimeRelocate(pc.cube, pc.product_dim, vs_out, smoke ? 3 : 5);
  return report;
}

// Fig. 13 shape: the workforce cube with the changing-employee count scaled
// up (the paper varies the number of varying members 250 -> 2,000).
WorkloadReport RunFig13(bool smoke) {
  WorkforceConfig config;
  config.num_departments = smoke ? 10 : 51;
  config.num_employees = smoke ? 200 : 2025;
  config.num_changing = smoke ? 80 : 800;
  config.num_measures = smoke ? 4 : 10;
  config.num_scenarios = smoke ? 2 : 5;
  config.seed = 20080613;
  WorkforceCube wf = BuildWorkforceCube(config);

  const Dimension& dim = wf.cube.schema().dimension(wf.dept_dim);
  std::vector<DynamicBitset> vs_out = TransformValiditySets(
      dim, Perspectives({2, 5, 8, 11}), Semantics::kBackward);

  WorkloadReport report;
  report.name = "fig13_varying_members";
  report.cells = wf.cube.CountNonNullCells();
  report.chunks = wf.cube.NumStoredChunks();
  report.timing = TimeRelocate(wf.cube, wf.dept_dim, vs_out, smoke ? 3 : 5);

  // Aggregate reuse under what-if: run one Fig. 13-shaped query end to end
  // and record how many derived cells consulted an aggregate cache. Before
  // batched evaluation this was identically zero (what-if queries
  // unconditionally bypassed the cache); now the per-query scratch views on
  // the transformed cube serve them.
  Database db;
  Status registered = RegisterWorkforce(&db, "App.Db", std::move(wf));
  if (!registered.ok()) abort();
  Executor exec(&db);
  Counter* lookups = MetricsRegistry::Global().counter("agg.cache.lookups");
  const int64_t before = lookups->value();
  Result<QueryResult> r = exec.Execute(
      "WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department STATIC "
      "SELECT {[Account].Levels(0).Members} ON COLUMNS, "
      "{CrossJoin({[Department].Children}, {Descendants([Period],1)})} "
      "ON ROWS FROM App.Db");
  if (!r.ok()) {
    fprintf(stderr, "fig13 query failed: %s\n", r.status().ToString().c_str());
    abort();
  }
  report.cache_lookups = lookups->value() - before;
  return report;
}

// Split kernel on the product cube: the probe moves a second time, so the
// change relation adds one instance and grows the varying extent (the
// geometry-changing path of ApplyDestTable).
WorkloadReport RunSplit(bool smoke) {
  ProductCubeConfig config;
  config.separation_chunks = smoke ? 400 : 2000;
  config.chunk_products = 1;
  config.move_moment = 6;
  ProductCube pc = BuildProductCube(config);
  const Dimension& dim = pc.cube.schema().dimension(pc.product_dim);

  ChangeRelation r;
  r.push_back(ChangeTuple{pc.probe, dim.instance(pc.probe_second).parent,
                          pc.groups[2 % pc.groups.size()], 9});

  WorkloadReport report;
  report.name = "split_product";
  report.cells = pc.cube.CountNonNullCells();
  report.chunks = pc.cube.NumStoredChunks();

  const int reps = smoke ? 3 : 5;
  Result<Cube> split = Split(pc.cube, pc.product_dim, r);
  if (!split.ok()) {
    fprintf(stderr, "split setup failed: %s\n",
            split.status().ToString().c_str());
    abort();
  }
  const Schema schema_out = split->schema();
  Cube ref = SplitReference(pc.cube, schema_out, pc.product_dim, r);
  report.timing.percell_ms = BestOfMs(reps, [&] {
    Cube out = SplitReference(pc.cube, schema_out, pc.product_dim, r);
    if (out.NumStoredChunks() == 0 && pc.cube.NumStoredChunks() > 0) abort();
  });
  for (int threads : kThreadCounts) {
    Result<Cube> out = Split(pc.cube, pc.product_dim, r, threads);
    report.timing.identical = report.timing.identical && out.ok() &&
                              CubesBitIdentical(ref, *out);
    report.timing.kernel_ms[threads] = BestOfMs(reps, [&] {
      Result<Cube> timed = Split(pc.cube, pc.product_dim, r, threads);
      if (!timed.ok()) abort();
    });
  }
  return report;
}

// Batched derived-cell evaluation vs the per-cell reference: a Fig. 10-
// shaped result grid over the workforce cube — rows = department root plus
// every department, columns = (Year + 12 months) x (Account root + every
// account). The per-cell path evaluates each grid cell with EvaluateCell
// (every cell re-scans its leaf scope); the kernel path is
// BatchCellEvaluator: one chunk pass materializes the cover views, then
// every derived cell is a weighted sum over the much smaller view. The
// workforce cube holds integer values, so double summation is exact and
// the two paths must agree bitwise at every thread count.
WorkloadReport RunRollup(bool smoke) {
  WorkforceConfig config;
  config.num_departments = smoke ? 10 : 51;
  config.num_employees = smoke ? 200 : 2025;
  config.num_changing = smoke ? 30 : 250;
  config.num_measures = smoke ? 4 : 10;
  config.num_scenarios = smoke ? 2 : 5;
  config.seed = 20080407;
  WorkforceCube wf = BuildWorkforceCube(config);
  const Cube& cube = wf.cube;
  const Schema& schema = cube.schema();
  const Dimension& dept = schema.dimension(wf.dept_dim);
  const Dimension& period = schema.dimension(wf.period_dim);
  const Dimension& account = schema.dimension(wf.account_dim);

  CellRef base(cube.num_dims());
  for (int d = 0; d < cube.num_dims(); ++d) {
    base[d] = AxisRef::OfMember(schema.dimension(d).root());
  }
  std::vector<std::vector<std::pair<int, AxisRef>>> rows, cols;
  rows.push_back({});  // Department root: the whole organization.
  for (MemberId m : dept.member(dept.root()).children) {
    rows.push_back({{wf.dept_dim, AxisRef::OfMember(m)}});
  }
  std::vector<AxisRef> period_refs = {AxisRef::OfMember(period.root())};
  for (MemberId q : period.member(period.root()).children) {
    for (MemberId m : period.member(q).children) {
      period_refs.push_back(AxisRef::OfMember(m));
    }
  }
  std::vector<AxisRef> account_refs = {AxisRef::OfMember(account.root())};
  for (MemberId m : account.member(account.root()).children) {
    account_refs.push_back(AxisRef::OfMember(m));
  }
  for (const AxisRef& p : period_refs) {
    for (const AxisRef& a : account_refs) {
      cols.push_back({{wf.period_dim, p}, {wf.account_dim, a}});
    }
  }
  const int num_rows = static_cast<int>(rows.size());
  const int num_cols = static_cast<int>(cols.size());
  auto ref_of = [&](int r, int c) {
    CellRef ref = base;
    for (const auto& [d, ar] : rows[r]) ref[d] = ar;
    for (const auto& [d, ar] : cols[c]) ref[d] = ar;
    return ref;
  };
  auto run_percell = [&](std::vector<CellValue>* out) {
    out->clear();
    out->reserve(static_cast<size_t>(num_rows) * num_cols);
    for (int r = 0; r < num_rows; ++r) {
      for (int c = 0; c < num_cols; ++c) {
        out->push_back(EvaluateCell(cube, ref_of(r, c)));
      }
    }
  };
  auto run_batched = [&](int threads, std::vector<CellValue>* out) {
    BatchEvalOptions options;
    options.threads = threads;
    BatchCellEvaluator batch(cube, nullptr, options);
    batch.PrepareGrid(base, rows, cols);
    out->clear();
    out->reserve(static_cast<size_t>(num_rows) * num_cols);
    for (int r = 0; r < num_rows; ++r) {
      for (int c = 0; c < num_cols; ++c) {
        out->push_back(batch.Evaluate(ref_of(r, c)));
      }
    }
  };
  auto bits_identical = [](const std::vector<CellValue>& a,
                           const std::vector<CellValue>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      double x = CellValue::ToStorage(a[i]);
      double y = CellValue::ToStorage(b[i]);
      if (std::memcmp(&x, &y, sizeof(x)) != 0) return false;
    }
    return true;
  };

  WorkloadReport report;
  report.name = "rollup_workforce";
  report.cells = cube.CountNonNullCells();
  report.chunks = cube.NumStoredChunks();

  const int reps = smoke ? 3 : 5;
  std::vector<CellValue> ref_grid, got;
  run_percell(&ref_grid);
  report.timing.percell_ms = BestOfMs(smoke ? 2 : 3, [&] {
    std::vector<CellValue> timed;
    run_percell(&timed);
    if (timed.size() != ref_grid.size()) abort();
  });
  for (int threads : kThreadCounts) {
    run_batched(threads, &got);
    report.timing.identical =
        report.timing.identical && bits_identical(ref_grid, got);
    report.timing.kernel_ms[threads] = BestOfMs(reps, [&] {
      std::vector<CellValue> timed;
      run_batched(threads, &timed);
      if (timed.size() != ref_grid.size()) abort();
    });
  }
  return report;
}

// Per-kernel microbenches over the Fig. 12 workload's chunks: the three
// vector primitives (masked run sum, weighted FMA merge, masked run copy)
// timed with the dispatched ISA vs the forced-scalar oracle, with
// bit-identity gated at every thread count. The chunk list is partitioned
// into a FIXED shard count (independent of the thread count) and shard
// partials merge in ascending shard order, so any thread count must produce
// byte-identical results — the same determinism contract the aggregator's
// partition plan follows.
struct KernelMicroEntry {
  std::string name;
  double scalar_ms = 0.0;             // forced-scalar oracle, serial.
  double simd_ms = 0.0;               // dispatched ISA, serial.
  std::map<int, double> threaded_ms;  // dispatched ISA, per thread count.
  bool identical = true;  // dispatched == scalar oracle at every thread count.
};

struct KernelMicroReport {
  int64_t cells = 0;
  int64_t chunks = 0;
  std::vector<KernelMicroEntry> entries;
};

constexpr int kKernelShards = 64;
// Acceptance gate: the dispatched masked run sum must beat the scalar
// oracle by at least this factor serially (only enforced when the AVX2
// kernels dispatched — the forced-scalar CI build runs the bit-identity
// gates but not the speedup gate).
constexpr double kRunSumMinSimdSpeedup = 2.0;

KernelMicroReport RunKernelMicro(bool smoke) {
  ProductCubeConfig config;
  config.separation_chunks = smoke ? 400 : 2000;
  config.chunk_products = 4;
  config.move_moment = 6;
  ProductCube pc = BuildProductCube(config);

  std::vector<const Chunk*> chunks;
  pc.cube.ForEachChunk(
      [&](ChunkId, const Chunk& chunk) { chunks.push_back(&chunk); });
  const int num_chunks = static_cast<int>(chunks.size());
  const int shards = std::min(kKernelShards, std::max(1, num_chunks));

  KernelMicroReport report;
  report.cells = pc.cube.CountNonNullCells();
  report.chunks = num_chunks;
  const int reps = smoke ? 5 : 9;

  auto shard_range = [&](int s, int* begin, int* end) {
    *begin = static_cast<int>(int64_t{s} * num_chunks / shards);
    *end = static_cast<int>(int64_t{s + 1} * num_chunks / shards);
  };
  auto for_shards = [&](int threads, const std::function<void(int)>& fn) {
    ThreadPool::Shared().ParallelFor(
        shards, threads, [&](int64_t s) { fn(static_cast<int>(s)); });
  };

  // --- masked run sum, at aggregation-run granularity: the fig12 chunk
  // images concatenate into one contiguous (values, bitmap) arena (Fig. 12
  // chunks are 12 cells — per-kernel-call overhead, not arithmetic, would
  // dominate a per-chunk timing; the rollup kernel's natural unit is the
  // unit-stride run). One kernel call per fixed shard, shard partials
  // combined ascending: the digest is the byte image of every shard's
  // (sum, count), so any reassociation or lane-shape deviation between
  // ISAs shows up as a digest mismatch at some thread count.
  int64_t arena_total = 0;
  for (const Chunk* c : chunks) arena_total += c->size();
  std::vector<double> arena_values(arena_total, 0.0);
  std::vector<uint64_t> arena_bits((arena_total + 63) / 64 + 1, 0);
  {
    int64_t off = 0;
    for (const Chunk* c : chunks) {
      kernels::CopyRunMasked(c->ValuesSpan(), c->NullBits().words(), 0,
                             arena_values.data() + off, arena_bits.data(), off,
                             c->size());
      off += c->size();
    }
  }
  auto cell_shard_range = [&](int s, int64_t* begin, int64_t* end) {
    *begin = int64_t{s} * arena_total / shards;
    *end = int64_t{s + 1} * arena_total / shards;
  };
  {
    KernelMicroEntry e;
    e.name = "masked_run_sum";
    auto run = [&](int threads, std::vector<kernels::RunSum>* partials) {
      partials->assign(shards, {});
      for_shards(threads, [&](int s) {
        int64_t begin, end;
        cell_shard_range(s, &begin, &end);
        (*partials)[s] = kernels::MaskedRunSum(
            arena_values.data() + begin, arena_bits.data(), begin, end - begin);
      });
    };
    std::vector<kernels::RunSum> oracle, got;
    kernels::ForceScalar(true);
    run(1, &oracle);
    e.scalar_ms = BestOfMs(reps, [&] { run(1, &got); });
    kernels::ForceScalar(false);
    for (int threads : kThreadCounts) {
      run(threads, &got);
      e.identical = e.identical &&
                    std::memcmp(oracle.data(), got.data(),
                                oracle.size() * sizeof(kernels::RunSum)) == 0;
      e.threaded_ms[threads] = BestOfMs(reps, [&] { run(threads, &got); });
    }
    e.simd_ms = e.threaded_ms.at(1);
    report.entries.push_back(std::move(e));
  }

  // --- weighted FMA merge: every chunk merges twice (w = 0.77) into its own
  // sentinel-encoded accumulator, exercising both the dst-⊥ (w*src) and the
  // fma(w, src, dst) element paths. Per-chunk accumulators make thread
  // counts trivially disjoint; the digest is the full accumulator image.
  {
    KernelMicroEntry e;
    e.name = "weighted_fma_merge";
    const double w = 0.77;
    std::vector<int64_t> dst_offset(num_chunks + 1, 0);
    for (int c = 0; c < num_chunks; ++c) {
      dst_offset[c + 1] = dst_offset[c] + chunks[c]->size();
    }
    const double null_bits = CellValue::ToStorage(CellValue());
    std::vector<double> dst(dst_offset[num_chunks]);
    auto run = [&](int threads) {
      for_shards(threads, [&](int s) {
        int begin, end;
        shard_range(s, &begin, &end);
        for (int c = begin; c < end; ++c) {
          const Chunk& ch = *chunks[c];
          double* out = dst.data() + dst_offset[c];
          std::fill(out, out + ch.size(), null_bits);
          for (int pass = 0; pass < 2; ++pass) {
            kernels::MergeWeightedRunIntoSentinel(
                w, ch.ValuesSpan(), ch.NullBits().words(), 0, out, ch.size());
          }
        }
      });
    };
    std::vector<double> oracle;
    kernels::ForceScalar(true);
    run(1);
    oracle = dst;
    e.scalar_ms = BestOfMs(reps, [&] { run(1); });
    kernels::ForceScalar(false);
    for (int threads : kThreadCounts) {
      run(threads);
      e.identical = e.identical &&
                    std::memcmp(oracle.data(), dst.data(),
                                dst.size() * sizeof(double)) == 0;
      e.threaded_ms[threads] = BestOfMs(reps, [&] { run(threads); });
    }
    e.simd_ms = e.threaded_ms.at(1);
    report.entries.push_back(std::move(e));
  }

  // --- masked run copy: every chunk's valid cells copy into a shared
  // (values, bitmap) arena at a deliberately word-misaligned destination
  // offset, so the shifted OrBitsAt path runs, not just the aligned fast
  // path. The digest covers values, bitmap words and per-chunk copy counts.
  {
    KernelMicroEntry e;
    e.name = "masked_run_copy";
    // Every chunk's destination starts 13 bits past a word boundary (the
    // shifted OrBitsAt path), but ranges round up to whole words so two
    // chunks — which may run on different threads — never OR into the same
    // bitmap word.
    std::vector<int64_t> dst_offset(num_chunks + 1, 13);
    for (int c = 0; c < num_chunks; ++c) {
      dst_offset[c + 1] =
          ((dst_offset[c] + chunks[c]->size() + 63) / 64) * 64 + 13;
    }
    const int64_t arena_cells = dst_offset[num_chunks];
    std::vector<double> values(arena_cells, 0.0);
    std::vector<uint64_t> bits((arena_cells + 63) / 64 + 1, 0);
    std::vector<int64_t> copied(num_chunks, 0);
    auto run = [&](int threads) {
      std::fill(values.begin(), values.end(), 0.0);
      std::fill(bits.begin(), bits.end(), 0);
      for_shards(threads, [&](int s) {
        int begin, end;
        shard_range(s, &begin, &end);
        for (int c = begin; c < end; ++c) {
          const Chunk& ch = *chunks[c];
          copied[c] = kernels::CopyRunMasked(
              ch.ValuesSpan(), ch.NullBits().words(), 0,
              values.data() + dst_offset[c], bits.data(), dst_offset[c],
              ch.size());
        }
      });
    };
    std::vector<double> oracle_values;
    std::vector<uint64_t> oracle_bits;
    std::vector<int64_t> oracle_copied;
    kernels::ForceScalar(true);
    run(1);
    oracle_values = values;
    oracle_bits = bits;
    oracle_copied = copied;
    e.scalar_ms = BestOfMs(reps, [&] { run(1); });
    kernels::ForceScalar(false);
    for (int threads : kThreadCounts) {
      run(threads);
      e.identical =
          e.identical &&
          std::memcmp(oracle_values.data(), values.data(),
                      values.size() * sizeof(double)) == 0 &&
          std::memcmp(oracle_bits.data(), bits.data(),
                      bits.size() * sizeof(uint64_t)) == 0 &&
          oracle_copied == copied;
      e.threaded_ms[threads] = BestOfMs(reps, [&] { run(threads); });
    }
    e.simd_ms = e.threaded_ms.at(1);
    report.entries.push_back(std::move(e));
  }

  // Shards may be one chunk wide on word-misaligned boundaries: different
  // thread counts must still byte-match because shard partials, not thread
  // partials, define the merge order. Chunk counts below the shard count
  // leave trailing shards empty — harmless, their partials stay zero.
  return report;
}

// --profile: the instrumentation-overhead experiment. The Fig. 12 Relocate
// (the acceptance workload) runs best-of-reps with tracing disabled, then
// again inside a tracing session, at 1 and 4 threads. The enabled run's
// drained trace becomes the per-span breakdown; the metrics delta over the
// whole experiment rides along. The kernels carry spans at operator
// granularity (never per cell), so the enabled/disabled ratio is the whole
// cost of the observability layer on the hot path.
struct ProfileReport {
  int reps = 0;
  std::map<int, double> off_ms;  // tracing disabled, best-of-reps.
  std::map<int, double> on_ms;   // tracing enabled, best-of-reps.
  std::vector<TraceData::AggregateRow> spans;
  std::string metrics_delta_json;

  double OverheadRatio(int threads) const {
    double off = off_ms.at(threads);
    return off > 0 ? on_ms.at(threads) / off : 1.0;
  }
};

constexpr double kProfileOverheadLimit = 1.05;
// Smoke workloads finish in a few ms, where scheduler jitter alone can
// exceed 5%; the absolute grace keeps the gate meaningful without flaking.
constexpr double kProfileGraceMs = 0.25;

ProfileReport RunProfile(bool smoke) {
  ProductCubeConfig config;
  config.separation_chunks = smoke ? 400 : 2000;
  config.chunk_products = 4;
  config.move_moment = 6;
  ProductCube pc = BuildProductCube(config);
  const Dimension& dim = pc.cube.schema().dimension(pc.product_dim);
  std::vector<DynamicBitset> vs_out = TransformValiditySets(
      dim, Perspectives({0, 6}), Semantics::kForward);

  ProfileReport report;
  report.reps = smoke ? 5 : 7;
  MetricsRegistry::Snapshot before = MetricsRegistry::Global().TakeSnapshot();
  for (int threads : {1, 4}) {
    auto run = [&] {
      Cube out = Relocate(pc.cube, pc.product_dim, vs_out, {}, nullptr,
                          threads);
      if (out.NumStoredChunks() != pc.cube.NumStoredChunks()) abort();
    };
    report.off_ms[threads] = BestOfMs(report.reps, run);
    if (!TraceCollector::Enable()) abort();
    report.on_ms[threads] = BestOfMs(report.reps, run);
    TraceData trace = TraceCollector::DisableAndDrain();
    if (threads == 4) report.spans = trace.Aggregate();
  }
  report.metrics_delta_json =
      MetricsRegistry::Snapshot::Delta(before,
                                       MetricsRegistry::Global().TakeSnapshot())
          .ToJson();
  return report;
}

void WriteProfileJson(FILE* f, const ProfileReport& r, bool smoke) {
  fprintf(f, "{\n");
  fprintf(f, "  \"bench\": \"bench_kernels_profile\",\n");
  fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(f, "  \"workload\": \"fig12_colocation\",\n");
  fprintf(f, "  \"reps\": %d,\n", r.reps);
  fprintf(f, "  \"overhead_limit\": %.2f,\n", kProfileOverheadLimit);
  for (const char* key : {"tracing_off_ms", "tracing_on_ms"}) {
    const std::map<int, double>& ms =
        std::strcmp(key, "tracing_off_ms") == 0 ? r.off_ms : r.on_ms;
    fprintf(f, "  \"%s\": {", key);
    bool first = true;
    for (const auto& [threads, v] : ms) {
      fprintf(f, "%s\"%d\": %.4f", first ? "" : ", ", threads, v);
      first = false;
    }
    fprintf(f, "},\n");
  }
  fprintf(f, "  \"overhead_ratio\": {");
  bool first = true;
  for (const auto& [threads, v] : r.off_ms) {
    (void)v;
    fprintf(f, "%s\"%d\": %.4f", first ? "" : ", ", threads,
            r.OverheadRatio(threads));
    first = false;
  }
  fprintf(f, "},\n");
  fprintf(f, "  \"spans\": [\n");
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const TraceData::AggregateRow& row = r.spans[i];
    fprintf(f,
            "    {\"name\": \"%s\", \"depth\": %d, \"count\": %lld, "
            "\"total_ms\": %.4f, \"errors\": %lld}%s\n",
            row.name.c_str(), row.depth, static_cast<long long>(row.count),
            static_cast<double>(row.total_ns) / 1e6,
            static_cast<long long>(row.errors),
            i + 1 < r.spans.size() ? "," : "");
  }
  fprintf(f, "  ],\n");
  fprintf(f, "  \"metrics_delta\": %s", r.metrics_delta_json.c_str());
  fprintf(f, "}\n");
}

// Governor overhead: the Fig. 12 what-if query end-to-end with the
// governor off vs enabled-but-idle (a QueryContext is created and polled
// at every phase boundary, but no limit ever trips). The ratio is the
// whole cost of governance plumbing on an unpressured query; CI gates it
// at kGovernorOverheadLimit under --check.
struct GovernorReport {
  int reps = 0;
  std::map<int, double> off_ms;  // governor absent, best-of-reps.
  std::map<int, double> on_ms;   // governor enabled-but-idle.

  double OverheadRatio(int threads) const {
    double off = off_ms.at(threads);
    return off > 0 ? on_ms.at(threads) / off : 1.0;
  }
};

constexpr double kGovernorOverheadLimit = 1.05;
// Same reasoning as kProfileGraceMs: millisecond-scale smoke queries
// jitter by more than 5% on a loaded machine.
constexpr double kGovernorGraceMs = 0.25;

GovernorReport RunGovernorOverhead(bool smoke) {
  ProductCubeConfig config;
  config.separation_chunks = smoke ? 40 : 200;
  config.chunk_products = 4;
  config.move_moment = 6;
  ProductCube pc = BuildProductCube(config);
  Database db;
  if (!db.AddCube("Products", pc.cube).ok()) abort();
  Executor exec(&db);
  const char* query =
      "WITH PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD "
      "SELECT {Time.[Jan], Time.[Jul]} ON COLUMNS, "
      "{Product.[1001]} ON ROWS FROM Products "
      "WHERE (Measures.[Sales])";

  GovernorReport report;
  report.reps = smoke ? 5 : 7;
  for (int threads : {1, 4}) {
    QueryOptions off;
    off.eval_threads = threads;
    report.off_ms[threads] = BestOfMs(report.reps, [&] {
      Result<QueryResult> r = exec.Execute(query, off);
      if (!r.ok()) abort();
    });
    QueryOptions on = off;
    on.governor.enabled = true;
    report.on_ms[threads] = BestOfMs(report.reps, [&] {
      Result<QueryResult> r = exec.Execute(query, on);
      // Idle means idle: an unpressured query must not degrade.
      if (!r.ok() || !r->governor_steps.empty()) abort();
    });
  }
  return report;
}

void WriteJson(FILE* f, const std::vector<WorkloadReport>& reports,
               const KernelMicroReport& micro,
               const GovernorReport& governor, bool smoke) {
  fprintf(f, "{\n");
  fprintf(f, "  \"bench\": \"bench_kernels\",\n");
  fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(f, "  \"thread_counts\": [1, 2, 4, 8],\n");
  // Which vector ISA the dispatched kernels resolved to on this machine —
  // without this the per-kernel speedups below are uninterpretable across
  // CI runners (and the forced-scalar job reports "scalar" here).
  fprintf(f, "  \"cpu\": {\"kernel_isa\": \"%s\", \"simd_compiled_in\": %s, "
          "\"avx2\": %s},\n",
          kernels::IsaName(kernels::ActiveIsa()),
          kernels::SimdCompiledIn() ? "true" : "false",
          kernels::ActiveIsa() == kernels::Isa::kAvx2 ? "true" : "false");
  // hardware_cores is the effective parallelism the pool plans with (the
  // affinity-visible count); hardware_concurrency is the machine's raw
  // report, kept so CI runs on restricted cpusets are interpretable.
  fprintf(f, "  \"hardware_cores\": %d,\n", ThreadPool::HardwareCores());
  fprintf(f, "  \"hardware_concurrency\": %u,\n",
          std::max(1u, std::thread::hardware_concurrency()));
  fprintf(f, "  \"affinity_cores\": %d,\n", ThreadPool::AffinityVisibleCores());
  fprintf(f, "  \"governor_overhead\": {\"limit\": %.2f, ",
          kGovernorOverheadLimit);
  for (const char* key : {"off_ms", "on_ms"}) {
    const std::map<int, double>& ms =
        std::strcmp(key, "off_ms") == 0 ? governor.off_ms : governor.on_ms;
    fprintf(f, "\"%s\": {", key);
    bool first_entry = true;
    for (const auto& [threads, v] : ms) {
      fprintf(f, "%s\"%d\": %.4f", first_entry ? "" : ", ", threads, v);
      first_entry = false;
    }
    fprintf(f, "}, ");
  }
  fprintf(f, "\"ratio\": {");
  bool first_ratio = true;
  for (const auto& [threads, v] : governor.off_ms) {
    (void)v;
    fprintf(f, "%s\"%d\": %.4f", first_ratio ? "" : ", ", threads,
            governor.OverheadRatio(threads));
    first_ratio = false;
  }
  fprintf(f, "}},\n");
  fprintf(f, "  \"kernels\": {\n");
  fprintf(f, "    \"workload\": \"fig12_colocation\",\n");
  fprintf(f, "    \"cells\": %lld,\n", static_cast<long long>(micro.cells));
  fprintf(f, "    \"chunks\": %lld,\n", static_cast<long long>(micro.chunks));
  fprintf(f, "    \"entries\": [\n");
  for (size_t i = 0; i < micro.entries.size(); ++i) {
    const KernelMicroEntry& e = micro.entries[i];
    fprintf(f, "      {\"name\": \"%s\", \"bit_identical\": %s, "
            "\"scalar_ms\": %.4f, \"simd_ms\": %.4f, \"simd_speedup\": %.2f, "
            "\"threaded_ms\": {",
            e.name.c_str(), e.identical ? "true" : "false", e.scalar_ms,
            e.simd_ms, e.simd_ms > 0 ? e.scalar_ms / e.simd_ms : 0.0);
    bool first = true;
    for (const auto& [threads, ms] : e.threaded_ms) {
      fprintf(f, "%s\"%d\": %.4f", first ? "" : ", ", threads, ms);
      first = false;
    }
    fprintf(f, "}}%s\n", i + 1 < micro.entries.size() ? "," : "");
  }
  fprintf(f, "    ]\n");
  fprintf(f, "  },\n");
  fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    fprintf(f, "    {\n");
    fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    fprintf(f, "      \"cells\": %lld,\n", static_cast<long long>(r.cells));
    fprintf(f, "      \"chunks\": %lld,\n", static_cast<long long>(r.chunks));
    fprintf(f, "      \"bit_identical\": %s,\n",
            r.timing.identical ? "true" : "false");
    if (r.cache_lookups >= 0) {
      fprintf(f, "      \"cache_lookups\": %lld,\n",
              static_cast<long long>(r.cache_lookups));
    }
    fprintf(f, "      \"percell_ms\": %.4f,\n", r.timing.percell_ms);
    fprintf(f, "      \"kernel_ms\": {");
    bool first = true;
    for (const auto& [threads, ms] : r.timing.kernel_ms) {
      fprintf(f, "%s\"%d\": %.4f", first ? "" : ", ", threads, ms);
      first = false;
    }
    fprintf(f, "},\n");
    const double k1 = r.timing.kernel_ms.at(1);
    const double k4 = r.timing.kernel_ms.at(4);
    fprintf(f, "      \"speedup_kernel_serial\": %.2f,\n",
            k1 > 0 ? r.timing.percell_ms / k1 : 0.0);
    fprintf(f, "      \"speedup_kernel_4t\": %.2f\n",
            k4 > 0 ? r.timing.percell_ms / k4 : 0.0);
    fprintf(f, "    }%s\n", i + 1 < reports.size() ? "," : "");
  }
  fprintf(f, "  ]\n");
  fprintf(f, "}\n");
}

int Main(int argc, char** argv) {
  bool smoke = false, check = false, profile = false;
  std::string out_path, profile_out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-out") == 0 && i + 1 < argc) {
      profile_out_path = argv[++i];
    } else {
      fprintf(stderr,
              "usage: %s [--smoke] [--out <path>] [--check] [--profile] "
              "[--profile-out <path>]\n",
              argv[0]);
      return 2;
    }
  }
  if (profile && profile_out_path.empty() && !out_path.empty()) {
    // Default: next to the main report.
    std::string dir = out_path;
    size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "" : dir.substr(0, slash + 1);
    profile_out_path = dir + "BENCH_kernels_profile.json";
  }

  std::vector<WorkloadReport> reports;
  reports.push_back(RunFig11(smoke));
  reports.push_back(RunFig12(smoke));
  reports.push_back(RunFig13(smoke));
  reports.push_back(RunSplit(smoke));
  reports.push_back(RunRollup(smoke));
  KernelMicroReport micro = RunKernelMicro(smoke);
  GovernorReport governor = RunGovernorOverhead(smoke);

  WriteJson(stdout, reports, micro, governor, smoke);
  if (!out_path.empty()) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 2;
    }
    WriteJson(f, reports, micro, governor, smoke);
    std::fclose(f);
  }

  int failures = 0;
  // The bit-identity gates run unconditionally (like the workload identity
  // gates below); the speedup gate is --check only, and only binds when
  // the AVX2 kernels actually dispatched — the forced-scalar CI build would
  // otherwise fail it by construction.
  const bool simd_active = kernels::ActiveIsa() == kernels::Isa::kAvx2;
  for (const KernelMicroEntry& e : micro.entries) {
    if (!e.identical) {
      fprintf(stderr,
              "FAIL kernel %s: dispatched (%s) output differs from the "
              "scalar oracle\n",
              e.name.c_str(), kernels::IsaName(kernels::ActiveIsa()));
      ++failures;
    }
    if (check && simd_active && e.name == "masked_run_sum") {
      const double speedup = e.simd_ms > 0 ? e.scalar_ms / e.simd_ms : 0.0;
      if (speedup < kRunSumMinSimdSpeedup) {
        fprintf(stderr,
                "FAIL kernel %s: %s serial speedup %.2fx < %.1fx over the "
                "scalar oracle\n",
                e.name.c_str(), kernels::IsaName(kernels::ActiveIsa()),
                speedup, kRunSumMinSimdSpeedup);
        ++failures;
      }
    }
  }
  if (check) {
    for (int threads : {1, 4}) {
      const double off = governor.off_ms.at(threads);
      const double on = governor.on_ms.at(threads);
      if (on > off * kGovernorOverheadLimit + kGovernorGraceMs) {
        fprintf(stderr,
                "FAIL fig12 governor (%d thread%s): enabled-but-idle %.3f ms "
                "vs off %.3f ms (limit %.0f%% + %.2f ms)\n",
                threads, threads == 1 ? "" : "s", on, off,
                (kGovernorOverheadLimit - 1.0) * 100, kGovernorGraceMs);
        ++failures;
      }
    }
  }
  if (profile) {
    ProfileReport prof = RunProfile(smoke);
    WriteProfileJson(stdout, prof, smoke);
    if (!profile_out_path.empty()) {
      FILE* f = std::fopen(profile_out_path.c_str(), "w");
      if (f == nullptr) {
        fprintf(stderr, "cannot open %s\n", profile_out_path.c_str());
        return 2;
      }
      WriteProfileJson(f, prof, smoke);
      std::fclose(f);
    }
    if (check) {
      for (int threads : {1, 4}) {
        const double off = prof.off_ms.at(threads);
        const double on = prof.on_ms.at(threads);
        if (on > off * kProfileOverheadLimit + kProfileGraceMs) {
          fprintf(stderr,
                  "FAIL fig12 profile (%d thread%s): tracing on %.3f ms vs "
                  "off %.3f ms (limit %.0f%% + %.2f ms)\n",
                  threads, threads == 1 ? "" : "s", on, off,
                  (kProfileOverheadLimit - 1.0) * 100, kProfileGraceMs);
          ++failures;
        }
      }
    }
  }
  const int cores = ThreadPool::HardwareCores();
  for (const WorkloadReport& r : reports) {
    if (!r.timing.identical) {
      fprintf(stderr, "FAIL %s: kernel output differs from reference\n",
              r.name.c_str());
      ++failures;
    }
    if (!check) continue;
    if (r.timing.kernel_ms.at(1) > kCheckSlowdownLimit * r.timing.percell_ms) {
      fprintf(stderr,
              "FAIL %s: kernel serial %.3f ms vs per-cell %.3f ms "
              "(limit %.1fx)\n",
              r.name.c_str(), r.timing.kernel_ms.at(1), r.timing.percell_ms,
              kCheckSlowdownLimit);
      ++failures;
    }
    // Thread scaling must never regress: kernel_ms monotonically
    // non-increasing up to the core count, within noise. Beyond the core
    // count the work-unit cutoff keeps extra threads free, so the same
    // bound holds there too.
    const double grace = std::max(kThreadNoiseGraceMs,
                                  kThreadNoiseGraceFraction * r.timing.percell_ms);
    double prev = r.timing.kernel_ms.at(1);
    for (int threads : kThreadCounts) {
      if (threads == 1) continue;
      const double ms = r.timing.kernel_ms.at(threads);
      const double limit =
          threads <= cores ? prev * kThreadNoiseLimit + grace
                           : r.timing.kernel_ms.at(1) * kThreadNoiseLimit + grace;
      if (ms > limit) {
        fprintf(stderr,
                "FAIL %s: kernel %.3f ms at %d threads vs %.3f ms limit "
                "(parallel overhead regression)\n",
                r.name.c_str(), ms, threads, limit);
        ++failures;
      }
      if (threads <= cores) prev = ms;
    }
    if (r.name == "rollup_workforce") {
      const double serial_speedup =
          r.timing.kernel_ms.at(1) > 0
              ? r.timing.percell_ms / r.timing.kernel_ms.at(1)
              : 0.0;
      if (serial_speedup < kRollupMinSerialSpeedup) {
        fprintf(stderr,
                "FAIL %s: batched serial speedup %.2fx < %.1fx\n",
                r.name.c_str(), serial_speedup, kRollupMinSerialSpeedup);
        ++failures;
      }
      if (r.timing.kernel_ms.at(4) >
          r.timing.kernel_ms.at(1) * kRollup4tNoiseLimit + grace) {
        fprintf(stderr, "FAIL %s: 4-thread %.3f ms slower than serial %.3f ms\n",
                r.name.c_str(), r.timing.kernel_ms.at(4),
                r.timing.kernel_ms.at(1));
        ++failures;
      }
    }
    if (r.name == "fig13_varying_members" && r.cache_lookups == 0) {
      fprintf(stderr,
              "FAIL %s: what-if query made no aggregate cache lookups\n",
              r.name.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace olap::bench

int main(int argc, char** argv) { return olap::bench::Main(argc, argv); }
