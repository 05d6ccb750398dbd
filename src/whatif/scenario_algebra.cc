#include "whatif/scenario_algebra.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "rules/evaluator.h"
#include "whatif/merge_graph.h"
#include "whatif/pebbling.h"

namespace olap {

ScenarioSpec ScenarioSpec::FromWhatIf(const WhatIfSpec& spec) {
  ScenarioSpec s;
  s.varying_dim = spec.varying_dim;
  s.mode = spec.mode;
  s.scope_members = spec.scope_members;
  s.pebbling_read_order = spec.pebbling_read_order;
  if (!spec.introductions.empty()) {
    s.ops.push_back(ScenarioOp::Introduce(spec.introductions));
  }
  if (!spec.changes.empty()) {
    s.ops.push_back(ScenarioOp::SplitOp(spec.changes));
  }
  if (!spec.perspectives.empty()) {
    s.ops.push_back(ScenarioOp::Perspective(spec.perspectives, spec.semantics));
  }
  return s;
}

bool ScenarioSpec::canonical() const {
  // Canonical order is [introduce?, split?, perspective?]: kinds strictly
  // ascending in the Kind enum's declaration order, each at most once.
  int last = -1;
  for (const ScenarioOp& op : ops) {
    const int k = static_cast<int>(op.kind);
    if (k <= last) return false;
    last = k;
  }
  return true;
}

namespace {

CubeOptions OptionsOf(const Cube& in) {
  CubeOptions opts;
  opts.chunk_sizes = in.layout().chunk_sizes();
  return opts;
}

Gauge* PeakMergeChunksGauge() {
  static Gauge* g = MetricsRegistry::Global().gauge("whatif.peak_merge_chunks");
  return g;
}

// Charges one read pass over `schedule`: one seek per chunk, or with
// `pipelined_io` the coalescing walk's ranged reads (identical chunk set,
// fewer seeks).
void ChargeReadPass(const std::vector<ChunkId>& schedule, SimulatedDisk* disk,
                    bool pipelined_io) {
  if (disk == nullptr) return;
  if (pipelined_io) {
    disk->ReadSchedule(schedule);  // Charge-only: cannot fail.
    return;
  }
  for (ChunkId id : schedule) disk->ReadChunk(id);
}

// Charges one scan over the chunks holding `scope`'s instances (every
// stored chunk for an empty scope).
void ChargeScan(const Cube& cube, int varying_dim,
                const std::vector<MemberId>& scope, SimulatedDisk* disk,
                EvalStats* stats, bool pipelined_io) {
  TraceSpan span("whatif.scan");
  std::vector<ChunkId> chunks = RelevantChunks(cube, varying_dim, scope);
  span.SetDetail("chunks=" + std::to_string(chunks.size()));
  ++stats->passes;
  stats->chunk_reads += static_cast<int64_t>(chunks.size());
  ChargeReadPass(chunks, disk, pipelined_io);
}

// Charges one relocation pass: only the chunks holding (a) instances that
// survive into the output (non-empty vs_out) and (b) the source instances
// their values are copied from need to be touched — this is why the
// paper's static query time grows with the number of perspectives (more
// surviving instances to retrieve and merge, Sec. 6.1). An empty `scope`
// charges every member's instances.
void ChargeRelocationScan(const Cube& cube, int varying_dim,
                          const std::vector<DynamicBitset>& vs_out,
                          const std::vector<MemberId>& scope,
                          bool pebbling_read_order, SimulatedDisk* disk,
                          EvalStats* stats, bool pipelined_io) {
  TraceSpan span("whatif.merge_scan");
  const Dimension& dim = cube.schema().dimension(varying_dim);
  std::unordered_set<MemberId> in_scope(scope.begin(), scope.end());
  std::vector<bool> needed(dim.num_positions(), false);
  std::vector<bool> member_seen(dim.num_members(), false);
  std::vector<MemberId> merge_members;
  for (const MemberInstance& inst : dim.instances()) {
    if (!in_scope.empty() && in_scope.count(inst.member) == 0) continue;
    const DynamicBitset& vs = vs_out[inst.id];
    if (vs.None()) continue;
    needed[inst.id] = true;
    for (int t = vs.FindFirst(); t >= 0; t = vs.FindNext(t + 1)) {
      InstanceId src = dim.InstanceValidAt(inst.member, t);
      if (src != kInvalidInstance) needed[src] = true;
    }
    if (!member_seen[inst.member]) {
      member_seen[inst.member] = true;
      merge_members.push_back(inst.member);
    }
  }
  const ChunkLayout& layout = cube.layout();
  const int width = layout.chunk_sizes()[varying_dim];
  // Chunk ids are row-major over the chunk grid (last dimension fastest):
  // the varying dimension's chunk coordinate is (id / stride) % count.
  int64_t stride = 1;
  for (int d = layout.num_dims() - 1; d > varying_dim; --d) {
    stride *= layout.chunks_per_dim()[d];
  }
  const int64_t count = layout.chunks_per_dim()[varying_dim];
  std::vector<ChunkId> relevant;
  cube.ForEachChunkWhile([&](ChunkId id, const Chunk&) {
    const int base = static_cast<int>((id / stride) % count) * width;
    for (int pos = base; pos < base + width && pos < dim.num_positions(); ++pos) {
      if (needed[pos]) {
        relevant.push_back(id);
        break;
      }
    }
    return true;
  });

  // How many chunks must be co-resident to merge related instances, under
  // the chosen read order (the Sec. 5.2 pebble count). With the heuristic,
  // the merge-graph chunks are read in the pebbling order (front of the
  // schedule); otherwise everything goes in ascending id order.
  TraceSpan pebble_span("whatif.plan.pebble");
  MergeGraph graph = BuildMergeGraph(cube, varying_dim, merge_members);
  std::vector<ChunkId> schedule;
  if (pebbling_read_order && graph.num_nodes() > 0) {
    PebbleResult pebbled = HeuristicPebble(graph);
    pebble_span.SetDetail("heuristic peak=" + std::to_string(pebbled.peak_pebbles));
    stats->peak_merge_chunks =
        std::max(stats->peak_merge_chunks, pebbled.peak_pebbles);
    PeakMergeChunksGauge()->Set(pebbled.peak_pebbles);
    // Merge-graph chunks (those actually stored) first, in pebbling order;
    // the remaining relevant chunks keep ascending order.
    std::unordered_set<ChunkId> stored(relevant.begin(), relevant.end());
    std::unordered_set<ChunkId> graph_chunks;
    schedule.reserve(relevant.size());
    for (int node : pebbled.order) {
      ChunkId id = graph.chunk(node);
      graph_chunks.insert(id);
      if (stored.count(id) > 0) schedule.push_back(id);
    }
    for (ChunkId id : relevant) {
      if (graph_chunks.count(id) == 0) schedule.push_back(id);
    }
  } else {
    schedule = relevant;  // ForEachChunk iterates ascending.
    if (graph.num_nodes() > 0) {
      std::vector<int> ascending(graph.num_nodes());
      std::iota(ascending.begin(), ascending.end(), 0);
      std::sort(ascending.begin(), ascending.end(), [&](int a, int b) {
        return graph.chunk(a) < graph.chunk(b);
      });
      const int peak = PeakPebblesForOrder(graph, ascending);
      pebble_span.SetDetail("ascending peak=" + std::to_string(peak));
      stats->peak_merge_chunks = std::max(stats->peak_merge_chunks, peak);
      PeakMergeChunksGauge()->Set(peak);
    }
  }
  ++stats->passes;
  stats->chunk_reads += static_cast<int64_t>(schedule.size());
  ChargeReadPass(schedule, disk, pipelined_io);
}

// For MultipleMdx post-processing: the index of the single-perspective run
// whose output governs moment t under the full semantics, or -1 when the
// runs merge by union at t.
int GoverningRun(const Perspectives& p, Semantics sem, int t) {
  const std::vector<int>& m = p.moments();
  switch (sem) {
    case Semantics::kStatic:
      return -1;  // Static merges by union; no per-moment governor.
    case Semantics::kForward:
    case Semantics::kExtendedForward: {
      // Before Pmin, dynamic forward keeps the original assignment of every
      // instance that survives *any* perspective, while each run keeps only
      // the survivors of its own: the union of the runs. Extended forward
      // hands those moments to the first perspective, i.e. run 0.
      if (t < m.front() && sem == Semantics::kForward) return -1;
      int run = 0;
      for (int i = 0; i < p.size(); ++i) {
        if (m[i] <= t) run = i;
      }
      return run;
    }
    case Semantics::kBackward:
    case Semantics::kExtendedBackward: {
      // The mirror image: after Pmax, dynamic backward merges by union and
      // extended backward rides with the last run.
      if (t > m.back() && sem == Semantics::kBackward) return -1;
      int run = p.size() - 1;
      for (int i = p.size() - 1; i >= 0; --i) {
        if (m[i] >= t) run = i;
      }
      return run;
    }
  }
  return 0;
}

void AccumulateStats(EvalStats* into, const EvalStats& other) {
  into->passes += other.passes;
  into->chunk_reads += other.chunk_reads;
  into->cells_moved += other.cells_moved;
  into->cells_seeded += other.cells_seeded;
  into->virtual_io_seconds += other.virtual_io_seconds;
  into->peak_merge_chunks =
      std::max(into->peak_merge_chunks, other.peak_merge_chunks);
}

// Mirrors one composition's EvalStats into the process-wide registry when
// it finishes (any return path, including errors).
struct EvalStatsFlush {
  const EvalStats* stats;
  ~EvalStatsFlush() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static Counter* passes = reg.counter("whatif.passes");
    static Counter* chunk_reads = reg.counter("whatif.chunk_reads");
    static Counter* cells_moved = reg.counter("whatif.cells_moved");
    static Counter* cells_seeded = reg.counter("whatif.cells_seeded");
    passes->Increment(stats->passes);
    chunk_reads->Increment(stats->chunk_reads);
    cells_moved->Increment(stats->cells_moved);
    cells_seeded->Increment(stats->cells_seeded);
  }
};

struct ComposeMetrics {
  Counter* runs;
  Counter* ops;
  Counter* introduced_members;
  static const ComposeMetrics& Get() {
    static ComposeMetrics m{
        MetricsRegistry::Global().counter("scenario.compose.runs"),
        MetricsRegistry::Global().counter("scenario.compose.ops"),
        MetricsRegistry::Global().counter("scenario.compose.introduced_members"),
    };
    return m;
  }
};

// The Multiple-MDX perspective (the paper's upper-bound baseline): one
// single-perspective relocation per moment, then a post-processing pass
// that merges the k result sets into one.
Result<Cube> MultipleMdxPerspective(const Cube& src, const ScenarioSpec& spec,
                                    const ScenarioOp& op,
                                    const std::vector<MemberId>& scan_scope,
                                    const std::vector<MemberId>& relocate_scope,
                                    const ScenarioEvalOptions& opts,
                                    EvalStats* stats) {
  const int vd = spec.varying_dim;
  const Dimension& dim = src.schema().dimension(vd);
  const int universe = dim.parameter_leaf_count();
  const int param_dim = src.schema().parameter_of(vd);
  std::vector<Cube> runs;
  std::vector<std::vector<DynamicBitset>> run_vs;
  runs.reserve(op.perspectives.size());
  for (int p : op.perspectives.moments()) {
    OLAP_RETURN_IF_ERROR(opts.cancel.Poll("what-if compute"));
    Perspectives single({p});
    std::vector<DynamicBitset> vs =
        TransformValiditySets(dim, single, op.semantics);
    ChargeRelocationScan(src, vd, vs, scan_scope, spec.pebbling_read_order,
                         opts.disk, stats, opts.pipelined_io);
    runs.push_back(Relocate(src, vd, vs, relocate_scope, &stats->cells_moved,
                            opts.eval_threads, opts.cancel));
    run_vs.push_back(std::move(vs));
  }
  OLAP_RETURN_IF_ERROR(opts.cancel.Poll("what-if compute"));

  // Post-processing pass: merge metadata and cells.
  std::vector<DynamicBitset> merged_vs(dim.num_instances(),
                                       DynamicBitset(universe));
  for (int t = 0; t < universe; ++t) {
    int run = GoverningRun(op.perspectives, op.semantics, t);
    for (InstanceId i = 0; i < dim.num_instances(); ++i) {
      if (run < 0) {  // Static: union across runs.
        for (const std::vector<DynamicBitset>& vs : run_vs) {
          if (vs[i].Test(t)) merged_vs[i].Set(t);
        }
      } else if (run_vs[run][i].Test(t)) {
        merged_vs[i].Set(t);
      }
    }
  }
  Schema merged_schema = src.schema();
  {
    Dimension* d_out = merged_schema.mutable_dimension(vd);
    std::unordered_set<MemberId> in_scope(relocate_scope.begin(),
                                          relocate_scope.end());
    for (InstanceId i = 0; i < dim.num_instances(); ++i) {
      if (in_scope.empty() || in_scope.count(dim.instance(i).member) > 0) {
        d_out->SetInstanceValidity(i, merged_vs[i]);
      }
    }
  }
  Cube merged(merged_schema, OptionsOf(src));
  for (int r = 0; r < static_cast<int>(runs.size()); ++r) {
    OLAP_RETURN_IF_ERROR(opts.cancel.Poll("what-if compute"));
    runs[r].ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
      int governing =
          GoverningRun(op.perspectives, op.semantics, coords[param_dim]);
      if (governing >= 0 && governing != r) return;
      merged.SetCell(coords, v);
      ++stats->cells_moved;
    });
  }
  return merged;
}

// Applies one op to `src`, charging its read passes. `scope` is the Sec.
// 6.3 member scope (empty = none): a perspective's merge-scan charge reads
// only its chunks and, when `scoped`, its relocation moves only its cells.
// `applied` (nullable) receives the op's destination table; INTRODUCE and
// a Multiple-MDX perspective leave it empty.
Result<Cube> ApplyOp(const Cube& src, const ScenarioSpec& spec,
                     const ScenarioOp& op, const std::vector<MemberId>& scope,
                     bool scoped, const ScenarioEvalOptions& opts,
                     EvalStats* stats, DestTable* applied) {
  const int vd = spec.varying_dim;
  switch (op.kind) {
    case ScenarioOp::Kind::kIntroduce: {
      ChargeScan(src, vd, {}, opts.disk, stats, opts.pipelined_io);
      Result<Cube> out =
          IntroduceMembers(src, vd, op.introductions, opts.eval_threads,
                           opts.cancel, &stats->cells_seeded);
      if (out.ok()) stats->cells_moved += out->CountNonNullCells();
      return out;
    }
    case ScenarioOp::Kind::kSplit: {
      std::vector<MemberId> changed;
      for (const ChangeTuple& tuple : op.changes) changed.push_back(tuple.member);
      ChargeScan(src, vd, changed, opts.disk, stats, opts.pipelined_io);
      Result<Cube> out =
          Split(src, vd, op.changes, opts.eval_threads, opts.cancel, applied);
      if (out.ok()) stats->cells_moved += out->CountNonNullCells();
      return out;
    }
    case ScenarioOp::Kind::kPerspective:
      break;
  }
  const Dimension& dim = src.schema().dimension(vd);
  const int universe = dim.parameter_leaf_count();
  for (int p : op.perspectives.moments()) {
    if (p < 0 || p >= universe) {
      return Status::OutOfRange("perspective moment out of range");
    }
  }
  const std::vector<MemberId> relocate_scope =
      scoped ? scope : std::vector<MemberId>{};
  if (opts.strategy == EvalStrategy::kMultipleMdx) {
    return MultipleMdxPerspective(src, spec, op, scope, relocate_scope, opts,
                                  stats);
  }
  // One pass: transform every validity set, then move the data.
  std::vector<DynamicBitset> vs_out = TransformValiditySets(
      dim, op.perspectives, op.semantics, relocate_scope);
  ChargeRelocationScan(src, vd, vs_out, scope, spec.pebbling_read_order,
                       opts.disk, stats, opts.pipelined_io);
  return Relocate(src, vd, vs_out, relocate_scope, &stats->cells_moved,
                  opts.eval_threads, opts.cancel, applied);
}

}  // namespace

Result<PerspectiveCube> ComputeScenario(const Cube& in,
                                        const ScenarioSpec& spec,
                                        const ScenarioEvalOptions& opts) {
  return ComposeScenarios(in, {spec}, opts);
}

Result<PerspectiveCube> ComposeScenarios(const Cube& in,
                                         const std::vector<ScenarioSpec>& specs,
                                         const ScenarioEvalOptions& opts,
                                         DestTable* cell_map) {
  TraceSpan span("scenario.compose");
  const ComposeMetrics& cm = ComposeMetrics::Get();
  cm.runs->Increment();
  int64_t total_ops = 0;
  int64_t introduced = 0;
  for (const ScenarioSpec& spec : specs) {
    total_ops += static_cast<int64_t>(spec.ops.size());
    for (const ScenarioOp& op : spec.ops) {
      if (op.kind == ScenarioOp::Kind::kIntroduce) {
        introduced += static_cast<int64_t>(op.introductions.size());
      }
    }
  }
  cm.ops->Increment(total_ops);
  cm.introduced_members->Increment(introduced);
  span.SetDetail("specs=" + std::to_string(specs.size()) +
                 " ops=" + std::to_string(total_ops));

  auto fail = [&span](Status status) {
    span.SetError(status);
    return status;
  };
  EvalStats local_stats;
  EvalStats* stats = opts.stats != nullptr ? opts.stats : &local_stats;
  *stats = EvalStats{};
  EvalStatsFlush flush{stats};
  if (cell_map != nullptr) *cell_map = DestTable{};
  const double io_before =
      opts.disk != nullptr ? opts.disk->stats().virtual_seconds : 0.0;

  // Sec. 6.3 scoping is sound only for a lone canonical spec (the shape the
  // executor binds one clause to): its scoped perspective is the last op,
  // and PerspectiveCube reads the members it left out back from `in`. In a
  // longer stack the next op would read the partial output instead.
  const bool lone = specs.size() == 1;
  const std::vector<MemberId> scope =
      lone && specs[0].canonical() ? specs[0].scope_members
                                   : std::vector<MemberId>{};
  const bool scoped = !scope.empty() && specs[0].mode == EvalMode::kNonVisual;
  // The cell map composes a lone spec's op tables.
  const bool mapping = cell_map != nullptr && lone;
  DestTable map;

  // The last op's output, moved into the next op; none before the first.
  std::optional<Cube> current;
  std::vector<MemberId> scoped_members;
  EvalMode mode = EvalMode::kNonVisual;  // Combined: visual wins.
  for (const ScenarioSpec& spec : specs) {
    if (spec.mode == EvalMode::kVisual) mode = EvalMode::kVisual;
    TraceSpan spec_span("whatif.compute_perspective_cube");
    auto spec_fail = [&](Status status) {
      spec_span.SetError(status);
      return fail(status);
    };
    // Pass-boundary polls, here and after every op: a stop request never
    // leaves a half-transformed cube behind.
    if (Status s = opts.cancel.Poll("what-if compute"); !s.ok()) {
      return spec_fail(s);
    }
    const Cube& spec_in = current.has_value() ? *current : in;
    if (spec.varying_dim < 0 || spec.varying_dim >= spec_in.num_dims()) {
      return spec_fail(
          Status::InvalidArgument("what-if spec names no varying dimension"));
    }
    if (!spec_in.schema().is_varying(spec.varying_dim)) {
      return spec_fail(Status::FailedPrecondition(
          "dimension '" +
          spec_in.schema().dimension(spec.varying_dim).name() +
          "' is not varying"));
    }
    for (size_t i = 0; i < spec.ops.size(); ++i) {
      const ScenarioOp& op = spec.ops[i];
      DestTable table;
      Result<Cube> next =
          ApplyOp(current.has_value() ? *current : in, spec, op, scope, scoped,
                  opts, stats, mapping ? &table : nullptr);
      if (!next.ok()) return spec_fail(next.status());
      if (Status s = opts.cancel.Poll("what-if compute"); !s.ok()) {
        return spec_fail(s);
      }
      current = *std::move(next);
      if (mapping) map = i == 0 ? std::move(table) : map.Then(table);
      if (scoped && op.kind == ScenarioOp::Kind::kPerspective) {
        scoped_members = scope;
      }
    }
  }
  if (opts.disk != nullptr) {
    stats->virtual_io_seconds = opts.disk->stats().virtual_seconds - io_before;
  }
  if (mapping) *cell_map = std::move(map);
  // A lone spec keeps its varying dimension, so refs pinning introduced or
  // split instances route to the output cube.
  return PerspectiveCube(&in, std::move(current), mode,
                         lone ? specs[0].varying_dim : -1,
                         std::move(scoped_members));
}

namespace {

struct CompareMetrics {
  Counter* runs;
  Counter* cells;
  Counter* shared_views;
  static const CompareMetrics& Get() {
    static CompareMetrics m{
        MetricsRegistry::Global().counter("scenario.compare.runs"),
        MetricsRegistry::Global().counter("scenario.compare.cells"),
        MetricsRegistry::Global().counter("scenario.compare.shared_views"),
    };
    return m;
  }
};

}  // namespace

Result<ScenarioComparison> CompareScenarios(
    const Cube& in, const std::vector<ScenarioSpec>& a,
    const std::vector<ScenarioSpec>& b, const std::vector<CellRef>& refs,
    const RuleSet* rules, const ScenarioCompareOptions& opts) {
  TraceSpan span("scenario.compare");
  const CompareMetrics& cm = CompareMetrics::Get();
  cm.runs->Increment();
  cm.cells->Increment(static_cast<int64_t>(refs.size()));
  span.SetDetail("cells=" + std::to_string(refs.size()));

  auto fail = [&span](Status status) {
    span.SetError(status);
    return status;
  };
  const CancellationToken& cancel = opts.eval.cancel;

  EvalStats stats_a, stats_b;
  ScenarioEvalOptions eval = opts.eval;
  eval.stats = &stats_a;
  Result<PerspectiveCube> pa = ComposeScenarios(in, a, eval);
  if (!pa.ok()) return fail(pa.status());
  if (Status s = cancel.Poll("scenario.compare"); !s.ok()) return fail(s);
  eval.stats = &stats_b;
  Result<PerspectiveCube> pb = ComposeScenarios(in, b, eval);
  if (!pb.ok()) return fail(pb.status());
  if (Status s = cancel.Poll("scenario.compare"); !s.ok()) return fail(s);
  if (opts.eval.stats != nullptr) {
    *opts.eval.stats = stats_a;
    AccumulateStats(opts.eval.stats, stats_b);
  }

  // One batch per cube the sides' derived refs read (PerspectiveCube::Route):
  // `in` for a non-visual side or one with no op, else the side's own
  // output. Sides reading `in` share its batch, prepared once over the refs
  // either side sends there.
  const PerspectiveCube* sides[2] = {&*pa, &*pb};
  auto cube_of = [&](int side, const CellRef& ref) {  // 0: in; 1 + side.
    const PerspectiveCube& pc = *sides[side];
    return pc.has_output() && pc.Route(ref, nullptr) == CellRouter::kOutput
               ? 1 + side
               : 0;
  };
  std::optional<BatchCellEvaluator> batches[3];
  if (opts.batched_eval) {
    std::vector<CellRef> served[3];
    bool reads_in[2] = {false, false};
    for (const CellRef& ref : refs) {
      const int ca = cube_of(0, ref), cb = cube_of(1, ref);
      reads_in[0] |= ca == 0;
      reads_in[1] |= cb == 0;
      served[ca].push_back(ref);
      if (cb != ca) served[cb].push_back(ref);
    }
    BatchEvalOptions batch_options = opts.batch;
    batch_options.cancel = cancel;
    for (int c = 0; c < 3; ++c) {
      if (served[c].empty()) continue;
      batches[c].emplace(c == 0 ? in : sides[c - 1]->output(), nullptr,
                         batch_options);
      batches[c]->PrepareRefs(served[c]);
      if (Status s = cancel.Poll("scenario.compare"); !s.ok()) return fail(s);
    }
    if (reads_in[0] && reads_in[1]) {
      cm.shared_views->Increment(batches[0]->num_scratch_views());
    }
  }
  auto evaluator_for = [&](int side) {
    auto batch = [&](int c) { return batches[c] ? &*batches[c] : nullptr; };
    return CellEvaluator(*sides[side], rules,
                         batch(sides[side]->has_output() ? 1 + side : 0),
                         batch(0));
  };
  const CellEvaluator eval_a = evaluator_for(0);
  const CellEvaluator eval_b = evaluator_for(1);

  ScenarioComparison cmp;
  cmp.cells_compared = static_cast<int64_t>(refs.size());
  cmp.values_a.reserve(refs.size());
  cmp.values_b.reserve(refs.size());
  double l2_sq = 0.0;
  for (const CellRef& ref : refs) {
    if (Status s = cancel.Poll("scenario.compare"); !s.ok()) return fail(s);
    const CellValue va = eval_a.Evaluate(ref);
    const CellValue vb = eval_b.Evaluate(ref);
    cmp.values_a.push_back(va);
    cmp.values_b.push_back(vb);
    const bool act_a = va.has_value();
    const bool act_b = vb.has_value();
    if (act_a) ++cmp.active_a;
    if (act_b) ++cmp.active_b;
    if (act_a && act_b) ++cmp.overlap;
    if (act_b && !act_a) cmp.a_contains_b = false;
    if (act_a && !act_b) cmp.b_contains_a = false;
    const double da = va.value_or(0.0);
    const double db = vb.value_or(0.0);
    const double diff = std::fabs(da - db);
    cmp.l1 += diff;
    l2_sq += diff * diff;
    cmp.linf = std::max(cmp.linf, diff);
  }
  cmp.l2 = std::sqrt(l2_sq);
  const int64_t active_union = cmp.active_a + cmp.active_b - cmp.overlap;
  cmp.jaccard = active_union > 0
                    ? static_cast<double>(cmp.overlap) / active_union
                    : 1.0;
  return cmp;
}

}  // namespace olap
