// Metamorphic oracle suite for the scenario algebra (composition,
// new-member introduction, comparison):
//
//   * Compose(A, B) is bit-identical to Apply(A); Apply(B) — by the
//     algebra's contract, checked here against the cell movement of the
//     *serial cell-at-a-time reference operators* (tests/support), not the
//     chunk kernels the engine uses;
//   * ComputePerspectiveCube is ComputeScenario of the FromWhatIf stack
//     (same cube, work and disk charges), a stack with no op hands back its
//     input, and a scope on one spec of a longer stack changes no cell;
//   * one documented counterexample where op order legitimately changes
//     the result (introduction before vs after a negative scenario);
//   * comparison laws: distance symmetry, containment reflexivity and
//     antisymmetry, overlap bounded by both active sets;
//   * a new-member scenario with a zeroed delta reduces to the base cube;
//   * randomized composed stacks (introduce + split + perspective, all
//     five semantics, visual and non-visual) evaluate bit-identically to
//     the serial per-cell oracle at 1/2/4/8 threads. Failures reproduce
//     from the printed RNG seed.

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "rules/evaluator.h"
#include "support/operator_oracles.h"
#include "whatif/operators.h"
#include "whatif/perspective.h"
#include "whatif/scenario_algebra.h"
#include "workload/extended_examples.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

// The one evaluator over a perspective cube's routing, with no batch.
CellValue Eval(const PerspectiveCube& pc, const CellRef& ref) {
  return CellEvaluator(pc, nullptr).Evaluate(ref);
}

constexpr int kThreadCounts[] = {1, 2, 4, 8};

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

// Bit-level cube equality: identical varying-dimension metadata, identical
// stored-chunk sets, identical raw cell bits.
void ExpectBitIdentical(const Cube& expected, const Cube& actual, int vd,
                        const std::string& context) {
  const Dimension& de = expected.schema().dimension(vd);
  const Dimension& da = actual.schema().dimension(vd);
  ASSERT_EQ(de.num_members(), da.num_members()) << context;
  ASSERT_EQ(de.num_instances(), da.num_instances()) << context;
  for (int i = 0; i < de.num_instances(); ++i) {
    EXPECT_EQ(de.instance(i).member, da.instance(i).member) << context;
    EXPECT_TRUE(de.instance(i).validity == da.instance(i).validity)
        << context << " instance " << i;
  }
  std::map<ChunkId, const Chunk*> ea, aa;
  expected.ForEachChunk([&](ChunkId id, const Chunk& c) { ea[id] = &c; });
  actual.ForEachChunk([&](ChunkId id, const Chunk& c) { aa[id] = &c; });
  ASSERT_EQ(ea.size(), aa.size()) << context << ": stored chunk count differs";
  for (const auto& [id, chunk] : ea) {
    auto it = aa.find(id);
    ASSERT_TRUE(it != aa.end()) << context << ": chunk " << id << " missing";
    ASSERT_EQ(chunk->size(), it->second->size()) << context;
    for (int64_t off = 0; off < chunk->size(); ++off) {
      ASSERT_EQ(BitsOf(chunk->Get(off)), BitsOf(it->second->Get(off)))
          << context << ": chunk " << id << " offset " << off;
    }
  }
}

// Serial per-cell oracle for one scenario op: the reference operator
// implementations (ForEachCell + SetCell), independent of the chunk-native
// kernels' destination tables and of ComputePerspectiveCube's staging. Each
// oracle is handed the output schema of the operator it checks, so the
// operator's status and schema are taken as given and its cell movement
// is what gets compared.
Result<Cube> ApplyOpReference(const Cube& in, int vd, const ScenarioOp& op) {
  switch (op.kind) {
    case ScenarioOp::Kind::kIntroduce: {
      Result<Cube> applied = IntroduceMembers(in, vd, op.introductions);
      if (!applied.ok()) return applied.status();
      return IntroduceMembersReference(in, applied->schema(), vd,
                                       op.introductions);
    }
    case ScenarioOp::Kind::kSplit: {
      Result<Cube> applied = Split(in, vd, op.changes);
      if (!applied.ok()) return applied.status();
      return SplitReference(in, applied->schema(), vd, op.changes);
    }
    case ScenarioOp::Kind::kPerspective: {
      const Dimension& dim = in.schema().dimension(vd);
      std::vector<DynamicBitset> vs_out =
          TransformValiditySets(dim, op.perspectives, op.semantics);
      const Cube applied = Relocate(in, vd, vs_out);
      return RelocateReference(in, applied.schema(), vd, vs_out);
    }
  }
  return Status::Internal("unreachable");
}

Result<Cube> ApplyStackReference(const Cube& in, const ScenarioSpec& spec) {
  Cube current = in;
  for (const ScenarioOp& op : spec.ops) {
    Result<Cube> next = ApplyOpReference(current, spec.varying_dim, op);
    if (!next.ok()) return next.status();
    current = *std::move(next);
  }
  return current;
}

class ScenarioAlgebraTest : public ::testing::Test {
 protected:
  ScenarioAlgebraTest() : ex_(BuildPaperExample()) {}

  // Leaf + derived refs over the (NY, Salary) slice — the paper's Fig. 4
  // grid: every Organization member crossed with every month.
  std::vector<CellRef> GridRefs() const {
    const Schema& schema = ex_.cube.schema();
    CellRef base(schema.num_dimensions());
    for (int d = 0; d < schema.num_dimensions(); ++d) {
      base[d] = AxisRef::OfMember(schema.dimension(d).root());
    }
    const Dimension& time = schema.dimension(ex_.time_dim);
    const Dimension& org = schema.dimension(ex_.org_dim);
    std::vector<CellRef> refs;
    for (MemberId m = 0; m < org.num_members(); ++m) {
      for (MemberId t : time.Leaves()) {
        CellRef ref = base;
        ref[ex_.org_dim] = AxisRef::OfMember(m);
        ref[ex_.time_dim] = AxisRef::OfMember(t);
        refs.push_back(std::move(ref));
      }
    }
    return refs;
  }

  PaperExample ex_;
};

TEST_F(ScenarioAlgebraTest, ComputePerspectiveCubeRunsTheFromWhatIfStack) {
  WhatIfSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.mode = EvalMode::kVisual;
  spec.semantics = Semantics::kForward;
  spec.perspectives = Perspectives({1, 3});
  spec.changes.push_back(ChangeTuple{ex_.joe, ex_.contractor, ex_.fte, 3});
  NewMemberSpec intro;
  intro.name = "Newbie";
  intro.parent = "FTE";
  intro.from_moment = 2;
  spec.introductions.push_back(intro);

  ScenarioSpec s = ScenarioSpec::FromWhatIf(spec);
  ASSERT_EQ(s.ops.size(), 3u);
  EXPECT_TRUE(s.canonical());
  EXPECT_EQ(s.ops[0].kind, ScenarioOp::Kind::kIntroduce);
  EXPECT_EQ(s.ops[1].kind, ScenarioOp::Kind::kSplit);
  EXPECT_EQ(s.ops[2].kind, ScenarioOp::Kind::kPerspective);

  // The classic entry point and the algebra's evaluate the same stack: the
  // same cube bit for bit, the same work and the same disk charges.
  SimulatedDisk disk_a(DiskModel{}, /*cache=*/0);
  SimulatedDisk disk_b(DiskModel{}, /*cache=*/0);
  EvalStats stats_a, stats_b;
  ScenarioEvalOptions opts_a, opts_b;
  opts_a.disk = &disk_a;
  opts_a.stats = &stats_a;
  opts_b.disk = &disk_b;
  opts_b.stats = &stats_b;
  Result<PerspectiveCube> a = ComputePerspectiveCube(ex_.cube, spec, opts_a);
  Result<PerspectiveCube> b = ComputeScenario(ex_.cube, s, opts_b);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectBitIdentical(a->output(), b->output(), ex_.org_dim,
                     "ComputePerspectiveCube vs ComputeScenario");
  EXPECT_EQ(stats_a.passes, stats_b.passes);
  EXPECT_EQ(stats_a.chunk_reads, stats_b.chunk_reads);
  EXPECT_EQ(stats_a.cells_moved, stats_b.cells_moved);
  EXPECT_EQ(stats_a.cells_seeded, stats_b.cells_seeded);
  EXPECT_EQ(stats_a.virtual_io_seconds, stats_b.virtual_io_seconds);
  EXPECT_EQ(stats_a.peak_merge_chunks, stats_b.peak_merge_chunks);
  EXPECT_GT(stats_a.chunk_reads, 0);
  EXPECT_EQ(disk_a.stats().physical_reads, disk_b.stats().physical_reads);

  // Reordered stacks are not canonical: [perspective, split].
  ScenarioSpec reordered;
  reordered.varying_dim = ex_.org_dim;
  reordered.ops.push_back(
      ScenarioOp::Perspective(spec.perspectives, spec.semantics));
  reordered.ops.push_back(ScenarioOp::SplitOp(spec.changes));
  EXPECT_FALSE(reordered.canonical());
}

TEST_F(ScenarioAlgebraTest, StackWithNoOpHandsBackItsInput) {
  Result<PerspectiveCube> empty = ComposeScenarios(ex_.cube, {});
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(&empty->output(), &ex_.cube);
  EXPECT_EQ(&empty->input(), &ex_.cube);
  EXPECT_EQ(empty->mode(), EvalMode::kNonVisual);

  // A spec with no op is checked, then hands back its input too.
  ScenarioSpec no_op;
  no_op.varying_dim = ex_.org_dim;
  no_op.mode = EvalMode::kVisual;
  Result<PerspectiveCube> identity = ComputeScenario(ex_.cube, no_op);
  ASSERT_TRUE(identity.ok()) << identity.status().ToString();
  EXPECT_EQ(&identity->output(), &ex_.cube);
  EXPECT_EQ(identity->mode(), EvalMode::kVisual);
  no_op.varying_dim = ex_.location_dim;  // Not varying.
  EXPECT_EQ(ComputeScenario(ex_.cube, no_op).status().code(),
            StatusCode::kFailedPrecondition);
}

// Sec. 6.3 scoping holds only for a lone canonical spec: in a longer stack
// the next op would read the scoped op's partial output, so the scope is
// ignored there and the stack equals its unscoped self.
TEST_F(ScenarioAlgebraTest, ScopeOnOneSpecOfAStackChangesNoCell) {
  MultiVaryingExample mv = BuildMultiVaryingExample();
  ScenarioSpec org;
  org.varying_dim = mv.org_dim;
  org.ops.push_back(
      ScenarioOp::Perspective(Perspectives({0}), Semantics::kStatic));
  ScenarioSpec product;
  product.varying_dim = mv.product_dim;
  product.ops.push_back(
      ScenarioOp::Perspective(Perspectives({0}), Semantics::kForward));
  ScenarioSpec scoped_org = org;
  scoped_org.scope_members = {mv.joe};

  Result<PerspectiveCube> unscoped =
      ComposeScenarios(mv.cube, {org, product});
  Result<PerspectiveCube> scoped =
      ComposeScenarios(mv.cube, {scoped_org, product});
  ASSERT_TRUE(unscoped.ok()) << unscoped.status().ToString();
  ASSERT_TRUE(scoped.ok()) << scoped.status().ToString();
  ExpectBitIdentical(unscoped->output(), scoped->output(), mv.org_dim,
                     "scoped vs unscoped stack");
  ExpectBitIdentical(unscoped->output(), scoped->output(), mv.product_dim,
                     "scoped vs unscoped stack");
  // Lisa is out of the scope and keeps her leaf cells.
  const Cube& out = scoped->output();
  const Dimension& org_dim = out.schema().dimension(mv.org_dim);
  int64_t lisa_cells = 0;
  out.ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
    if (org_dim.PositionMember(coords[mv.org_dim]) == mv.lisa && !v.is_null()) {
      ++lisa_cells;
    }
  });
  EXPECT_GT(lisa_cells, 0);
}

TEST_F(ScenarioAlgebraTest, ComposeIsBitIdenticalToSequentialReferenceApply) {
  // A full general stack in canonical order: introduce a hire cloned from
  // Lisa, split Joe's contractor months to FTE, then take a forward
  // perspective — composed in one call vs applied op-by-op through the
  // serial reference operators.
  NewMemberSpec intro;
  intro.name = "Newbie";
  intro.parent = "FTE";
  intro.from_moment = 1;
  intro.seed = NewMemberSpec::Seed::kClone;
  intro.source = "Lisa";
  intro.factor = 0.5;

  ScenarioSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.mode = EvalMode::kNonVisual;
  spec.ops.push_back(ScenarioOp::Introduce({intro}));
  spec.ops.push_back(ScenarioOp::SplitOp(
      {ChangeTuple{ex_.joe, ex_.contractor, ex_.fte, 3}}));
  spec.ops.push_back(
      ScenarioOp::Perspective(Perspectives({0, 2}), Semantics::kForward));

  Result<Cube> oracle = ApplyStackReference(ex_.cube, spec);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  Result<PerspectiveCube> composed = ComputeScenario(ex_.cube, spec);
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();
  ExpectBitIdentical(*oracle, composed->output(), ex_.org_dim,
                     "compose vs sequential reference");

  // The same ops as a *non-canonical* stack (perspective first) still
  // compose stage-by-stage and still match the sequential reference.
  ScenarioSpec reordered;
  reordered.varying_dim = ex_.org_dim;
  reordered.ops = {spec.ops[2], spec.ops[0], spec.ops[1]};
  Result<Cube> reordered_oracle = ApplyStackReference(ex_.cube, reordered);
  ASSERT_TRUE(reordered_oracle.ok());
  Result<PerspectiveCube> reordered_composed =
      ComputeScenario(ex_.cube, reordered);
  ASSERT_TRUE(reordered_composed.ok());
  ExpectBitIdentical(*reordered_oracle, reordered_composed->output(),
                     ex_.org_dim, "non-canonical compose vs reference");
}

// The documented counterexample: composition does NOT commute. Introducing
// a member cloned from Lisa *after* a forward perspective at Jan keeps the
// clone's data (the introduction is not subject to the earlier negation),
// while introducing it *before* lets the perspective drop it — Jan precedes
// the clone's epoch, so forward semantics erases the new instance entirely.
TEST_F(ScenarioAlgebraTest, CompositionOrderChangesTheResult) {
  NewMemberSpec intro;
  intro.name = "Newbie";
  intro.parent = "FTE";
  intro.from_moment = 1;  // Valid from Feb on; Jan not in the epoch.
  intro.seed = NewMemberSpec::Seed::kClone;
  intro.source = "Lisa";
  intro.factor = 1.0;
  ScenarioOp introduce = ScenarioOp::Introduce({intro});
  ScenarioOp negate =
      ScenarioOp::Perspective(Perspectives({0}), Semantics::kForward);

  ScenarioSpec intro_first;
  intro_first.varying_dim = ex_.org_dim;
  intro_first.ops = {introduce, negate};
  ScenarioSpec negate_first;
  negate_first.varying_dim = ex_.org_dim;
  negate_first.ops = {negate, introduce};

  Result<PerspectiveCube> a = ComputeScenario(ex_.cube, intro_first);
  Result<PerspectiveCube> b = ComputeScenario(ex_.cube, negate_first);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // Introduce-then-negate: the clone's cells are erased with its instance.
  // Negate-then-introduce: the clone survives with Lisa's Feb..Jun cells.
  EXPECT_LT(a->output().CountNonNullCells(), b->output().CountNonNullCells());

  // Both orders agree with their own sequential reference (the law holds
  // per stack; it is the *stacks* that differ).
  Result<Cube> oracle_a = ApplyStackReference(ex_.cube, intro_first);
  Result<Cube> oracle_b = ApplyStackReference(ex_.cube, negate_first);
  ASSERT_TRUE(oracle_a.ok());
  ASSERT_TRUE(oracle_b.ok());
  ExpectBitIdentical(*oracle_a, a->output(), ex_.org_dim, "intro first");
  ExpectBitIdentical(*oracle_b, b->output(), ex_.org_dim, "negate first");
}

TEST_F(ScenarioAlgebraTest, ZeroedIntroductionDeltaReducesToTheBaseCube) {
  NewMemberSpec intro;
  intro.name = "Newbie";
  intro.parent = "PTE";
  intro.from_moment = 2;
  intro.seed = NewMemberSpec::Seed::kTransfer;
  intro.source = "Joe";
  intro.factor = 0.0;  // Zeroed delta: nothing moves, nothing is seeded.

  ScenarioSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.ops.push_back(ScenarioOp::Introduce({intro}));

  EvalStats stats;
  ScenarioEvalOptions opts;
  opts.stats = &stats;
  Result<PerspectiveCube> pc = ComputeScenario(ex_.cube, spec, opts);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  EXPECT_EQ(stats.cells_seeded, 0);
  EXPECT_EQ(pc->output().CountNonNullCells(), ex_.cube.CountNonNullCells());

  // Every base-grid cell is unchanged, and comparing against the identity
  // scenario shows zero distance and identical active sets.
  Result<ScenarioComparison> cmp =
      CompareScenarios(ex_.cube, {spec}, {}, GridRefs(), nullptr);
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_EQ(cmp->l1, 0.0);
  EXPECT_EQ(cmp->l2, 0.0);
  EXPECT_EQ(cmp->linf, 0.0);
  EXPECT_EQ(cmp->active_a, cmp->active_b);
  EXPECT_EQ(cmp->overlap, cmp->active_a);
  EXPECT_TRUE(cmp->a_contains_b);
  EXPECT_TRUE(cmp->b_contains_a);
  EXPECT_EQ(cmp->jaccard, 1.0);
}

TEST_F(ScenarioAlgebraTest, ComparisonIsReflexive) {
  ScenarioSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.ops.push_back(ScenarioOp::SplitOp(
      {ChangeTuple{ex_.joe, ex_.contractor, ex_.pte, 3}}));
  spec.ops.push_back(
      ScenarioOp::Perspective(Perspectives({1}), Semantics::kStatic));

  std::vector<CellRef> refs = GridRefs();
  Result<ScenarioComparison> cmp =
      CompareScenarios(ex_.cube, {spec}, {spec}, refs, nullptr);
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_EQ(cmp->cells_compared, static_cast<int64_t>(refs.size()));
  EXPECT_TRUE(cmp->a_contains_b);
  EXPECT_TRUE(cmp->b_contains_a);
  EXPECT_EQ(cmp->l1, 0.0);
  EXPECT_EQ(cmp->l2, 0.0);
  EXPECT_EQ(cmp->linf, 0.0);
  EXPECT_EQ(cmp->jaccard, 1.0);
  // Antisymmetry: both containments force identical active sets.
  EXPECT_EQ(cmp->overlap, cmp->active_a);
  EXPECT_EQ(cmp->overlap, cmp->active_b);
}

TEST_F(ScenarioAlgebraTest, ComparisonDistancesAreSymmetricAndOverlapBounded) {
  // Visual mode: the grid's derived cells evaluate on each scenario's
  // output cube (non-visual would retain them from the shared input and
  // the distances would be trivially zero).
  ScenarioSpec a;
  a.varying_dim = ex_.org_dim;
  a.mode = EvalMode::kVisual;
  a.ops.push_back(ScenarioOp::SplitOp(
      {ChangeTuple{ex_.joe, ex_.contractor, ex_.fte, 3}}));
  ScenarioSpec b;
  b.varying_dim = ex_.org_dim;
  b.mode = EvalMode::kVisual;
  b.ops.push_back(
      ScenarioOp::Perspective(Perspectives({1}), Semantics::kStatic));

  std::vector<CellRef> refs = GridRefs();
  Result<ScenarioComparison> ab =
      CompareScenarios(ex_.cube, {a}, {b}, refs, nullptr);
  Result<ScenarioComparison> ba =
      CompareScenarios(ex_.cube, {b}, {a}, refs, nullptr);
  ASSERT_TRUE(ab.ok()) << ab.status().ToString();
  ASSERT_TRUE(ba.ok()) << ba.status().ToString();

  // Distance symmetry is exact: |x−y| per cell in the same ref order.
  EXPECT_EQ(ab->l1, ba->l1);
  EXPECT_EQ(ab->l2, ba->l2);
  EXPECT_EQ(ab->linf, ba->linf);
  EXPECT_EQ(ab->jaccard, ba->jaccard);
  // Swapping sides swaps the per-side tallies and containment flags.
  EXPECT_EQ(ab->active_a, ba->active_b);
  EXPECT_EQ(ab->active_b, ba->active_a);
  EXPECT_EQ(ab->overlap, ba->overlap);
  EXPECT_EQ(ab->a_contains_b, ba->b_contains_a);
  EXPECT_EQ(ab->b_contains_a, ba->a_contains_b);
  // Overlap is bounded by both active sets.
  EXPECT_LE(ab->overlap, ab->active_a);
  EXPECT_LE(ab->overlap, ab->active_b);
  // The scenarios genuinely differ: the static perspective at Feb drops
  // cells the split keeps.
  EXPECT_GT(ab->l1, 0.0);
}

TEST_F(ScenarioAlgebraTest, ContainmentDetectsAProperSubsetScenario) {
  // A = identity (every base cell), B = static perspective at Feb (drops
  // the instances invalid at Feb), evaluated visually so the grid reads
  // B's transformed cube: A ⊇ B strictly on the grid.
  ScenarioSpec b;
  b.varying_dim = ex_.org_dim;
  b.mode = EvalMode::kVisual;
  b.ops.push_back(
      ScenarioOp::Perspective(Perspectives({1}), Semantics::kStatic));

  Result<ScenarioComparison> cmp =
      CompareScenarios(ex_.cube, {}, {b}, GridRefs(), nullptr);
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_TRUE(cmp->a_contains_b);
  EXPECT_FALSE(cmp->b_contains_a);
  EXPECT_EQ(cmp->overlap, cmp->active_b);
  EXPECT_LT(cmp->active_b, cmp->active_a);
  EXPECT_LT(cmp->jaccard, 1.0);
}

TEST_F(ScenarioAlgebraTest, ComparisonSharesCoverViewsAcrossScenarios) {
  // Every VISUAL / non-visual pairing of the two sides batches its derived
  // cells: one batched evaluator per cube the sides read, shared (and its
  // views counted as shared) only when both sides read the stored cube.
  MetricsRegistry& reg = MetricsRegistry::Global();
  for (EvalMode mode_a : {EvalMode::kNonVisual, EvalMode::kVisual}) {
    for (EvalMode mode_b : {EvalMode::kNonVisual, EvalMode::kVisual}) {
      const std::string context = std::string("A ") + EvalModeName(mode_a) +
                                  ", B " + EvalModeName(mode_b);
      ScenarioSpec a;
      a.varying_dim = ex_.org_dim;
      a.mode = mode_a;
      a.ops.push_back(ScenarioOp::SplitOp(
          {ChangeTuple{ex_.joe, ex_.contractor, ex_.fte, 3}}));
      ScenarioSpec b;
      b.varying_dim = ex_.org_dim;
      b.mode = mode_b;
      b.ops.push_back(
          ScenarioOp::Perspective(Perspectives({1}), Semantics::kForward));

      ScenarioCompareOptions with, without;
      without.batched_eval = false;
      std::vector<CellRef> refs = GridRefs();
      MetricsRegistry::Snapshot before = reg.TakeSnapshot();
      Result<ScenarioComparison> batched =
          CompareScenarios(ex_.cube, {a}, {b}, refs, nullptr, with);
      MetricsRegistry::Snapshot delta =
          MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
      Result<ScenarioComparison> per_cell =
          CompareScenarios(ex_.cube, {a}, {b}, refs, nullptr, without);
      ASSERT_TRUE(batched.ok()) << context << ": "
                                << batched.status().ToString();
      ASSERT_TRUE(per_cell.ok()) << context << ": "
                                 << per_cell.status().ToString();
      // Identical values either way (paper-example data is exactly
      // summable).
      ASSERT_EQ(batched->values_a.size(), per_cell->values_a.size());
      for (size_t i = 0; i < batched->values_a.size(); ++i) {
        EXPECT_EQ(BitsOf(batched->values_a[i]), BitsOf(per_cell->values_a[i]))
            << context << " ref " << i;
        EXPECT_EQ(BitsOf(batched->values_b[i]), BitsOf(per_cell->values_b[i]))
            << context << " ref " << i;
      }
      EXPECT_EQ(batched->l1, per_cell->l1) << context;
      EXPECT_EQ(batched->overlap, per_cell->overlap) << context;
      EXPECT_GE(delta.counter_value("agg.batch.plans"), 1) << context;
      const int64_t shared =
          delta.counter_value("scenario.compare.shared_views");
      if (mode_a == EvalMode::kNonVisual && mode_b == EvalMode::kNonVisual) {
        EXPECT_GT(shared, 0) << context;
      } else {
        EXPECT_EQ(shared, 0) << context;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized composed-scenario equivalence
// ---------------------------------------------------------------------------

struct FuzzWorld {
  Cube cube;
  int org_dim = 0;
  int time_dim = 1;
  std::vector<MemberId> members;
  std::vector<MemberId> groups;
  std::vector<std::string> member_names;
  std::vector<std::string> group_names;
  int months = 0;
};

FuzzWorld BuildFuzzWorld(uint64_t seed) {
  Rng rng(seed);
  const int months = 4 + static_cast<int>(rng.NextBelow(9));       // 4..12
  const int num_members = 3 + static_cast<int>(rng.NextBelow(8));  // 3..10
  const int num_changes = static_cast<int>(rng.NextBelow(7));      // 0..6
  const int num_measures = 1 + static_cast<int>(rng.NextBelow(3));

  Schema schema;
  Dimension org("Org");
  FuzzWorld world;
  const int num_groups = std::min(4, num_members);
  for (int g = 0; g < num_groups; ++g) {
    world.group_names.push_back("G" + std::to_string(g));
    world.groups.push_back(*org.AddChildOfRoot(world.group_names.back()));
  }
  for (int m = 0; m < num_members; ++m) {
    world.member_names.push_back("M" + std::to_string(m));
    world.members.push_back(*org.AddMember(world.member_names.back(),
                                           world.groups[m % num_groups]));
  }
  Dimension time("Time", DimensionKind::kParameter);
  for (int t = 0; t < months; ++t) {
    EXPECT_TRUE(time.AddChildOfRoot("T" + std::to_string(t)).ok());
  }
  Dimension measures("Measures", DimensionKind::kMeasure);
  for (int v = 0; v < num_measures; ++v) {
    EXPECT_TRUE(measures.AddChildOfRoot("V" + std::to_string(v)).ok());
  }

  world.months = months;
  world.org_dim = schema.AddDimension(std::move(org));
  world.time_dim = schema.AddDimension(std::move(time));
  schema.AddDimension(std::move(measures));
  EXPECT_TRUE(schema.BindVarying(world.org_dim, world.time_dim, true).ok());

  Dimension* mut = schema.mutable_dimension(world.org_dim);
  for (int c = 0; c < num_changes; ++c) {
    MemberId member = world.members[rng.NextBelow(world.members.size())];
    MemberId target = world.groups[rng.NextBelow(world.groups.size())];
    int moment = static_cast<int>(rng.NextBelow(months));
    EXPECT_TRUE(mut->ApplyChange(member, target, moment).ok());
  }

  CubeOptions options;
  options.chunk_sizes = {1 + static_cast<int>(rng.NextBelow(4)),
                         1 + static_cast<int>(rng.NextBelow(4)),
                         1 + static_cast<int>(rng.NextBelow(3))};
  Cube cube(std::move(schema), options);
  const Dimension& d = cube.schema().dimension(world.org_dim);
  for (const MemberInstance& inst : d.instances()) {
    for (int t = inst.validity.FindFirst(); t >= 0;
         t = inst.validity.FindNext(t + 1)) {
      for (int v = 0; v < num_measures; ++v) {
        if (rng.NextBool(0.7)) {
          cube.SetCell({inst.id, t, v},
                       CellValue(0.1 + rng.NextDouble() * 100.0));
        }
      }
    }
  }
  world.cube = std::move(cube);
  return world;
}

Semantics RandomSemantics(Rng* rng) {
  switch (rng->NextBelow(5)) {
    case 0: return Semantics::kStatic;
    case 1: return Semantics::kForward;
    case 2: return Semantics::kBackward;
    case 3: return Semantics::kExtendedForward;
    default: return Semantics::kExtendedBackward;
  }
}

// Draws one op that is valid against `current` (the cube the previous ops
// produced), so the whole stack is applicable and the engine must succeed.
ScenarioOp RandomOp(Rng* rng, const FuzzWorld& world, const Cube& current,
                    int* intro_counter) {
  const Dimension& dim = current.schema().dimension(world.org_dim);
  const int kind = static_cast<int>(rng->NextBelow(3));
  if (kind == 0) {
    NewMemberSpec spec;
    spec.name = "New" + std::to_string((*intro_counter)++);
    spec.parent = world.group_names[rng->NextBelow(world.group_names.size())];
    spec.from_moment = static_cast<int>(rng->NextBelow(world.months));
    const int seed_kind = static_cast<int>(rng->NextBelow(3));
    if (seed_kind > 0) {
      spec.seed = seed_kind == 1 ? NewMemberSpec::Seed::kClone
                                 : NewMemberSpec::Seed::kTransfer;
      spec.source =
          world.member_names[rng->NextBelow(world.member_names.size())];
      spec.factor = rng->NextDouble();
    }
    return ScenarioOp::Introduce({spec});
  }
  if (kind == 1) {
    // One valid change: an instance that exists at the drawn moment.
    for (int attempt = 0; attempt < 8; ++attempt) {
      MemberId m = world.members[rng->NextBelow(world.members.size())];
      int moment = static_cast<int>(rng->NextBelow(world.months));
      InstanceId inst = dim.InstanceValidAt(m, moment);
      if (inst == kInvalidInstance) continue;
      MemberId target = world.groups[rng->NextBelow(world.groups.size())];
      return ScenarioOp::SplitOp(
          {ChangeTuple{m, dim.instance(inst).parent, target, moment}});
    }
    // No applicable change found — fall through to a perspective op.
  }
  std::vector<int> moments;
  const int k = 1 + static_cast<int>(rng->NextBelow(3));
  for (int i = 0; i < k; ++i) {
    moments.push_back(static_cast<int>(rng->NextBelow(world.months)));
  }
  return ScenarioOp::Perspective(Perspectives(std::move(moments)),
                                 RandomSemantics(rng));
}

TEST(ScenarioAlgebraFuzzTest, ComposedStacksMatchSerialOracleAtEveryThreadCount) {
  int compared = 0;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FuzzWorld world = BuildFuzzWorld(seed + 4000);
    Rng rng(seed * 2654435761u + 17);

    // Draw the stack against the evolving oracle cube so every op applies.
    ScenarioSpec spec;
    spec.varying_dim = world.org_dim;
    spec.mode = rng.NextBool(0.5) ? EvalMode::kVisual : EvalMode::kNonVisual;
    const int num_ops = 1 + static_cast<int>(rng.NextBelow(4));
    Cube oracle = world.cube;
    int intro_counter = 0;
    for (int i = 0; i < num_ops; ++i) {
      ScenarioOp op = RandomOp(&rng, world, oracle, &intro_counter);
      Result<Cube> next = ApplyOpReference(oracle, world.org_dim, op);
      ASSERT_TRUE(next.ok())
          << "op " << i << ": " << next.status().ToString();
      oracle = *std::move(next);
      spec.ops.push_back(std::move(op));
    }

    for (int threads : kThreadCounts) {
      ScenarioEvalOptions opts;
      opts.eval_threads = threads;
      Result<PerspectiveCube> pc = ComputeScenario(world.cube, spec, opts);
      ASSERT_TRUE(pc.ok()) << pc.status().ToString();
      ExpectBitIdentical(oracle, pc->output(), world.org_dim,
                         "seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads));

      // Evaluation sweep: member-level refs (including introduced members,
      // which live beyond the input schema) against an oracle perspective
      // cube built from the reference output. Covers both modes.
      PerspectiveCube oracle_pc(&world.cube, Cube(oracle), spec.mode,
                                world.org_dim);
      const Schema& out_schema = pc->output().schema();
      const Dimension& org = out_schema.dimension(world.org_dim);
      const Dimension& time = out_schema.dimension(world.time_dim);
      CellRef base(out_schema.num_dimensions());
      for (int d = 0; d < out_schema.num_dimensions(); ++d) {
        base[d] = AxisRef::OfMember(out_schema.dimension(d).root());
      }
      for (MemberId m = 0; m < org.num_members(); ++m) {
        for (MemberId t : time.Leaves()) {
          CellRef ref = base;
          ref[world.org_dim] = AxisRef::OfMember(m);
          ref[world.time_dim] = AxisRef::OfMember(t);
          EXPECT_EQ(BitsOf(Eval(oracle_pc, ref)), BitsOf(Eval(*pc, ref)))
              << "member " << m << " time " << t << " threads " << threads;
        }
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

}  // namespace
}  // namespace olap
