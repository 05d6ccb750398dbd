#include "whatif/perspective_cube.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rules/evaluator.h"
#include "workload/paper_example.h"
#include "workload/product.h"
#include "workload/workforce.h"

namespace olap {
namespace {

// The one evaluator over a perspective cube's routing, with no batch.
CellValue Eval(const PerspectiveCube& pc, const CellRef& ref) {
  return CellEvaluator(pc, nullptr).Evaluate(ref);
}

class PerspectiveCubeTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = BuildPaperExample(); }

  WhatIfSpec Spec(std::vector<int> moments, Semantics sem,
                  EvalMode mode = EvalMode::kNonVisual) {
    WhatIfSpec spec;
    spec.varying_dim = ex_.org_dim;
    spec.perspectives = Perspectives(std::move(moments));
    spec.semantics = sem;
    spec.mode = mode;
    return spec;
  }

  CellRef Ref(const AxisRef& org, const std::string& loc,
              const std::string& time, const std::string& measure) {
    const Schema& s = ex_.cube.schema();
    return CellRef{
        org,
        AxisRef::OfMember(*s.dimension(ex_.location_dim).FindMember(loc)),
        AxisRef::OfMember(*s.dimension(ex_.time_dim).FindMember(time)),
        AxisRef::OfMember(*s.dimension(ex_.measures_dim).FindMember(measure))};
  }

  PaperExample ex_;
};

TEST_F(PerspectiveCubeTest, RejectsBadSpecs) {
  WhatIfSpec spec;
  spec.varying_dim = -1;
  EXPECT_EQ(ComputePerspectiveCube(ex_.cube, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.varying_dim = ex_.location_dim;  // Not varying.
  EXPECT_EQ(ComputePerspectiveCube(ex_.cube, spec).status().code(),
            StatusCode::kFailedPrecondition);
  spec = Spec({99}, Semantics::kStatic);
  EXPECT_EQ(ComputePerspectiveCube(ex_.cube, spec).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(PerspectiveCubeTest, StaticDropsNonSurvivingInstances) {
  Result<PerspectiveCube> pc =
      ComputePerspectiveCube(ex_.cube, Spec({0}, Semantics::kStatic));
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  // FTE/Joe survives with its Jan value.
  EXPECT_EQ(Eval(*pc, Ref(AxisRef::OfInstance(ex_.joe, ex_.fte_joe), "NY",
                             "Jan", "Salary")),
            CellValue(10.0));
  // PTE/Joe is dropped: all its cells ⊥.
  EXPECT_TRUE(Eval(*pc, Ref(AxisRef::OfInstance(ex_.joe, ex_.pte_joe), "NY",
                               "Feb", "Salary"))
                  .is_null());
  const Dimension& org_out = pc->output().schema().dimension(ex_.org_dim);
  EXPECT_TRUE(org_out.instance(ex_.pte_joe).validity.None());
}

TEST_F(PerspectiveCubeTest, NonVisualKeepsInputAggregates) {
  // Forward {Feb}: Joe's Mar salary (30) moves to PTE/Joe. Non-visual mode
  // must still report the INPUT cube's PTE Q1 total.
  Result<PerspectiveCube> pc = ComputePerspectiveCube(
      ex_.cube, Spec({1}, Semantics::kForward, EvalMode::kNonVisual));
  ASSERT_TRUE(pc.ok());
  CellRef pte_q1 = Ref(AxisRef::OfMember(ex_.pte), "NY", "Qtr1", "Salary");
  // Input: Tom 30 + PTE/Joe Feb 10 = 40.
  EXPECT_EQ(Eval(*pc, pte_q1), CellValue(40.0));
  // Leaf cells still come from the transformed cube.
  EXPECT_EQ(Eval(*pc, Ref(AxisRef::OfInstance(ex_.joe, ex_.pte_joe), "NY",
                             "Mar", "Salary")),
            CellValue(30.0));
}

TEST_F(PerspectiveCubeTest, VisualRecomputesAggregates) {
  Result<PerspectiveCube> pc = ComputePerspectiveCube(
      ex_.cube, Spec({1}, Semantics::kForward, EvalMode::kVisual));
  ASSERT_TRUE(pc.ok());
  CellRef pte_q1 = Ref(AxisRef::OfMember(ex_.pte), "NY", "Qtr1", "Salary");
  // Visual: Tom 30 + PTE/Joe (Feb 10 + Mar 30) = 70.
  EXPECT_EQ(Eval(*pc, pte_q1), CellValue(70.0));
}

// The headline equivalence behind Fig. 11: the Multiple-MDX simulation
// computes exactly the same perspective cube as the direct strategy, for
// every semantics — it is just slower (more passes).
class StrategyEquivalence
    : public PerspectiveCubeTest,
      public ::testing::WithParamInterface<std::tuple<Semantics, int>> {};

TEST_P(StrategyEquivalence, MultipleMdxMatchesDirect) {
  auto [sem, num_perspectives] = GetParam();
  std::vector<int> moments;
  for (int i = 0; i < num_perspectives; ++i) {
    moments.push_back((i * 2 + 1) % 6);
  }
  WhatIfSpec spec = Spec(moments, sem, EvalMode::kNonVisual);

  EvalStats direct_stats, multi_stats;
  ScenarioEvalOptions direct_opts, multi_opts;
  direct_opts.stats = &direct_stats;
  multi_opts.strategy = EvalStrategy::kMultipleMdx;
  multi_opts.stats = &multi_stats;
  Result<PerspectiveCube> direct =
      ComputePerspectiveCube(ex_.cube, spec, direct_opts);
  Result<PerspectiveCube> multi =
      ComputePerspectiveCube(ex_.cube, spec, multi_opts);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();

  // Cell-for-cell identical output cubes.
  const Dimension& org = ex_.cube.schema().dimension(ex_.org_dim);
  for (int pos = 0; pos < org.num_positions(); ++pos) {
    for (int t = 0; t < 6; ++t) {
      std::vector<int> coords = {pos, 0, t, 0};
      EXPECT_EQ(direct->output().GetCell(coords), multi->output().GetCell(coords))
          << "pos=" << pos << " t=" << t << " sem=" << SemanticsName(sem);
    }
  }
  // Identical metadata.
  const Dimension& d_dir = direct->output().schema().dimension(ex_.org_dim);
  const Dimension& d_mul = multi->output().schema().dimension(ex_.org_dim);
  for (InstanceId i = 0; i < d_dir.num_instances(); ++i) {
    EXPECT_EQ(d_dir.instance(i).validity, d_mul.instance(i).validity) << i;
  }
  // The simulation costs k passes, the direct strategy one.
  EXPECT_EQ(direct_stats.passes, 1);
  EXPECT_EQ(multi_stats.passes, num_perspectives);
  EXPECT_GE(multi_stats.chunk_reads, direct_stats.chunk_reads);
}

INSTANTIATE_TEST_SUITE_P(
    AllSemantics, StrategyEquivalence,
    ::testing::Combine(::testing::Values(Semantics::kStatic, Semantics::kForward,
                                         Semantics::kExtendedForward,
                                         Semantics::kBackward,
                                         Semantics::kExtendedBackward),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<Semantics, int>>& info) {
      std::string name = SemanticsName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

// The same equivalence on a workforce cube whose members revisit
// departments (the generator's default), where the paper example has no
// revisits: 40 seeded perspective sets of 1-5 months per semantics and
// mode, scoped to the changing employees as the executor scopes a query
// over them. Under DYNAMIC FORWARD the moments before Pmin keep the
// original assignment of every instance that survives *any* perspective
// (and after Pmax under DYNAMIC BACKWARD), so the single-perspective runs
// must merge there by union, not hand those moments to one run.
class RevisitStrategyEquivalence
    : public ::testing::TestWithParam<std::tuple<Semantics, EvalMode>> {};

// Cells holding a value in one cube and ⊥ or a different value in the other.
int64_t CountDifferingCells(const Cube& a, const Cube& b) {
  int64_t differing = 0;
  a.ForEachChunkCell([&](const std::vector<int>& coords, CellValue v) {
    if (!(b.GetCell(coords) == v)) ++differing;
  });
  b.ForEachChunkCell([&](const std::vector<int>& coords, CellValue) {
    if (a.GetCell(coords).is_null()) ++differing;
  });
  return differing;
}

TEST_P(RevisitStrategyEquivalence, MultipleMdxMatchesDirect) {
  auto [sem, mode] = GetParam();
  WorkforceConfig config;
  config.num_departments = 10;
  config.num_employees = 120;
  config.num_changing = 40;
  config.num_measures = 2;
  config.num_scenarios = 1;
  config.seed = 7;
  WorkforceCube wf = BuildWorkforceCube(config);
  // The comparison only bites when some member revisits a department: an
  // instance whose validity set is not one interval.
  bool has_revisit = false;
  for (const MemberInstance& inst :
       wf.cube.schema().dimension(wf.dept_dim).instances()) {
    std::vector<int> v = inst.validity.ToVector();
    if (!v.empty() && v.back() - v.front() + 1 != static_cast<int>(v.size())) {
      has_revisit = true;
    }
  }
  ASSERT_TRUE(has_revisit);
  Rng rng(static_cast<uint64_t>(sem) * 2 + static_cast<uint64_t>(mode) + 1);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<int> moments;
    const int k = static_cast<int>(rng.NextInRange(1, 5));
    for (int i = 0; i < k; ++i) {
      moments.push_back(static_cast<int>(rng.NextBelow(config.num_months)));
    }
    WhatIfSpec spec;
    spec.varying_dim = wf.dept_dim;
    spec.perspectives = Perspectives(moments);
    spec.semantics = sem;
    spec.mode = mode;
    spec.scope_members = wf.changing_employees;
    const std::string what = std::string(SemanticsName(sem)) + " " +
                             EvalModeName(mode) + " " +
                             spec.perspectives.ToString();

    ScenarioEvalOptions multi_opts;
    multi_opts.strategy = EvalStrategy::kMultipleMdx;
    Result<PerspectiveCube> direct = ComputePerspectiveCube(wf.cube, spec);
    Result<PerspectiveCube> multi =
        ComputePerspectiveCube(wf.cube, spec, multi_opts);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE(multi.ok()) << multi.status().ToString();
    EXPECT_EQ(CountDifferingCells(direct->output(), multi->output()), 0)
        << what;
    const Dimension& d_dir = direct->output().schema().dimension(wf.dept_dim);
    const Dimension& d_mul = multi->output().schema().dimension(wf.dept_dim);
    ASSERT_EQ(d_dir.num_instances(), d_mul.num_instances());
    int differing_validity = 0;
    for (InstanceId i = 0; i < d_dir.num_instances(); ++i) {
      if (!(d_dir.instance(i).validity == d_mul.instance(i).validity)) {
        ++differing_validity;
      }
    }
    EXPECT_EQ(differing_validity, 0) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemanticsAndModes, RevisitStrategyEquivalence,
    ::testing::Combine(::testing::Values(Semantics::kStatic, Semantics::kForward,
                                         Semantics::kExtendedForward,
                                         Semantics::kBackward,
                                         Semantics::kExtendedBackward),
                       ::testing::Values(EvalMode::kNonVisual,
                                         EvalMode::kVisual)),
    [](const ::testing::TestParamInfo<std::tuple<Semantics, EvalMode>>& info) {
      std::string name = SemanticsName(std::get<0>(info.param));
      name += std::get<1>(info.param) == EvalMode::kVisual ? "_VISUAL"
                                                           : "_NONVISUAL";
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

TEST_F(PerspectiveCubeTest, PositiveChangesOnly) {
  WhatIfSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.changes = {{ex_.lisa, ex_.fte, ex_.pte, 3}};
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  const Dimension& org = pc->output().schema().dimension(ex_.org_dim);
  InstanceId pte_lisa = org.FindInstance(ex_.lisa, ex_.pte);
  ASSERT_NE(pte_lisa, kInvalidInstance);
  EXPECT_EQ(Eval(*pc, Ref(AxisRef::OfInstance(ex_.lisa, pte_lisa), "NY",
                             "Apr", "Salary")),
            CellValue(10.0));
  // Non-visual (the Split default): aggregates come from the input.
  EXPECT_EQ(Eval(*pc, Ref(AxisRef::OfMember(ex_.pte), "NY", "Qtr2", "Salary")),
            CellValue(30.0));  // Input: only Tom.
  // Visual would see Lisa's Q2 salary under PTE.
  spec.mode = EvalMode::kVisual;
  Result<PerspectiveCube> visual = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(visual.ok());
  EXPECT_EQ(
      Eval(*visual, Ref(AxisRef::OfMember(ex_.pte), "NY", "Qtr2", "Salary")),
      CellValue(60.0));  // Tom 30 + PTE/Lisa 30.
}

TEST_F(PerspectiveCubeTest, PositiveAndNegativeCombined) {
  // Split Lisa to PTE in Apr, then apply a static {Apr} perspective: only
  // structures valid in Apr remain.
  WhatIfSpec spec = Spec({3}, Semantics::kStatic);
  spec.changes = {{ex_.lisa, ex_.fte, ex_.pte, 3}};
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  const Dimension& org = pc->output().schema().dimension(ex_.org_dim);
  InstanceId fte_lisa = org.FindInstance(ex_.lisa, ex_.fte);
  InstanceId pte_lisa = org.FindInstance(ex_.lisa, ex_.pte);
  EXPECT_TRUE(org.instance(fte_lisa).validity.None());  // Not valid in Apr.
  EXPECT_EQ(org.instance(pte_lisa).validity.ToVector(),
            (std::vector<int>{3, 4, 5}));
}

TEST_F(PerspectiveCubeTest, ScopedComputationFallsBackForOutOfScope) {
  WhatIfSpec spec = Spec({1}, Semantics::kForward, EvalMode::kNonVisual);
  spec.scope_members = {ex_.joe};
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok());
  // Joe is transformed.
  EXPECT_EQ(Eval(*pc, Ref(AxisRef::OfInstance(ex_.joe, ex_.pte_joe), "NY",
                             "Mar", "Salary")),
            CellValue(30.0));
  // Lisa is out of scope: her leaf reads fall back to the input cube.
  EXPECT_EQ(Eval(*pc, Ref(AxisRef::OfMember(ex_.lisa), "NY", "Jan", "Salary")),
            CellValue(10.0));
  // The scoped output itself holds no Lisa data (that is the point).
  InstanceId lisa =
      ex_.cube.schema().dimension(ex_.org_dim).InstancesOf(ex_.lisa)[0];
  EXPECT_TRUE(pc->output().GetCell({lisa, 0, 0, 0}).is_null());
}

TEST_F(PerspectiveCubeTest, DiskChargingAndStats) {
  SimulatedDisk disk(DiskModel{}, /*cache=*/0);
  EvalStats stats;
  ScenarioEvalOptions opts;
  opts.disk = &disk;
  opts.stats = &stats;
  Result<PerspectiveCube> pc =
      ComputePerspectiveCube(ex_.cube, Spec({1, 3}, Semantics::kForward), opts);
  ASSERT_TRUE(pc.ok());
  EXPECT_GT(stats.chunk_reads, 0);
  EXPECT_GT(stats.cells_moved, 0);
  EXPECT_GT(stats.virtual_io_seconds, 0.0);
  EXPECT_EQ(disk.stats().physical_reads, stats.chunk_reads);
}

TEST_F(PerspectiveCubeTest, PebblingReadOrderReducesPeakMergeChunks) {
  // Same computation, two read orders: identical output cubes; the
  // pebbling order's peak co-resident chunk count never exceeds the
  // ascending order's (Sec. 5.2).
  WhatIfSpec ascending = Spec({1, 3}, Semantics::kForward);
  WhatIfSpec pebbling = ascending;
  pebbling.pebbling_read_order = true;

  EvalStats stats_ascending, stats_pebbling;
  ScenarioEvalOptions opts_ascending, opts_pebbling;
  opts_ascending.stats = &stats_ascending;
  opts_pebbling.stats = &stats_pebbling;
  Result<PerspectiveCube> a =
      ComputePerspectiveCube(ex_.cube, ascending, opts_ascending);
  Result<PerspectiveCube> b =
      ComputePerspectiveCube(ex_.cube, pebbling, opts_pebbling);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(stats_ascending.chunk_reads, stats_pebbling.chunk_reads);
  EXPECT_GT(stats_ascending.peak_merge_chunks, 0);
  EXPECT_LE(stats_pebbling.peak_merge_chunks,
            stats_ascending.peak_merge_chunks);
  // The data transform itself is order-independent.
  ex_.cube.ForEachCell([&](const std::vector<int>& coords, CellValue) {
    EXPECT_EQ(a->output().GetCell(coords), b->output().GetCell(coords));
  });
}

TEST(RelevantChunksTest, ScopedSubsetOfAll) {
  ProductCubeConfig config;
  config.separation_chunks = 8;
  ProductCube pcube = BuildProductCube(config);
  std::vector<ChunkId> all = RelevantChunks(pcube.cube, pcube.product_dim, {});
  std::vector<ChunkId> probe_only =
      RelevantChunks(pcube.cube, pcube.product_dim, {pcube.probe});
  EXPECT_EQ(static_cast<int64_t>(all.size()), pcube.cube.NumStoredChunks());
  EXPECT_LT(probe_only.size(), all.size());
  EXPECT_FALSE(probe_only.empty());
  for (ChunkId id : probe_only) {
    EXPECT_TRUE(std::find(all.begin(), all.end(), id) != all.end());
  }
}

}  // namespace
}  // namespace olap
