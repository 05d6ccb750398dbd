// Oracle tests for the paper's worked examples: the Fig. 2 input slice, the
// Sec. 3.3 single-perspective walk-through, the Fig. 4 forward-visual
// output for P = {Feb, Apr}, and the Fig. 5-style positive-split output.
//
// Where the scanned figures are ambiguous, the expectations below are
// derived strictly from Definitions 3.3/3.4/4.3–4.5; the two cell values
// the running text states explicitly — (PTE/Joe, Mar) inherits 30, and
// (PTE/Joe, Jan) remains ⊥ — are asserted verbatim.

#include <gtest/gtest.h>

#include "rules/evaluator.h"
#include "whatif/perspective_cube.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

// The one evaluator over a perspective cube's routing, with no batch.
CellValue Eval(const PerspectiveCube& pc, const CellRef& ref) {
  return CellEvaluator(pc, nullptr).Evaluate(ref);
}


class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = BuildPaperExample(); }

  // Value of (org instance, month, NY, Salary) in `cube`.
  CellValue Leaf(const Cube& cube, InstanceId inst, int month) {
    return cube.GetCell({inst, 0, month, 0});
  }

  InstanceId Inst(const Cube& cube, const std::string& parent,
                  const std::string& leaf) {
    const Dimension& org = cube.schema().dimension(ex_.org_dim);
    return org.FindInstance(*org.FindMember(leaf), *org.FindMember(parent));
  }

  PaperExample ex_;
};

// The Fig. 2 input: validity sets and the NY/Salary slice.
TEST_F(PaperExamplesTest, Fig2InputCube) {
  const Dimension& org = ex_.cube.schema().dimension(ex_.org_dim);
  EXPECT_EQ(org.instance(ex_.fte_joe).validity.ToVector(), (std::vector<int>{0}));
  EXPECT_EQ(org.instance(ex_.pte_joe).validity.ToVector(), (std::vector<int>{1}));
  EXPECT_EQ(org.instance(ex_.contractor_joe).validity.ToVector(),
            (std::vector<int>{2, 3, 5}));
  // VS(Lisa) = {Jan..Jun} (Sec. 2).
  InstanceId lisa = org.InstancesOf(ex_.lisa)[0];
  EXPECT_EQ(org.instance(lisa).validity.Count(), 6);

  // Meaningless combinations are ⊥: (FTE/Joe, Feb) etc.
  EXPECT_TRUE(Leaf(ex_.cube, ex_.fte_joe, 1).is_null());
  EXPECT_EQ(Leaf(ex_.cube, ex_.fte_joe, 0), CellValue(10.0));
  EXPECT_EQ(Leaf(ex_.cube, ex_.contractor_joe, 2), CellValue(30.0));
  // All Org member instances in Fig. 2 are active; Sue and Dave are not.
  EXPECT_TRUE(org.instance(org.InstancesOf(ex_.sue)[0]).validity.Any());
  int64_t sue_cells = 0;
  ex_.cube.ForEachCell([&](const std::vector<int>& coords, CellValue) {
    if (org.instance(coords[0]).member == ex_.sue) ++sue_cells;
  });
  EXPECT_EQ(sue_cells, 0);
}

// Sec. 3.3 walk-through, static {Jan}: "instance FTE/Joe will have
// VSout = {Jan} and the same values as shown in Fig. 2. Rows for PTE/Joe
// and Contractor/Joe are removed."
TEST_F(PaperExamplesTest, StaticJanSemantics) {
  WhatIfSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.perspectives = Perspectives({0});
  spec.semantics = Semantics::kStatic;
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(Leaf(pc->output(), ex_.fte_joe, 0), CellValue(10.0));
  for (int t = 0; t < 6; ++t) {
    EXPECT_TRUE(Leaf(pc->output(), ex_.pte_joe, t).is_null()) << t;
    EXPECT_TRUE(Leaf(pc->output(), ex_.contractor_joe, t).is_null()) << t;
  }
}

// Sec. 3.3 walk-through, forward {Jan}: "FTE/Joe will have VSout =
// {Jan, ..., Apr, Jun, ...}, and the values of PTE/Joe for Feb, and those
// of Contractor/Joe for Mar, Apr, Jun" — Joe's whole history rearranged
// under the org structure that existed in Jan.
TEST_F(PaperExamplesTest, ForwardJanSemantics) {
  WhatIfSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.perspectives = Perspectives({0});
  spec.semantics = Semantics::kForward;
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok());
  const Cube& out = pc->output();
  EXPECT_EQ(Leaf(out, ex_.fte_joe, 0), CellValue(10.0));   // Own Jan value.
  EXPECT_EQ(Leaf(out, ex_.fte_joe, 1), CellValue(10.0));   // From PTE/Joe.
  EXPECT_EQ(Leaf(out, ex_.fte_joe, 2), CellValue(30.0));   // From Contractor.
  EXPECT_EQ(Leaf(out, ex_.fte_joe, 3), CellValue(10.0));
  EXPECT_TRUE(Leaf(out, ex_.fte_joe, 4).is_null());        // May: no d_t.
  EXPECT_EQ(Leaf(out, ex_.fte_joe, 5), CellValue(10.0));
  // The other Joe rows are gone.
  for (int t = 0; t < 6; ++t) {
    EXPECT_TRUE(Leaf(out, ex_.pte_joe, t).is_null());
    EXPECT_TRUE(Leaf(out, ex_.contractor_joe, t).is_null());
  }
}

// Fig. 4: forward semantics, visual mode, P = {Feb, Apr}.
TEST_F(PaperExamplesTest, Fig4ForwardVisualFebApr) {
  WhatIfSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.perspectives = Perspectives({1, 3});
  spec.semantics = Semantics::kForward;
  spec.mode = EvalMode::kVisual;
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok());
  const Cube& out = pc->output();

  // "The leaf cell (PTE/Joe, Mar) has value 30 (instead of ⊥), 'inherited'
  // from the corresponding cell (Contractor/Joe, Mar)."
  EXPECT_EQ(Leaf(out, ex_.pte_joe, 2), CellValue(30.0));
  // "(PTE/Joe, Jan) remains ⊥ since PTE/Joe was not valid in Jan."
  EXPECT_TRUE(Leaf(out, ex_.pte_joe, 0).is_null());
  EXPECT_EQ(Leaf(out, ex_.pte_joe, 1), CellValue(10.0));
  EXPECT_TRUE(Leaf(out, ex_.pte_joe, 3).is_null());  // Apr belongs to Contractor.

  // Contractor/Joe owns [Apr, ∞) minus May.
  EXPECT_EQ(Leaf(out, ex_.contractor_joe, 3), CellValue(10.0));
  EXPECT_TRUE(Leaf(out, ex_.contractor_joe, 4).is_null());
  EXPECT_EQ(Leaf(out, ex_.contractor_joe, 5), CellValue(10.0));
  EXPECT_TRUE(Leaf(out, ex_.contractor_joe, 2).is_null());

  // FTE/Joe (valid only at Jan, not a perspective) is dropped.
  for (int t = 0; t < 6; ++t) {
    EXPECT_TRUE(Leaf(out, ex_.fte_joe, t).is_null());
  }

  // Visual mode: PTE quarter totals reflect the moved cells.
  const Schema& s = out.schema();
  CellRef pte_q1 = {
      AxisRef::OfMember(ex_.pte),
      AxisRef::OfMember(*s.dimension(ex_.location_dim).FindMember("NY")),
      AxisRef::OfMember(*s.dimension(ex_.time_dim).FindMember("Qtr1")),
      AxisRef::OfMember(*s.dimension(ex_.measures_dim).FindMember("Salary"))};
  // Tom Jan+Feb+Mar = 30, PTE/Joe Feb 10 + Mar 30 = 40 -> 70.
  EXPECT_EQ(Eval(*pc, pte_q1), CellValue(70.0));
}

// Fig. 5 flavour: a positive scenario splitting members at Apr, with
// non-visual totals (the Split default — "non-leaf cell evaluation by
// default is non-visual for the split operator").
TEST_F(PaperExamplesTest, Fig5PositiveSplit) {
  WhatIfSpec spec;
  spec.varying_dim = ex_.org_dim;
  // R = {(FTE/Lisa, FTE, PTE, Apr), (PTE/Tom, PTE, Contractor, Apr)}.
  spec.changes = {{ex_.lisa, ex_.fte, ex_.pte, 3},
                  {ex_.tom, ex_.pte, ex_.contractor, 3}};
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  const Cube& out = pc->output();

  InstanceId fte_lisa = Inst(out, "FTE", "Lisa");
  InstanceId pte_lisa = Inst(out, "PTE", "Lisa");
  InstanceId pte_tom = Inst(out, "PTE", "Tom");
  InstanceId contractor_tom = Inst(out, "Contractor", "Tom");
  ASSERT_NE(pte_lisa, kInvalidInstance);
  ASSERT_NE(contractor_tom, kInvalidInstance);

  // Before/after splits: values moved, sources nulled.
  EXPECT_EQ(Leaf(out, fte_lisa, 2), CellValue(10.0));
  EXPECT_TRUE(Leaf(out, fte_lisa, 3).is_null());
  EXPECT_EQ(Leaf(out, pte_lisa, 3), CellValue(10.0));
  EXPECT_TRUE(Leaf(out, pte_lisa, 2).is_null());
  EXPECT_EQ(Leaf(out, pte_tom, 0), CellValue(10.0));
  EXPECT_EQ(Leaf(out, contractor_tom, 5), CellValue(10.0));

  // Non-visual totals = input totals ("values of non-leaf cells will be
  // totals corresponding to the cube obtained from the selection").
  const Schema& s = out.schema();
  CellRef fte_total = {
      AxisRef::OfMember(ex_.fte),
      AxisRef::OfMember(*s.dimension(ex_.location_dim).FindMember("NY")),
      AxisRef::OfMember(*s.dimension(ex_.time_dim).FindMember("Time")),
      AxisRef::OfMember(*s.dimension(ex_.measures_dim).FindMember("Salary"))};
  // Input FTE total: FTE/Joe 10 + Lisa 60 = 70.
  EXPECT_EQ(Eval(*pc, fte_total), CellValue(70.0));

  // Total data volume unchanged by the split.
  EXPECT_EQ(out.CountNonNullCells(), ex_.cube.CountNonNullCells());
}

// Scenario S3 of the introduction: "what-if whatever structure existed in
// January continued until April and then the structure in April continued
// through the rest of the year" = forward perspectives {Jan, Apr}.
TEST_F(PaperExamplesTest, ScenarioS3JanuaryAndAprilStructures) {
  WhatIfSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.perspectives = Perspectives({0, 3});
  spec.semantics = Semantics::kForward;
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok());
  const Cube& out = pc->output();
  // Jan..Mar follow January's structure: Joe was FTE.
  EXPECT_EQ(Leaf(out, ex_.fte_joe, 0), CellValue(10.0));
  EXPECT_EQ(Leaf(out, ex_.fte_joe, 1), CellValue(10.0));
  EXPECT_EQ(Leaf(out, ex_.fte_joe, 2), CellValue(30.0));
  // Apr.. follow April's structure: Joe was Contractor.
  EXPECT_TRUE(Leaf(out, ex_.fte_joe, 3).is_null());
  EXPECT_EQ(Leaf(out, ex_.contractor_joe, 3), CellValue(10.0));
  EXPECT_EQ(Leaf(out, ex_.contractor_joe, 5), CellValue(10.0));
}

}  // namespace
}  // namespace olap
