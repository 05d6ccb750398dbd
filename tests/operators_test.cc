#include "whatif/operators.h"

#include <gtest/gtest.h>

#include "agg/rollup.h"
#include "rules/evaluator.h"
#include "support/operator_oracles.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

DynamicBitset Bits(std::vector<int> v, int size = 6) {
  return DynamicBitset::FromVector(size, std::move(v));
}

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = BuildPaperExample(); }

  CellValue Get(const Cube& cube, const std::vector<std::string>& names) {
    Result<CellValue> v = cube.GetByName(names);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? *v : CellValue::Null();
  }

  PaperExample ex_;
};

// --- Selection (Definition 4.1) -------------------------------------------

TEST_F(OperatorsTest, SelectMemberEquals) {
  // σ_{Org = Joe}: only Joe's instances survive.
  std::vector<bool> keep = KeepMemberEquals(ex_.cube, ex_.org_dim, ex_.joe);
  Cube out = Select(ex_.cube, ex_.org_dim, [&](int p) { return keep[p]; });
  EXPECT_TRUE(Get(out, {"Lisa", "NY", "Jan", "Salary"}).is_null());
  EXPECT_EQ(Get(out, {"FTE/Joe", "NY", "Jan", "Salary"}), CellValue(10.0));
  EXPECT_EQ(out.CountNonNullCells(), 5);  // Joe's five data cells.
}

TEST_F(OperatorsTest, SelectDescendantOf) {
  // σ_{Org descendant-of FTE}: FTE/Joe + Lisa (+ inactive Sue).
  std::vector<bool> keep = KeepDescendantOf(ex_.cube, ex_.org_dim, ex_.fte);
  Cube out = Select(ex_.cube, ex_.org_dim, [&](int p) { return keep[p]; });
  EXPECT_EQ(Get(out, {"Lisa", "NY", "Mar", "Salary"}), CellValue(10.0));
  EXPECT_EQ(Get(out, {"FTE/Joe", "NY", "Jan", "Salary"}), CellValue(10.0));
  EXPECT_TRUE(Get(out, {"PTE/Joe", "NY", "Feb", "Salary"}).is_null());
  EXPECT_TRUE(Get(out, {"Tom", "NY", "Jan", "Salary"}).is_null());
}

TEST_F(OperatorsTest, SelectByValiditySetOverlap) {
  // σ_{Org.VS ∩ {Feb} ≠ ∅}: drops FTE/Joe (valid only in Jan) but keeps
  // everyone valid in Feb. Mirrors the paper's VS-based predicates.
  std::vector<bool> keep =
      KeepValidityOverlaps(ex_.cube, ex_.org_dim, Bits({1}));
  EXPECT_FALSE(keep[ex_.fte_joe]);
  EXPECT_TRUE(keep[ex_.pte_joe]);
  EXPECT_FALSE(keep[ex_.contractor_joe]);
  InstanceId lisa =
      ex_.cube.schema().dimension(ex_.org_dim).InstancesOf(ex_.lisa)[0];
  EXPECT_TRUE(keep[lisa]);
  // Non-varying dimensions keep everything.
  std::vector<bool> loc = KeepValidityOverlaps(ex_.cube, ex_.location_dim,
                                               DynamicBitset(6));
  for (bool b : loc) EXPECT_TRUE(b);
}

TEST_F(OperatorsTest, SelectByValuePredicate) {
  // σ_{value > 20}: only Contractor/Joe has a cell above 20 (Mar = 30).
  std::vector<bool> keep = KeepWhereAnyValue(
      ex_.cube, ex_.org_dim, [](double v) { return v > 20.0; });
  EXPECT_TRUE(keep[ex_.contractor_joe]);
  EXPECT_FALSE(keep[ex_.fte_joe]);
  InstanceId lisa =
      ex_.cube.schema().dimension(ex_.org_dim).InstancesOf(ex_.lisa)[0];
  EXPECT_FALSE(keep[lisa]);
}

// --- Relocate (Definition 4.4) --------------------------------------------

TEST_F(OperatorsTest, RelocateIdentityWhenValiditySetsUnchanged) {
  const Dimension& org = ex_.cube.schema().dimension(ex_.org_dim);
  std::vector<DynamicBitset> vs;
  for (const MemberInstance& inst : org.instances()) vs.push_back(inst.validity);
  Cube out = Relocate(ex_.cube, ex_.org_dim, vs);
  EXPECT_EQ(out.CountNonNullCells(), ex_.cube.CountNonNullCells());
  EXPECT_EQ(Get(out, {"Contractor/Joe", "NY", "Mar", "Salary"}), CellValue(30.0));
}

TEST_F(OperatorsTest, RelocateMovesCellsAcrossInstances) {
  // Forward {Feb, Apr}: PTE/Joe owns {Feb, Mar} and inherits Mar's 30 from
  // Contractor/Joe (the paper's Fig. 4 highlight).
  const Dimension& org = ex_.cube.schema().dimension(ex_.org_dim);
  std::vector<DynamicBitset> vs =
      TransformValiditySets(org, Perspectives({1, 3}), Semantics::kForward);
  int64_t moved = 0;
  Cube out = Relocate(ex_.cube, ex_.org_dim, vs, {}, &moved);
  EXPECT_EQ(Get(out, {"PTE/Joe", "NY", "Feb", "Salary"}), CellValue(10.0));
  EXPECT_EQ(Get(out, {"PTE/Joe", "NY", "Mar", "Salary"}), CellValue(30.0));
  // "(PTE/Joe, Jan) remains ⊥ since PTE/Joe was not valid in Jan".
  EXPECT_TRUE(Get(out, {"PTE/Joe", "NY", "Jan", "Salary"}).is_null());
  // FTE/Joe is dropped entirely.
  EXPECT_TRUE(Get(out, {"FTE/Joe", "NY", "Jan", "Salary"}).is_null());
  // Contractor/Joe keeps {Apr, Jun}, loses Mar.
  EXPECT_EQ(Get(out, {"Contractor/Joe", "NY", "Apr", "Salary"}), CellValue(10.0));
  EXPECT_TRUE(Get(out, {"Contractor/Joe", "NY", "Mar", "Salary"}).is_null());
  // Metadata updated.
  const Dimension& org_out = out.schema().dimension(ex_.org_dim);
  EXPECT_EQ(org_out.instance(ex_.pte_joe).validity, Bits({1, 2}));
  EXPECT_GT(moved, 0);
}

TEST_F(OperatorsTest, RelocateScopeRestrictsMovement) {
  const Dimension& org = ex_.cube.schema().dimension(ex_.org_dim);
  std::vector<DynamicBitset> vs =
      TransformValiditySets(org, Perspectives({1, 3}), Semantics::kForward);
  // Scope = {Lisa}: Joe's cells are absent (the caller reads them from the
  // input cube), Lisa's are relocated.
  Cube scoped = Relocate(ex_.cube, ex_.org_dim, vs, {ex_.lisa});
  EXPECT_TRUE(Get(scoped, {"FTE/Joe", "NY", "Jan", "Salary"}).is_null());
  EXPECT_TRUE(Get(scoped, {"PTE/Joe", "NY", "Mar", "Salary"}).is_null());
  EXPECT_EQ(Get(scoped, {"Lisa", "NY", "Feb", "Salary"}), CellValue(10.0));
}

// --- Split (Definition 4.5) -----------------------------------------------

TEST_F(OperatorsTest, SplitCreatesBeforeAndAfterInstances) {
  // Positive scenario: Lisa moves from FTE to PTE in Apr (the paper's
  // example R = {(FTE/Lisa, FTE, PTE, Apr)}).
  ChangeRelation r = {{ex_.lisa, ex_.fte, ex_.pte, 3}};
  Result<Cube> out = Split(ex_.cube, ex_.org_dim, r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const Dimension& org = out->schema().dimension(ex_.org_dim);
  std::vector<InstanceId> insts = org.InstancesOf(ex_.lisa);
  ASSERT_EQ(insts.size(), 2u);
  EXPECT_EQ(org.instance(insts[0]).validity, Bits({0, 1, 2}));
  EXPECT_EQ(org.instance(insts[1]).validity, Bits({3, 4, 5}));
  EXPECT_EQ(org.instance(insts[1]).qualified_name, "PTE/Lisa");

  // Cells moved with the split.
  EXPECT_EQ(Get(*out, {"FTE/Lisa", "NY", "Jan", "Salary"}), CellValue(10.0));
  EXPECT_TRUE(Get(*out, {"FTE/Lisa", "NY", "Apr", "Salary"}).is_null());
  EXPECT_EQ(Get(*out, {"PTE/Lisa", "NY", "Apr", "Salary"}), CellValue(10.0));
  EXPECT_TRUE(Get(*out, {"PTE/Lisa", "NY", "Jan", "Salary"}).is_null());
  // Untouched members keep their data.
  EXPECT_EQ(Get(*out, {"Tom", "NY", "Jan", "Salary"}), CellValue(10.0));
  // Totals are preserved.
  EXPECT_EQ(out->CountNonNullCells(), ex_.cube.CountNonNullCells());
}

TEST_F(OperatorsTest, SplitSequenceOfChanges) {
  // Lisa: FTE -> PTE in Mar, then PTE -> Contractor in May.
  ChangeRelation r = {{ex_.lisa, ex_.fte, ex_.pte, 2},
                      {ex_.lisa, ex_.pte, ex_.contractor, 4}};
  Result<Cube> out = Split(ex_.cube, ex_.org_dim, r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Dimension& org = out->schema().dimension(ex_.org_dim);
  ASSERT_EQ(org.InstancesOf(ex_.lisa).size(), 3u);
  EXPECT_EQ(Get(*out, {"FTE/Lisa", "NY", "Feb", "Salary"}), CellValue(10.0));
  EXPECT_EQ(Get(*out, {"PTE/Lisa", "NY", "Mar", "Salary"}), CellValue(10.0));
  EXPECT_EQ(Get(*out, {"Contractor/Lisa", "NY", "May", "Salary"}),
            CellValue(10.0));
  EXPECT_TRUE(Get(*out, {"PTE/Lisa", "NY", "May", "Salary"}).is_null());
}

TEST_F(OperatorsTest, SplitValidation) {
  // Wrong old parent.
  ChangeRelation wrong_parent = {{ex_.lisa, ex_.pte, ex_.contractor, 3}};
  EXPECT_EQ(Split(ex_.cube, ex_.org_dim, wrong_parent).status().code(),
            StatusCode::kNotFound);
  // Old parent no longer valid at the moment (Joe left FTE after Jan).
  ChangeRelation stale = {{ex_.joe, ex_.fte, ex_.pte, 3}};
  EXPECT_EQ(Split(ex_.cube, ex_.org_dim, stale).status().code(),
            StatusCode::kFailedPrecondition);
  // Moment out of range.
  ChangeRelation bad_moment = {{ex_.lisa, ex_.fte, ex_.pte, 99}};
  EXPECT_EQ(Split(ex_.cube, ex_.org_dim, bad_moment).status().code(),
            StatusCode::kOutOfRange);
  // Non-varying dimension.
  EXPECT_EQ(Split(ex_.cube, ex_.location_dim, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

// σ compositions — the paper's compound predicate example
// σ_{Location=NY ∧ Time=Jan ∧ Measure=Salary ∧ Value>20} (Sec. 4.1):
// restrict the context dimensions first, then keep the Org positions with
// any qualifying value.
TEST_F(OperatorsTest, SelectionComposition) {
  const Schema& s = ex_.cube.schema();
  MemberId ny = *s.dimension(ex_.location_dim).FindMember("NY");
  MemberId mar = *s.dimension(ex_.time_dim).FindMember("Mar");
  MemberId salary = *s.dimension(ex_.measures_dim).FindMember("Salary");

  std::vector<bool> keep_ny = KeepMemberEquals(ex_.cube, ex_.location_dim, ny);
  Cube step1 = Select(ex_.cube, ex_.location_dim,
                      [&](int p) { return keep_ny[p]; });
  std::vector<bool> keep_mar = KeepMemberEquals(step1, ex_.time_dim, mar);
  Cube step2 = Select(step1, ex_.time_dim, [&](int p) { return keep_mar[p]; });
  std::vector<bool> keep_salary =
      KeepMemberEquals(step2, ex_.measures_dim, salary);
  Cube step3 = Select(step2, ex_.measures_dim,
                      [&](int p) { return keep_salary[p]; });
  // Within (NY, Mar, Salary): only Contractor/Joe (30) exceeds 20.
  std::vector<bool> keep = KeepWhereAnyValue(step3, ex_.org_dim,
                                             [](double v) { return v > 20.0; });
  EXPECT_TRUE(keep[ex_.contractor_joe]);
  int kept = 0;
  for (bool b : keep) kept += b;
  EXPECT_EQ(kept, 1);
}

// Selection then perspective: operators compose on cubes, as Theorem 4.1's
// algebra requires.
TEST_F(OperatorsTest, SelectThenRelocate) {
  std::vector<bool> keep = KeepMemberEquals(ex_.cube, ex_.org_dim, ex_.joe);
  Cube joes = Select(ex_.cube, ex_.org_dim, [&](int p) { return keep[p]; });
  const Dimension& org = joes.schema().dimension(ex_.org_dim);
  std::vector<DynamicBitset> vs =
      TransformValiditySets(org, Perspectives({0}), Semantics::kForward);
  Cube out = Relocate(joes, ex_.org_dim, vs);
  // Joe's history under FTE/Joe; Lisa was selected away, so she stays ⊥
  // even though her validity set survives the transform.
  EXPECT_EQ(Get(out, {"FTE/Joe", "NY", "Mar", "Salary"}), CellValue(30.0));
  EXPECT_TRUE(Get(out, {"Lisa", "NY", "Jan", "Salary"}).is_null());
}

// --- Evaluate (Definition 4.6) --------------------------------------------

// E(C, C) is ordinary evaluation of C: CellEvaluator with C's rules over
// C's cells.
TEST_F(OperatorsTest, EvalOperatorIdentity) {
  const Schema& s = ex_.cube.schema();
  CellRef ref = {AxisRef::OfMember(s.dimension(ex_.org_dim).root()),
                 AxisRef::OfMember(*s.dimension(ex_.location_dim).FindMember("NY")),
                 AxisRef::OfMember(*s.dimension(ex_.time_dim).FindMember("Qtr1")),
                 AxisRef::OfMember(*s.dimension(ex_.measures_dim).FindMember("Salary"))};
  EXPECT_EQ(CellEvaluator(ex_.cube, nullptr).Evaluate(ref),
            RollUpCell(ex_.cube, ref));
  EXPECT_EQ(RollUpCell(ex_.cube, ref), CellValue(140.0));
}

TEST_F(OperatorsTest, EvalOperatorOnTwoCubes) {
  // E(Cin, ρ(Cin, Φf(VSin))): derived cells evaluated over the relocated
  // cube — the visual mode composition from Sec. 4.2.
  const Schema& schema = ex_.cube.schema();
  const Dimension& org = schema.dimension(ex_.org_dim);
  std::vector<DynamicBitset> vs =
      TransformValiditySets(org, Perspectives({1, 3}), Semantics::kForward);
  Cube relocated = Relocate(ex_.cube, ex_.org_dim, vs);

  CellRef pte_q1 = {
      AxisRef::OfMember(ex_.pte),
      AxisRef::OfMember(*schema.dimension(ex_.location_dim).FindMember("NY")),
      AxisRef::OfMember(*schema.dimension(ex_.time_dim).FindMember("Qtr1")),
      AxisRef::OfMember(*schema.dimension(ex_.measures_dim).FindMember("Salary"))};
  // Input: PTE Q1 = Tom 30 + PTE/Joe Feb 10 = 40.
  EXPECT_EQ(CellEvaluator(ex_.cube, nullptr).Evaluate(pte_q1), CellValue(40.0));
  // Visual (over relocated): PTE/Joe now also holds Mar = 30 -> 70.
  EXPECT_EQ(CellEvaluator(relocated, nullptr).Evaluate(pte_q1),
            CellValue(70.0));
}

}  // namespace
}  // namespace olap
