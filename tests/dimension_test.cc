#include "dimension/dimension.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace olap {
namespace {

// Builds the paper's Organization hierarchy (Fig. 1).
Dimension MakeOrg() {
  Dimension org("Organization");
  MemberId fte = *org.AddChildOfRoot("FTE");
  MemberId pte = *org.AddChildOfRoot("PTE");
  MemberId contractor = *org.AddChildOfRoot("Contractor");
  EXPECT_TRUE(org.AddMember("Joe", fte).ok());
  EXPECT_TRUE(org.AddMember("Lisa", fte).ok());
  EXPECT_TRUE(org.AddMember("Sue", fte).ok());
  EXPECT_TRUE(org.AddMember("Tom", pte).ok());
  EXPECT_TRUE(org.AddMember("Dave", pte).ok());
  EXPECT_TRUE(org.AddMember("Jane", contractor).ok());
  return org;
}

TEST(DimensionTest, RootCarriesDimensionName) {
  Dimension d("Time");
  EXPECT_EQ(d.num_members(), 1);
  EXPECT_EQ(d.member(d.root()).name, "Time");
  EXPECT_EQ(d.member(d.root()).level, 0);
  EXPECT_TRUE(d.member(d.root()).is_leaf());
}

TEST(DimensionTest, HierarchyStructure) {
  Dimension org = MakeOrg();
  MemberId fte = *org.FindMember("FTE");
  MemberId joe = *org.FindMember("Joe");
  EXPECT_EQ(org.member(joe).parent, fte);
  EXPECT_EQ(org.member(joe).level, 2);
  EXPECT_TRUE(org.member(joe).is_leaf());
  EXPECT_FALSE(org.member(fte).is_leaf());
  EXPECT_EQ(org.member(fte).children.size(), 3u);
}

TEST(DimensionTest, FindMemberIsCaseInsensitive) {
  Dimension org = MakeOrg();
  EXPECT_TRUE(org.FindMember("joe").ok());
  EXPECT_TRUE(org.FindMember("JOE").ok());
  EXPECT_EQ(org.FindMember("nobody").status().code(), StatusCode::kNotFound);
}

TEST(DimensionTest, DuplicateNamesRejected) {
  Dimension org = MakeOrg();
  Result<MemberId> dup = org.AddChildOfRoot("Joe");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(DimensionTest, DescendantQueries) {
  Dimension org = MakeOrg();
  MemberId fte = *org.FindMember("FTE");
  MemberId joe = *org.FindMember("Joe");
  MemberId tom = *org.FindMember("Tom");
  EXPECT_TRUE(org.IsDescendantOrSelf(joe, fte));
  EXPECT_TRUE(org.IsDescendantOrSelf(joe, org.root()));
  EXPECT_TRUE(org.IsDescendantOrSelf(fte, fte));
  EXPECT_FALSE(org.IsDescendantOrSelf(tom, fte));
  EXPECT_FALSE(org.IsDescendantOrSelf(fte, joe));
}

TEST(DimensionTest, LeavesAndOrdinals) {
  Dimension org = MakeOrg();
  const std::vector<MemberId>& leaves = org.Leaves();
  ASSERT_EQ(leaves.size(), 6u);
  EXPECT_EQ(org.member(leaves[0]).name, "Joe");
  EXPECT_EQ(org.member(leaves[5]).name, "Jane");
  EXPECT_EQ(org.LeafOrdinal(leaves[3]), 3);
  EXPECT_EQ(org.LeafOrdinal(*org.FindMember("FTE")), -1);
  EXPECT_EQ(org.LeafAt(1), *org.FindMember("Lisa"));
}

TEST(DimensionTest, LeavesUnderSubtree) {
  Dimension org = MakeOrg();
  std::vector<MemberId> under_fte = org.LeavesUnder(*org.FindMember("FTE"));
  ASSERT_EQ(under_fte.size(), 3u);
  EXPECT_EQ(org.member(under_fte[0]).name, "Joe");
  EXPECT_EQ(org.member(under_fte[2]).name, "Sue");
  // A leaf is its own leaf set.
  EXPECT_EQ(org.LeavesUnder(*org.FindMember("Jane")).size(), 1u);
}

TEST(DimensionTest, MembersAtLevelAndDepthFromLeaf) {
  Dimension org = MakeOrg();
  EXPECT_EQ(org.MembersAtLevel(0).size(), 1u);
  EXPECT_EQ(org.MembersAtLevel(1).size(), 3u);
  EXPECT_EQ(org.MembersAtLevel(2).size(), 6u);
  EXPECT_EQ(org.max_level(), 2);
  EXPECT_EQ(org.MembersAtDepthFromLeaf(0).size(), 6u);  // Leaves.
  EXPECT_EQ(org.MembersAtDepthFromLeaf(1).size(), 3u);  // FTE/PTE/Contractor.
}

TEST(DimensionTest, LevelNames) {
  Dimension loc("Location");
  loc.SetLevelName(1, "Region");
  loc.SetLevelName(2, "State");
  EXPECT_EQ(loc.FindLevelByName("region"), 1);
  EXPECT_EQ(loc.FindLevelByName("STATE"), 2);
  EXPECT_EQ(loc.FindLevelByName("County"), -1);
}

TEST(DimensionTest, OutlineString) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  MemberId pte = *org.FindMember("PTE");
  ASSERT_TRUE(org.ApplyChange(joe, pte, 2).ok());
  std::string outline = org.OutlineString();
  EXPECT_NE(outline.find("Organization  (varying, ordered parameter, 6 moments)"),
            std::string::npos);
  EXPECT_NE(outline.find("FTE\n"), std::string::npos);
  // Changing members list their instances with validity sets.
  EXPECT_NE(outline.find("FTE/Joe @ {0, 1}"), std::string::npos);
  EXPECT_NE(outline.find("PTE/Joe @ {2, 3, 4, 5}"), std::string::npos);
  // Non-changing leaves are plain lines.
  EXPECT_NE(outline.find("  Lisa\n"), std::string::npos);

  // Consolidation operators render.
  Dimension accounts("Accounts");
  MemberId margin = *accounts.AddChildOfRoot("Margin");
  ASSERT_TRUE(accounts.AddMember("Sales", margin).ok());
  ASSERT_TRUE(accounts.AddMember("COGS", margin, -1.0).ok());
  ASSERT_TRUE(accounts.AddChildOfRoot("Stats", 0.0).ok());
  ASSERT_TRUE(accounts.AddChildOfRoot("Half", 0.5).ok());
  std::string acc = accounts.OutlineString();
  EXPECT_NE(acc.find("COGS (-)"), std::string::npos);
  EXPECT_NE(acc.find("Stats (~)"), std::string::npos);
  EXPECT_NE(acc.find("Half (*0.500000)"), std::string::npos);
  EXPECT_EQ(acc.find("Sales ("), std::string::npos);  // Default weight: bare.
}

TEST(DimensionTest, PathName) {
  Dimension org = MakeOrg();
  MemberId joe = *org.FindMember("Joe");
  EXPECT_EQ(org.PathName(joe), "FTE/Joe");
  EXPECT_EQ(org.PathName(joe, /*include_root=*/true), "Organization/FTE/Joe");
}

// --- Varying-dimension behaviour -----------------------------------------

TEST(DimensionVaryingTest, MakeVaryingCreatesEverywhereValidInstances) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, /*ordered=*/true).ok());
  EXPECT_TRUE(org.is_varying());
  EXPECT_EQ(org.num_instances(), 6);
  for (const MemberInstance& inst : org.instances()) {
    EXPECT_EQ(inst.validity.Count(), 6);
    EXPECT_EQ(inst.parent, org.member(inst.member).parent);
  }
}

TEST(DimensionVaryingTest, ApplyChangeSplitsValidity) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  MemberId pte = *org.FindMember("PTE");
  ASSERT_TRUE(org.ApplyChange(joe, pte, 2).ok());

  std::vector<InstanceId> insts = org.InstancesOf(joe);
  ASSERT_EQ(insts.size(), 2u);
  const MemberInstance& fte_joe = org.instance(insts[0]);
  const MemberInstance& pte_joe = org.instance(insts[1]);
  EXPECT_EQ(fte_joe.validity.ToVector(), (std::vector<int>{0, 1}));
  EXPECT_EQ(pte_joe.validity.ToVector(), (std::vector<int>{2, 3, 4, 5}));
  EXPECT_EQ(pte_joe.qualified_name, "PTE/Joe");
}

// Sec. 3.1: moving back to a previous parent reuses the instance with the
// identical root-to-leaf path ("it is treated as d1").
TEST(DimensionVaryingTest, ReturningToOldParentReusesInstance) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  MemberId fte = *org.FindMember("FTE");
  MemberId pte = *org.FindMember("PTE");
  ASSERT_TRUE(org.ApplyChange(joe, pte, 2).ok());   // PTE from Mar.
  ASSERT_TRUE(org.ApplyChange(joe, fte, 5).ok());   // Back to FTE in Jun.

  std::vector<InstanceId> insts = org.InstancesOf(joe);
  ASSERT_EQ(insts.size(), 2u);  // d1 reused, no third instance.
  EXPECT_EQ(org.instance(insts[0]).validity.ToVector(),
            (std::vector<int>{0, 1, 5}));
  EXPECT_EQ(org.instance(insts[1]).validity.ToVector(),
            (std::vector<int>{2, 3, 4}));
}

TEST(DimensionVaryingTest, InstanceValidAtFindsUniqueOwner) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  MemberId pte = *org.FindMember("PTE");
  ASSERT_TRUE(org.ApplyChange(joe, pte, 3).ok());
  InstanceId early = org.InstanceValidAt(joe, 0);
  InstanceId late = org.InstanceValidAt(joe, 4);
  EXPECT_NE(early, late);
  EXPECT_EQ(org.instance(early).parent, *org.FindMember("FTE"));
  EXPECT_EQ(org.instance(late).parent, pte);
}

TEST(DimensionVaryingTest, DeactivateRemovesMoments) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  DynamicBitset may(6);
  may.Set(4);
  ASSERT_TRUE(org.Deactivate(joe, may).ok());
  EXPECT_EQ(org.InstanceValidAt(joe, 4), kInvalidInstance);
  EXPECT_NE(org.InstanceValidAt(joe, 3), kInvalidInstance);
}

TEST(DimensionVaryingTest, ChangingMembers) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  MemberId pte = *org.FindMember("PTE");
  EXPECT_TRUE(org.ChangingMembers().empty());
  ASSERT_TRUE(org.ApplyChange(joe, pte, 2).ok());
  EXPECT_EQ(org.ChangingMembers(), std::vector<MemberId>{joe});
}

TEST(DimensionVaryingTest, ChangeValidation) {
  Dimension org = MakeOrg();
  MemberId joe = *org.FindMember("Joe");
  MemberId pte = *org.FindMember("PTE");
  // Not varying yet.
  EXPECT_EQ(org.ApplyChange(joe, pte, 2).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  // Target must be non-leaf; moment must be in range.
  EXPECT_EQ(org.ApplyChange(joe, *org.FindMember("Lisa"), 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(org.ApplyChange(joe, pte, 6).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(org.ApplyChange(pte, pte, 2).code(), StatusCode::kInvalidArgument);
  // Unordered API required for unordered dims.
  Dimension unordered = MakeOrg();
  ASSERT_TRUE(unordered.MakeVarying(6, /*ordered=*/false).ok());
  EXPECT_EQ(unordered.ApplyChange(joe, pte, 2).code(),
            StatusCode::kFailedPrecondition);
  DynamicBitset moments(6);
  moments.Set(1);
  EXPECT_TRUE(unordered.ApplyChangeAt(joe, pte, moments).ok());
}

TEST(DimensionVaryingTest, PositionsEnumerateInstances) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  MemberId pte = *org.FindMember("PTE");
  ASSERT_TRUE(org.ApplyChange(joe, pte, 2).ok());
  EXPECT_EQ(org.num_positions(), 7);  // 6 initial + 1 new instance.
  EXPECT_EQ(org.PositionMember(6), joe);
  EXPECT_EQ(org.PositionLabel(6), "PTE/Joe");
  EXPECT_EQ(org.PositionLabel(1), "FTE/Lisa");
}

TEST(DimensionVaryingTest, CannotTurnInstancedLeafIntoInnerMember) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  Result<MemberId> bad = org.AddMember("Intern", joe);
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DimensionVaryingTest, AddInstanceRejectsDuplicatesAndInnerMembers) {
  Dimension org = MakeOrg();
  ASSERT_TRUE(org.MakeVarying(6, true).ok());
  MemberId joe = *org.FindMember("Joe");
  MemberId fte = *org.FindMember("FTE");
  MemberId contractor = *org.FindMember("Contractor");
  EXPECT_EQ(org.AddInstance(joe, fte, DynamicBitset(6)).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(org.AddInstance(joe, contractor, DynamicBitset(6)).ok());
  EXPECT_EQ(org.AddInstance(fte, contractor, DynamicBitset(6)).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- the per-member instance index against linear-scan oracles ----------
//
// Dimension answers InstancesOf / InstanceValidAt / FindInstance from a
// per-member chain of instance ids. These scans over the whole instance
// table are what it replaced; the fuzz below checks the chain against them
// after every mutation, on copies too.

std::vector<InstanceId> ScanInstancesOf(const Dimension& d, MemberId m) {
  std::vector<InstanceId> out;
  for (const MemberInstance& inst : d.instances()) {
    if (inst.member == m) out.push_back(inst.id);
  }
  return out;
}

InstanceId ScanInstanceValidAt(const Dimension& d, MemberId m, int moment) {
  for (const MemberInstance& inst : d.instances()) {
    if (inst.member == m && inst.validity.Test(moment)) return inst.id;
  }
  return kInvalidInstance;
}

InstanceId ScanFindInstance(const Dimension& d, MemberId m, MemberId parent) {
  for (const MemberInstance& inst : d.instances()) {
    if (inst.member == m && inst.parent == parent) return inst.id;
  }
  return kInvalidInstance;
}

void ExpectIndexMatchesScan(const Dimension& d, const std::string& step) {
  for (MemberId m = 0; m < d.num_members(); ++m) {
    ASSERT_EQ(d.InstancesOf(m), ScanInstancesOf(d, m)) << step << " m=" << m;
    for (int t = 0; t < d.parameter_leaf_count(); ++t) {
      ASSERT_EQ(d.InstanceValidAt(m, t), ScanInstanceValidAt(d, m, t))
          << step << " m=" << m << " t=" << t;
    }
    for (MemberId parent = 0; parent < d.num_members(); ++parent) {
      ASSERT_EQ(d.FindInstance(m, parent), ScanFindInstance(d, m, parent))
          << step << " m=" << m << " parent=" << parent;
    }
  }
}

// Everything observable about an instance table, for "the original did not
// change" checks after mutating a copy.
std::string InstanceTable(const Dimension& d) {
  std::string out;
  for (const MemberInstance& inst : d.instances()) {
    out += std::to_string(inst.id) + ":" + std::to_string(inst.member) + "/" +
           std::to_string(inst.parent) + "@" + inst.validity.ToString() + ";";
  }
  return out;
}

class InstanceIndexFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InstanceIndexFuzzTest, ChainsMatchLinearScans) {
  constexpr int kMoments = 8;
  Rng rng(GetParam());
  Dimension d("Org");
  for (int g = 0; g < 4; ++g) {
    MemberId group = *d.AddChildOfRoot("G" + std::to_string(g));
    for (int e = 0; e < 3; ++e) {
      ASSERT_TRUE(
          d.AddMember("E" + std::to_string(g) + "_" + std::to_string(e), group)
              .ok());
    }
  }
  ASSERT_TRUE(d.MakeVarying(kMoments, /*ordered=*/true).ok());
  ExpectIndexMatchesScan(d, "MakeVarying");

  int next_name = 0;
  auto pick = [&](bool leaf) {
    std::vector<MemberId> out;
    for (MemberId m = 1; m < d.num_members(); ++m) {
      if (d.member(m).is_leaf() == leaf) out.push_back(m);
    }
    if (!leaf) out.push_back(d.root());
    return out[rng.NextBelow(out.size())];
  };
  auto random_moments = [&]() {
    DynamicBitset moments(kMoments);
    for (int t = 0; t < kMoments; ++t) {
      if (rng.NextBool(0.3)) moments.Set(t);
    }
    return moments;
  };
  // ApplyChangeAt of a random leaf to a random inner member: the mutation
  // that can append an instance.
  auto random_change = [&](Dimension* dim) {
    std::vector<MemberId> leaves, inner;
    for (MemberId m = 1; m < dim->num_members(); ++m) {
      (dim->member(m).is_leaf() ? leaves : inner).push_back(m);
    }
    inner.push_back(dim->root());
    return dim->ApplyChangeAt(leaves[rng.NextBelow(leaves.size())],
                              inner[rng.NextBelow(inner.size())],
                              random_moments());
  };

  for (int step = 0; step < 120; ++step) {
    const int op = static_cast<int>(rng.NextBelow(9));
    const std::string what = "step " + std::to_string(step) + " op " +
                             std::to_string(op);
    switch (op) {
      case 0: {  // AddMember: a new leaf, or refused under an instanced leaf.
        const MemberId parent = pick(rng.NextBool(0.3));
        const bool instanced = d.member(parent).is_leaf() &&
                               !ScanInstancesOf(d, parent).empty();
        Result<MemberId> added =
            d.AddMember("N" + std::to_string(next_name++), parent);
        if (instanced) {
          ASSERT_EQ(added.status().code(), StatusCode::kFailedPrecondition)
              << what;
          ASSERT_EQ(d.AddInnerMember("I" + std::to_string(next_name++), parent)
                        .status()
                        .code(),
                    StatusCode::kFailedPrecondition)
              << what;
        } else {
          ASSERT_TRUE(added.ok()) << what << " " << added.status().ToString();
        }
        break;
      }
      case 1: {  // AddInnerMember under an inner member: a leaf with no
                 // instance until a change targets it.
        ASSERT_TRUE(
            d.AddInnerMember("I" + std::to_string(next_name++), pick(false))
                .ok())
            << what;
        break;
      }
      case 2: {  // ApplyChange (ordered suffix).
        Status s = d.ApplyChange(pick(true), pick(false),
                                 static_cast<int>(rng.NextBelow(kMoments)));
        ASSERT_TRUE(s.ok()) << what << " " << s.ToString();
        break;
      }
      case 3: {  // ApplyChangeAt (arbitrary moment set).
        Status s = random_change(&d);
        ASSERT_TRUE(s.ok()) << what << " " << s.ToString();
        break;
      }
      case 4: {  // AddInstance over the moments no instance of m holds.
        const MemberId m = pick(true);
        const MemberId parent = pick(false);
        DynamicBitset free(kMoments);
        for (int t = 0; t < kMoments; ++t) {
          if (ScanInstanceValidAt(d, m, t) == kInvalidInstance) free.Set(t);
        }
        const bool exists = ScanFindInstance(d, m, parent) != kInvalidInstance;
        Result<InstanceId> added = d.AddInstance(m, parent, free);
        if (exists) {
          ASSERT_EQ(added.status().code(), StatusCode::kAlreadyExists) << what;
        } else {
          ASSERT_TRUE(added.ok()) << what << " " << added.status().ToString();
          ASSERT_EQ(*added, d.num_instances() - 1) << what;
        }
        break;
      }
      case 5: {  // Deactivate.
        ASSERT_TRUE(d.Deactivate(pick(true), random_moments()).ok()) << what;
        break;
      }
      case 6: {  // RestoreVarying into a rebuilt hierarchy, then copy-assign.
        Dimension rebuilt("Org");
        for (MemberId m = 1; m < d.num_members(); ++m) {
          Result<MemberId> id = rebuilt.AddMember(d.member(m).name,
                                                  d.member(m).parent);
          ASSERT_TRUE(id.ok() && *id == m) << what;
        }
        ASSERT_TRUE(rebuilt.RestoreVarying(kMoments, true, d.instances()).ok())
            << what;
        ASSERT_EQ(InstanceTable(rebuilt), InstanceTable(d)) << what;
        d = rebuilt;
        break;
      }
      case 7: {  // Copy-construct, then mutate the copy only.
        const std::string before = InstanceTable(d);
        Dimension copy(d);
        ExpectIndexMatchesScan(copy, what + " copy");
        ASSERT_TRUE(random_change(&copy).ok()) << what;
        ASSERT_TRUE(copy.AddMember("C" + std::to_string(next_name++),
                                   copy.root())
                        .ok())
            << what;
        ExpectIndexMatchesScan(copy, what + " mutated copy");
        ASSERT_EQ(InstanceTable(d), before) << what;
        break;
      }
      case 8: {  // Copy-assign over a populated dimension, mutate both.
        Dimension other = d;
        ASSERT_TRUE(random_change(&other).ok()) << what;
        other = d;
        ExpectIndexMatchesScan(other, what + " assigned");
        const std::string before = InstanceTable(d);
        ASSERT_TRUE(random_change(&other).ok()) << what;
        ExpectIndexMatchesScan(other, what + " mutated assigned");
        ASSERT_EQ(InstanceTable(d), before) << what;
        ASSERT_TRUE(random_change(&d).ok()) << what;
        break;
      }
    }
    ExpectIndexMatchesScan(d, what);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstanceIndexFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace olap
