#ifndef OLAP_DIMENSION_DIMENSION_H_
#define OLAP_DIMENSION_DIMENSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"

namespace olap {

// Identifies a member within one dimension (index into Dimension's member
// table). The root member of every dimension has id 0.
using MemberId = int32_t;
// Identifies a member instance within one varying dimension.
using InstanceId = int32_t;

inline constexpr MemberId kInvalidMember = -1;
inline constexpr InstanceId kInvalidInstance = -1;

// One node of a dimension hierarchy.
struct Member {
  MemberId id = kInvalidMember;
  std::string name;
  MemberId parent = kInvalidMember;  // kInvalidMember for the root.
  int level = 0;                     // Root is level 0.
  // Consolidation weight (Essbase unary operator): the factor this member
  // contributes to its parent's roll-up. +1 add (default), -1 subtract
  // (e.g. COGS under Margin), 0 ignore (~), or any scale factor.
  double weight = 1.0;
  std::vector<MemberId> children;

  bool is_leaf() const { return children.empty(); }
};

// An *instance* of a leaf member of a varying dimension (Sec. 2 of the
// paper): the same member under a particular root-to-leaf path, valid over
// a subset of the parameter dimension's leaf members ("moments").
//
// E.g. member Joe reparented over time yields instances FTE/Joe, PTE/Joe,
// Contractor/Joe; their validity sets are pairwise disjoint.
struct MemberInstance {
  InstanceId id = kInvalidInstance;
  MemberId member = kInvalidMember;  // The leaf member this instantiates.
  MemberId parent = kInvalidMember;  // Parent defining this instance's path.
  DynamicBitset validity;            // Over parameter-dimension leaf ordinals.

  // "FTE/Joe"-style display name; computed by Dimension.
  std::string qualified_name;
};

// The role a dimension plays in a cube.
enum class DimensionKind {
  kRegular,   // Ordinary hierarchy dimension (Organization, Location, ...).
  kParameter, // Drives changes in varying dimensions (Time, Location, ...).
  kMeasure,   // Holds measures (Salary, Benefits, ...).
};

// A dimension: a named hierarchy of members, optionally *varying* — i.e.,
// its leaf members may be reclassified under different parents as a function
// of a parameter dimension, producing member instances with validity sets.
//
// Usage:
//   Dimension org("Organization");
//   MemberId fte = org.AddChildOfRoot("FTE");
//   MemberId joe = org.AddMember("Joe", fte);
//   org.MakeVarying(/*parameter_leaf_count=*/12, /*ordered=*/true);
//   org.ApplyChange(joe, pte, /*moment=*/2);   // Joe -> PTE from March on.
//
// A Dimension is a value type (copyable); the what-if Split operator works
// on copies.
class Dimension {
 public:
  explicit Dimension(std::string name, DimensionKind kind = DimensionKind::kRegular);

  const std::string& name() const { return name_; }
  DimensionKind kind() const { return kind_; }

  // --- Hierarchy construction -------------------------------------------

  // Adds a member under `parent`. Names must be unique within the dimension.
  // In a varying dimension a new leaf automatically receives one instance
  // valid at every moment. `weight` is the consolidation factor the member
  // contributes to its parent's roll-up (see Member::weight).
  Result<MemberId> AddMember(std::string name, MemberId parent,
                             double weight = 1.0);
  Result<MemberId> AddChildOfRoot(std::string name, double weight = 1.0);

  // Adds a member that is *meant to become inner* (a new department, not a
  // new employee): in a varying dimension no instance is created for it, so
  // it contributes no axis positions until leaves are added beneath it.
  // Identical to AddMember for non-varying dimensions.
  Result<MemberId> AddInnerMember(std::string name, MemberId parent,
                                  double weight = 1.0);

  // The product of consolidation weights along the path from `ancestor`
  // (exclusive) down to `m` (inclusive): how one unit at `m` shows up in
  // `ancestor`'s roll-up. 1.0 when m == ancestor.
  double PathWeight(MemberId m, MemberId ancestor) const;

  // --- Hierarchy queries ---------------------------------------------------

  MemberId root() const { return 0; }
  int num_members() const { return static_cast<int>(members_.size()); }
  const Member& member(MemberId id) const { return members_[id]; }

  // Case-insensitive lookup by name.
  Result<MemberId> FindMember(std::string_view name) const;

  // True if `m` is a strict or non-strict descendant of `ancestor`.
  bool IsDescendantOrSelf(MemberId m, MemberId ancestor) const;

  // Leaf members under `m` (including `m` itself when it is a leaf),
  // in depth-first order.
  std::vector<MemberId> LeavesUnder(MemberId m) const;

  // All members whose level equals `level` (root = 0), DFS order.
  std::vector<MemberId> MembersAtLevel(int level) const;
  int max_level() const;

  // Members counted bottom-up: Levels(0) are leaves (Essbase convention).
  std::vector<MemberId> MembersAtDepthFromLeaf(int depth_from_leaf) const;

  // Optional level names ("Region", "State") for MDX paths like
  // Location.Region.State.Members. Root is level 0.
  void SetLevelName(int level, std::string name);
  // Level with the given name, or -1.
  int FindLevelByName(std::string_view name) const;
  // All configured level names, indexed by level (may be shorter than
  // max_level()+1; unnamed levels are empty strings).
  const std::vector<std::string>& level_names() const { return level_names_; }

  // All leaves of the dimension, DFS order. The i-th element is the leaf
  // with *leaf ordinal* i; leaf ordinals are the coordinates used by cube
  // storage and by validity sets of dimensions varying over this one.
  const std::vector<MemberId>& Leaves() const;
  int num_leaves() const { return static_cast<int>(Leaves().size()); }
  // Leaf ordinal of `m`, or -1 when `m` is not a leaf.
  int LeafOrdinal(MemberId m) const;
  MemberId LeafAt(int ordinal) const { return Leaves()[ordinal]; }

  // "Organization/FTE/Joe"-style path (excluding the root's name when
  // `include_root` is false).
  std::string PathName(MemberId m, bool include_root = false) const;

  // Essbase-style outline rendering: one line per member, indented by
  // level, with consolidation operators and (for varying dimensions) the
  // instances and validity sets of changing members. Example:
  //   Organization  (varying, ordered parameter, 12 moments)
  //     FTE
  //       Joe  {FTE/Joe @ {0}, PTE/Joe @ {1}, ...}
  //       Lisa
  //     PTE (-)
  std::string OutlineString() const;

  // --- Varying-dimension support -----------------------------------------

  // Declares this dimension varying over a parameter dimension with
  // `parameter_leaf_count` leaf members ("moments"). `ordered` mirrors the
  // paper's ordered/unordered parameter dimensions (Time vs. Location).
  // Every existing leaf member receives one instance valid at all moments.
  Status MakeVarying(int parameter_leaf_count, bool ordered);

  bool is_varying() const { return parameter_leaf_count_ > 0; }
  bool parameter_is_ordered() const { return ordered_parameter_; }
  int parameter_leaf_count() const { return parameter_leaf_count_; }

  // A *legal structural change* (Definition 3.1): from `moment` onwards,
  // leaf `m` is a child of `new_parent`. Moments >= `moment` currently
  // assigned to other instances of `m` move to the (possibly new) instance
  // under `new_parent`; an existing instance with the same path is reused.
  // Requires an ordered parameter dimension.
  Status ApplyChange(MemberId m, MemberId new_parent, int moment);

  // Unordered-parameter variant: reassigns exactly `moments` to the
  // instance of `m` under `new_parent`.
  Status ApplyChangeAt(MemberId m, MemberId new_parent,
                       const DynamicBitset& moments);

  // Removes `moments` from every instance of `m`: the member has no valid
  // instance there at all (e.g. the paper's Joe, absent in May). Cube cells
  // for those combinations are meaningless (⊥).
  Status Deactivate(MemberId m, const DynamicBitset& moments);

  int num_instances() const { return static_cast<int>(instances_.size()); }
  const MemberInstance& instance(InstanceId id) const { return instances_[id]; }
  const std::vector<MemberInstance>& instances() const { return instances_; }

  // Instances of leaf `m`, in creation order. This, ForEachInstanceOf and
  // the two lookups below walk `m`'s own instance chain: O(instances of m),
  // not O(num_instances()).
  std::vector<InstanceId> InstancesOf(MemberId m) const;

  // Calls fn(id) for each instance of `m`, in creation order, without
  // building a vector.
  template <typename Fn>
  void ForEachInstanceOf(MemberId m, Fn&& fn) const {
    if (m < 0 || m >= num_members()) return;
    for (InstanceId i = chain_[m].first; i != kInvalidInstance;
         i = next_instance_[i]) {
      fn(i);
    }
  }

  // The unique instance d_t of `m` valid at `moment`, or kInvalidInstance.
  InstanceId InstanceValidAt(MemberId m, int moment) const;

  // Finds the instance of `m` whose path parent is `parent`.
  InstanceId FindInstance(MemberId m, MemberId parent) const;

  // Leaf members with more than one instance ("changing"/varying members).
  std::vector<MemberId> ChangingMembers() const;

  // Overrides an instance's validity set (used by the whatif Relocate /
  // Split operators when materialising an output cube's metadata).
  void SetInstanceValidity(InstanceId id, DynamicBitset validity);

  // Adds a bare instance of `m` under `parent` with the given validity,
  // without disturbing other instances (used by Split). The caller is
  // responsible for keeping validity sets disjoint.
  Result<InstanceId> AddInstance(MemberId m, MemberId parent,
                                 DynamicBitset validity);

  // Deserialization support: marks the dimension varying and installs an
  // explicit instance table (ids are assigned by position; qualified names
  // are recomputed). The dimension must not already be varying; members
  // and parents must exist and validity universes must match.
  Status RestoreVarying(int parameter_leaf_count, bool ordered,
                        std::vector<MemberInstance> instances);

  // --- Axis positions -------------------------------------------------------
  //
  // A cube stores leaf cells over *positions*: for a varying dimension the
  // positions are its member instances (one row per instance, as in the
  // paper's Fig. 2), for any other dimension they are its leaf members.

  int num_positions() const {
    return is_varying() ? num_instances() : num_leaves();
  }
  // The leaf member occupying a position.
  MemberId PositionMember(int pos) const {
    return is_varying() ? instances_[pos].member : Leaves()[pos];
  }
  // The instance occupying a position (kInvalidInstance if not varying).
  InstanceId PositionInstance(int pos) const {
    return is_varying() ? pos : kInvalidInstance;
  }
  // Display label of a position ("PTE/Joe" or "Jan").
  std::string PositionLabel(int pos) const;

 private:
  // First and last instance of one member's chain (kInvalidInstance when
  // the member has none).
  struct InstanceChain {
    InstanceId first = kInvalidInstance;
    InstanceId last = kInvalidInstance;
  };

  MemberId AddMemberInternal(std::string name, MemberId parent, double weight);
  // Appends an instance of `m` under `parent` to instances_ and to m's
  // chain; returns its id.
  InstanceId PushInstance(MemberId m, MemberId parent, DynamicBitset validity);
  void InvalidateLeafCache();
  std::string QualifiedName(MemberId m, MemberId parent) const;

  std::string name_;
  DimensionKind kind_;
  std::vector<Member> members_;
  std::unordered_map<std::string, MemberId> by_lower_name_;
  std::vector<std::string> level_names_;  // Indexed by level; may be short.

  int parameter_leaf_count_ = 0;  // 0 => not varying.
  bool ordered_parameter_ = false;
  std::vector<MemberInstance> instances_;
  // Per-member instance index: chain_[m] holds m's first and last instance,
  // next_instance_[i] the instance of the same member created after i.
  // Every mutator keeps it current (never rebuilt lazily: pool threads read
  // dimensions concurrently), and a copy costs two flat vectors, not one
  // allocation per member.
  std::vector<InstanceChain> chain_;         // Indexed by MemberId.
  std::vector<InstanceId> next_instance_;    // Indexed by InstanceId.

  mutable bool leaf_cache_valid_ = false;
  mutable std::vector<MemberId> leaf_cache_;
  mutable std::vector<int> leaf_ordinal_;  // MemberId -> ordinal or -1.
};

}  // namespace olap

#endif  // OLAP_DIMENSION_DIMENSION_H_
