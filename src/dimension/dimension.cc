#include "dimension/dimension.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "common/value.h"

namespace olap {

Dimension::Dimension(std::string name, DimensionKind kind)
    : name_(std::move(name)), kind_(kind) {
  // The root member carries the dimension's own name (Essbase convention).
  AddMemberInternal(name_, kInvalidMember, 1.0);
}

MemberId Dimension::AddMemberInternal(std::string name, MemberId parent,
                                      double weight) {
  Member m;
  m.id = static_cast<MemberId>(members_.size());
  m.name = std::move(name);
  m.parent = parent;
  m.level = parent == kInvalidMember ? 0 : members_[parent].level + 1;
  m.weight = weight;
  by_lower_name_[ToLower(m.name)] = m.id;
  if (parent != kInvalidMember) members_[parent].children.push_back(m.id);
  members_.push_back(std::move(m));
  chain_.emplace_back();
  InvalidateLeafCache();
  return members_.back().id;
}

InstanceId Dimension::PushInstance(MemberId m, MemberId parent,
                                   DynamicBitset validity) {
  const InstanceId id = static_cast<InstanceId>(instances_.size());
  MemberInstance inst;
  inst.id = id;
  inst.member = m;
  inst.parent = parent;
  inst.validity = std::move(validity);
  inst.qualified_name = QualifiedName(m, parent);
  instances_.push_back(std::move(inst));
  next_instance_.push_back(kInvalidInstance);
  InstanceChain& chain = chain_[m];
  if (chain.last == kInvalidInstance) {
    chain.first = id;
  } else {
    next_instance_[chain.last] = id;
  }
  chain.last = id;
  return id;
}

Result<MemberId> Dimension::AddMember(std::string name, MemberId parent,
                                      double weight) {
  if (parent < 0 || parent >= num_members()) {
    return Status::InvalidArgument("bad parent id for member '" + name + "'");
  }
  if (by_lower_name_.count(ToLower(name)) > 0) {
    return Status::AlreadyExists("member '" + name + "' already exists in dimension '" +
                                 name_ + "'");
  }
  // Adding a child to a leaf that already holds data positions would shift
  // the position meaning of a varying dimension; we allow it at metadata
  // build time (before any instance of `parent` exists as a leaf-instance).
  if (is_varying() && chain_[parent].first != kInvalidInstance) {
    return Status::FailedPrecondition(
        "cannot turn instanced leaf '" + members_[parent].name +
        "' into an inner member of varying dimension '" + name_ + "'");
  }
  MemberId id = AddMemberInternal(std::move(name), parent, weight);
  // In a varying dimension every new leaf starts with a single instance that
  // is valid at every moment (the paper's initial, unchanged structure).
  if (is_varying()) {
    DynamicBitset everywhere(parameter_leaf_count_);
    everywhere.SetAll();
    PushInstance(id, parent, std::move(everywhere));
  }
  return id;
}

Result<MemberId> Dimension::AddChildOfRoot(std::string name, double weight) {
  return AddMember(std::move(name), root(), weight);
}

Result<MemberId> Dimension::AddInnerMember(std::string name, MemberId parent,
                                           double weight) {
  if (parent < 0 || parent >= num_members()) {
    return Status::InvalidArgument("bad parent id for member '" + name + "'");
  }
  if (by_lower_name_.count(ToLower(name)) > 0) {
    return Status::AlreadyExists("member '" + name + "' already exists in dimension '" +
                                 name_ + "'");
  }
  if (is_varying() && chain_[parent].first != kInvalidInstance) {
    return Status::FailedPrecondition(
        "cannot turn instanced leaf '" + members_[parent].name +
        "' into an inner member of varying dimension '" + name_ + "'");
  }
  return AddMemberInternal(std::move(name), parent, weight);
}

double Dimension::PathWeight(MemberId m, MemberId ancestor) const {
  double weight = 1.0;
  for (MemberId cur = m; cur != ancestor && cur != kInvalidMember;
       cur = members_[cur].parent) {
    weight *= members_[cur].weight;
  }
  return weight;
}

Result<MemberId> Dimension::FindMember(std::string_view name) const {
  auto it = by_lower_name_.find(ToLower(name));
  if (it == by_lower_name_.end()) {
    return Status::NotFound("no member '" + std::string(name) + "' in dimension '" +
                            name_ + "'");
  }
  return it->second;
}

bool Dimension::IsDescendantOrSelf(MemberId m, MemberId ancestor) const {
  for (MemberId cur = m; cur != kInvalidMember; cur = members_[cur].parent) {
    if (cur == ancestor) return true;
  }
  return false;
}

std::vector<MemberId> Dimension::LeavesUnder(MemberId m) const {
  std::vector<MemberId> out;
  std::vector<MemberId> stack = {m};
  while (!stack.empty()) {
    MemberId cur = stack.back();
    stack.pop_back();
    const Member& mem = members_[cur];
    if (mem.is_leaf()) {
      out.push_back(cur);
    } else {
      // Push children reversed so DFS emits them in insertion order.
      for (auto it = mem.children.rbegin(); it != mem.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  return out;
}

std::vector<MemberId> Dimension::MembersAtLevel(int level) const {
  std::vector<MemberId> out;
  std::vector<MemberId> stack = {root()};
  while (!stack.empty()) {
    MemberId cur = stack.back();
    stack.pop_back();
    const Member& mem = members_[cur];
    if (mem.level == level) out.push_back(cur);
    for (auto it = mem.children.rbegin(); it != mem.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

int Dimension::max_level() const {
  int mx = 0;
  for (const Member& m : members_) mx = std::max(mx, m.level);
  return mx;
}

std::vector<MemberId> Dimension::MembersAtDepthFromLeaf(int depth_from_leaf) const {
  // MDX Levels(0) = leaf level. We interpret "depth from leaf" against the
  // deepest level of the hierarchy, matching ragged hierarchies loosely:
  // a member qualifies when max_level() - member.level == depth_from_leaf,
  // or when depth_from_leaf == 0 and the member is a leaf.
  std::vector<MemberId> out;
  int deepest = max_level();
  std::vector<MemberId> stack = {root()};
  while (!stack.empty()) {
    MemberId cur = stack.back();
    stack.pop_back();
    const Member& mem = members_[cur];
    bool match = depth_from_leaf == 0 ? mem.is_leaf()
                                      : (deepest - mem.level) == depth_from_leaf;
    if (match) out.push_back(cur);
    for (auto it = mem.children.rbegin(); it != mem.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

void Dimension::SetLevelName(int level, std::string name) {
  assert(level >= 0);
  if (static_cast<int>(level_names_.size()) <= level) {
    level_names_.resize(level + 1);
  }
  level_names_[level] = std::move(name);
}

int Dimension::FindLevelByName(std::string_view name) const {
  for (size_t i = 0; i < level_names_.size(); ++i) {
    if (EqualsIgnoreCase(level_names_[i], name)) return static_cast<int>(i);
  }
  return -1;
}

const std::vector<MemberId>& Dimension::Leaves() const {
  if (!leaf_cache_valid_) {
    leaf_cache_ = LeavesUnder(root());
    leaf_ordinal_.assign(members_.size(), -1);
    for (size_t i = 0; i < leaf_cache_.size(); ++i) {
      leaf_ordinal_[leaf_cache_[i]] = static_cast<int>(i);
    }
    leaf_cache_valid_ = true;
  }
  return leaf_cache_;
}

int Dimension::LeafOrdinal(MemberId m) const {
  Leaves();  // Ensure cache.
  return leaf_ordinal_[m];
}

std::string Dimension::PathName(MemberId m, bool include_root) const {
  std::vector<std::string> parts;
  for (MemberId cur = m; cur != kInvalidMember; cur = members_[cur].parent) {
    if (cur == root() && !include_root) break;
    parts.push_back(members_[cur].name);
  }
  std::reverse(parts.begin(), parts.end());
  return Join(parts, "/");
}

std::string Dimension::OutlineString() const {
  std::string out = name_;
  if (is_varying()) {
    out += "  (varying, ";
    out += ordered_parameter_ ? "ordered" : "unordered";
    out += " parameter, " + std::to_string(parameter_leaf_count_) + " moments)";
  }
  out += "\n";
  // Preorder walk, skipping the root (already printed as the header).
  std::vector<MemberId> stack;
  const Member& root_member = members_[root()];
  for (auto it = root_member.children.rbegin(); it != root_member.children.rend();
       ++it) {
    stack.push_back(*it);
  }
  while (!stack.empty()) {
    MemberId cur = stack.back();
    stack.pop_back();
    const Member& m = members_[cur];
    out.append(static_cast<size_t>(m.level) * 2, ' ');
    out += m.name;
    if (m.weight == -1.0) {
      out += " (-)";
    } else if (m.weight == 0.0) {
      out += " (~)";
    } else if (m.weight != 1.0) {
      out += " (*" + CellValue(m.weight).ToString() + ")";
    }
    if (is_varying() && m.is_leaf()) {
      std::vector<InstanceId> insts = InstancesOf(cur);
      if (insts.size() > 1) {
        out += "  {";
        for (size_t i = 0; i < insts.size(); ++i) {
          if (i) out += ", ";
          out += instances_[insts[i]].qualified_name + " @ " +
                 instances_[insts[i]].validity.ToString();
        }
        out += "}";
      }
    }
    out += "\n";
    for (auto it = m.children.rbegin(); it != m.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

Status Dimension::MakeVarying(int parameter_leaf_count, bool ordered) {
  if (is_varying()) {
    return Status::FailedPrecondition("dimension '" + name_ + "' is already varying");
  }
  if (parameter_leaf_count <= 0) {
    return Status::InvalidArgument("parameter_leaf_count must be positive");
  }
  parameter_leaf_count_ = parameter_leaf_count;
  ordered_parameter_ = ordered;
  // Existing leaves each get a single everywhere-valid instance.
  DynamicBitset everywhere(parameter_leaf_count_);
  everywhere.SetAll();
  for (MemberId leaf : Leaves()) {
    PushInstance(leaf, members_[leaf].parent, everywhere);
  }
  return Status::Ok();
}

Status Dimension::ApplyChange(MemberId m, MemberId new_parent, int moment) {
  if (!is_varying()) {
    return Status::FailedPrecondition("dimension '" + name_ + "' is not varying");
  }
  if (!ordered_parameter_) {
    return Status::FailedPrecondition(
        "ApplyChange requires an ordered parameter dimension; use ApplyChangeAt");
  }
  if (moment < 0 || moment >= parameter_leaf_count_) {
    return Status::OutOfRange("moment out of range");
  }
  DynamicBitset suffix(parameter_leaf_count_);
  for (int t = moment; t < parameter_leaf_count_; ++t) suffix.Set(t);
  return ApplyChangeAt(m, new_parent, suffix);
}

Status Dimension::ApplyChangeAt(MemberId m, MemberId new_parent,
                                const DynamicBitset& moments) {
  if (!is_varying()) {
    return Status::FailedPrecondition("dimension '" + name_ + "' is not varying");
  }
  if (m < 0 || m >= num_members() || !members_[m].is_leaf()) {
    return Status::InvalidArgument("change target must be an existing leaf member");
  }
  if (new_parent < 0 || new_parent >= num_members() || members_[new_parent].is_leaf()) {
    return Status::InvalidArgument("new parent must be an existing non-leaf member");
  }
  if (moments.size() != parameter_leaf_count_) {
    return Status::InvalidArgument("moment set has wrong universe size");
  }

  // Remove the reassigned moments from every instance of m...
  ForEachInstanceOf(
      m, [&](InstanceId i) { instances_[i].validity.Subtract(moments); });
  // ...and give them to the instance under new_parent. An instance with the
  // identical root-to-leaf path is reused (Sec. 3.1: "the root-to-leaf path
  // of this new instance of d is identical to that of d1, so it is treated
  // as d1").
  InstanceId target = FindInstance(m, new_parent);
  if (target == kInvalidInstance) {
    target = PushInstance(m, new_parent, DynamicBitset(parameter_leaf_count_));
  }
  instances_[target].validity |= moments;
  return Status::Ok();
}

Status Dimension::Deactivate(MemberId m, const DynamicBitset& moments) {
  if (!is_varying()) {
    return Status::FailedPrecondition("dimension '" + name_ + "' is not varying");
  }
  if (moments.size() != parameter_leaf_count_) {
    return Status::InvalidArgument("moment set has wrong universe size");
  }
  ForEachInstanceOf(
      m, [&](InstanceId i) { instances_[i].validity.Subtract(moments); });
  return Status::Ok();
}

std::vector<InstanceId> Dimension::InstancesOf(MemberId m) const {
  std::vector<InstanceId> out;
  ForEachInstanceOf(m, [&out](InstanceId i) { out.push_back(i); });
  return out;
}

InstanceId Dimension::InstanceValidAt(MemberId m, int moment) const {
  if (m < 0 || m >= num_members()) return kInvalidInstance;
  for (InstanceId i = chain_[m].first; i != kInvalidInstance;
       i = next_instance_[i]) {
    if (instances_[i].validity.Test(moment)) return i;
  }
  return kInvalidInstance;
}

InstanceId Dimension::FindInstance(MemberId m, MemberId parent) const {
  if (m < 0 || m >= num_members()) return kInvalidInstance;
  for (InstanceId i = chain_[m].first; i != kInvalidInstance;
       i = next_instance_[i]) {
    if (instances_[i].parent == parent) return i;
  }
  return kInvalidInstance;
}

std::vector<MemberId> Dimension::ChangingMembers() const {
  std::vector<MemberId> out;
  for (MemberId id = 0; id < num_members(); ++id) {
    if (chain_[id].first != chain_[id].last) out.push_back(id);
  }
  return out;
}

void Dimension::SetInstanceValidity(InstanceId id, DynamicBitset validity) {
  assert(id >= 0 && id < num_instances());
  assert(validity.size() == parameter_leaf_count_);
  instances_[id].validity = std::move(validity);
}

Result<InstanceId> Dimension::AddInstance(MemberId m, MemberId parent,
                                          DynamicBitset validity) {
  if (!is_varying()) {
    return Status::FailedPrecondition("dimension '" + name_ + "' is not varying");
  }
  if (m < 0 || m >= num_members() || !members_[m].is_leaf()) {
    return Status::InvalidArgument("instance member must be an existing leaf");
  }
  if (FindInstance(m, parent) != kInvalidInstance) {
    return Status::AlreadyExists("instance with this path already exists");
  }
  return PushInstance(m, parent, std::move(validity));
}

Status Dimension::RestoreVarying(int parameter_leaf_count, bool ordered,
                                 std::vector<MemberInstance> instances) {
  if (is_varying()) {
    return Status::FailedPrecondition("dimension '" + name_ + "' is already varying");
  }
  if (parameter_leaf_count <= 0) {
    return Status::InvalidArgument("parameter_leaf_count must be positive");
  }
  for (const MemberInstance& inst : instances) {
    if (inst.member < 0 || inst.member >= num_members() ||
        !members_[inst.member].is_leaf()) {
      return Status::InvalidArgument("restored instance member is not a leaf");
    }
    if (inst.parent < 0 || inst.parent >= num_members()) {
      return Status::InvalidArgument("restored instance parent out of range");
    }
    if (inst.validity.size() != parameter_leaf_count) {
      return Status::InvalidArgument("restored validity set has wrong universe");
    }
  }
  parameter_leaf_count_ = parameter_leaf_count;
  ordered_parameter_ = ordered;
  // Not varying, so instances_ and every chain are still empty: ids are
  // re-assigned by position as each instance is pushed.
  instances_.reserve(instances.size());
  next_instance_.reserve(instances.size());
  for (MemberInstance& inst : instances) {
    PushInstance(inst.member, inst.parent, std::move(inst.validity));
  }
  return Status::Ok();
}

std::string Dimension::PositionLabel(int pos) const {
  if (is_varying()) return instances_[pos].qualified_name;
  return members_[Leaves()[pos]].name;
}

std::string Dimension::QualifiedName(MemberId m, MemberId parent) const {
  if (parent == kInvalidMember || parent == root()) return members_[m].name;
  return PathName(parent) + "/" + members_[m].name;
}

void Dimension::InvalidateLeafCache() { leaf_cache_valid_ = false; }

}  // namespace olap
