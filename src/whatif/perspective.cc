#include "whatif/perspective.h"

#include <algorithm>
#include <cassert>

namespace olap {

const char* SemanticsName(Semantics s) {
  switch (s) {
    case Semantics::kStatic:
      return "STATIC";
    case Semantics::kForward:
      return "DYNAMIC FORWARD";
    case Semantics::kExtendedForward:
      return "EXTENDED FORWARD";
    case Semantics::kBackward:
      return "DYNAMIC BACKWARD";
    case Semantics::kExtendedBackward:
      return "EXTENDED BACKWARD";
  }
  return "?";
}

const char* EvalModeName(EvalMode m) {
  return m == EvalMode::kVisual ? "VISUAL" : "NON-VISUAL";
}

Perspectives::Perspectives(std::vector<int> moments) : moments_(std::move(moments)) {
  std::sort(moments_.begin(), moments_.end());
  moments_.erase(std::unique(moments_.begin(), moments_.end()), moments_.end());
}

int Perspectives::GoverningPerspective(int t) const {
  // Last moment <= t.
  auto it = std::upper_bound(moments_.begin(), moments_.end(), t);
  if (it == moments_.begin()) return -1;
  return *(it - 1);
}

int Perspectives::RangeEnd(int perspective_index, int universe) const {
  assert(perspective_index >= 0 && perspective_index < size());
  if (perspective_index + 1 < size()) return moments_[perspective_index + 1];
  return universe;
}

std::string Perspectives::ToString() const {
  std::string out = "{";
  for (int i = 0; i < size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(moments_[i]);
  }
  out += "}";
  return out;
}

DynamicBitset Stretch(const DynamicBitset& vs_in, const Perspectives& p) {
  DynamicBitset out(vs_in.size());
  if (p.empty()) return out;
  for (int t = p.min(); t < vs_in.size(); ++t) {
    int governing = p.GoverningPerspective(t);
    if (governing >= 0 && vs_in.Test(governing)) out.Set(t);
  }
  return out;
}

namespace {

DynamicBitset Mirror(const DynamicBitset& s) {
  DynamicBitset out(s.size());
  for (int i = 0; i < s.size(); ++i) {
    if (s.Test(i)) out.Set(s.size() - 1 - i);
  }
  return out;
}

Perspectives MirrorPerspectives(const Perspectives& p, int universe) {
  std::vector<int> moments;
  moments.reserve(p.size());
  for (int m : p.moments()) moments.push_back(universe - 1 - m);
  return Perspectives(std::move(moments));
}

DynamicBitset PhiForward(const DynamicBitset& vs_in, const Perspectives& p,
                         bool extended) {
  DynamicBitset stretch = Stretch(vs_in, p);
  DynamicBitset out(vs_in.size());
  if (stretch.None()) return out;  // d does not appear in the output.
  out = stretch;
  if (extended) {
    // All points preceding Pmin belong to the instance valid at Pmin.
    if (vs_in.Test(p.min())) {
      for (int t = 0; t < p.min(); ++t) out.Set(t);
    }
  } else {
    // Points preceding Pmin keep their original assignment.
    for (int t = 0; t < p.min() && t < vs_in.size(); ++t) {
      if (vs_in.Test(t)) out.Set(t);
    }
  }
  return out;
}

}  // namespace

DynamicBitset Phi(const DynamicBitset& vs_in, const Perspectives& p,
                  Semantics semantics) {
  assert(!p.empty());
  switch (semantics) {
    case Semantics::kStatic: {
      DynamicBitset pset =
          DynamicBitset::FromVector(vs_in.size(), p.moments());
      if (vs_in.DisjointWith(pset)) return DynamicBitset(vs_in.size());
      return vs_in;  // Identity on surviving instances (Definition 4.2).
    }
    case Semantics::kForward:
      return PhiForward(vs_in, p, /*extended=*/false);
    case Semantics::kExtendedForward:
      return PhiForward(vs_in, p, /*extended=*/true);
    case Semantics::kBackward:
      return Mirror(PhiForward(Mirror(vs_in),
                               MirrorPerspectives(p, vs_in.size()),
                               /*extended=*/false));
    case Semantics::kExtendedBackward:
      return Mirror(PhiForward(Mirror(vs_in),
                               MirrorPerspectives(p, vs_in.size()),
                               /*extended=*/true));
  }
  return DynamicBitset(vs_in.size());
}

std::vector<DynamicBitset> TransformValiditySets(
    const Dimension& dim, const Perspectives& p, Semantics semantics,
    const std::vector<MemberId>& members) {
  const int universe = dim.parameter_leaf_count();
  std::vector<DynamicBitset> out(dim.num_instances());
  // Per-member activity: the union of the member's input validity sets.
  // Definitions 3.3/3.4 exclude from VSout "those moments t for which no
  // instance d_t exists in Cin" (e.g. the paper's Joe in May), so the pure
  // Φ result is masked by it.
  auto transform = [&](MemberId m) {
    DynamicBitset activity(universe);
    dim.ForEachInstanceOf(
        m, [&](InstanceId i) { activity |= dim.instance(i).validity; });
    dim.ForEachInstanceOf(m, [&](InstanceId i) {
      out[i] = Phi(dim.instance(i).validity, p, semantics);
      out[i] &= activity;
    });
  };
  if (members.empty()) {
    for (MemberId m = 0; m < dim.num_members(); ++m) transform(m);
  } else {
    for (MemberId m : members) transform(m);
  }
  return out;
}

}  // namespace olap
