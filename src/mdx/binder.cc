#include "mdx/binder.h"

#include <algorithm>

#include "agg/batch_eval.h"
#include "common/strings.h"
#include "rules/evaluator.h"
#include "whatif/operators.h"

namespace olap::mdx {

namespace {

using MemberList = std::vector<std::pair<int, MemberId>>;

// Finds a member by name across all dimensions; errors when ambiguous.
Result<std::pair<int, MemberId>> FindGlobal(const Schema& schema,
                                            std::string_view name) {
  std::pair<int, MemberId> found{-1, kInvalidMember};
  for (int d = 0; d < schema.num_dimensions(); ++d) {
    Result<MemberId> m = schema.dimension(d).FindMember(name);
    if (m.ok()) {
      if (found.first >= 0) {
        return Status::InvalidArgument("member name '" + std::string(name) +
                                       "' is ambiguous across dimensions");
      }
      found = {d, *m};
    }
  }
  if (found.first < 0) {
    return Status::NotFound("no member named '" + std::string(name) + "'");
  }
  return found;
}

class Binder {
 public:
  Binder(const Schema& schema, const NameResolver* resolver, const Cube* data,
         const RuleSet* rules)
      : schema_(schema), resolver_(resolver), data_(data), rules_(rules) {}

  Result<std::vector<BoundTuple>> BindSet(const SetExpr& expr) {
    switch (expr.kind) {
      case SetExpr::Kind::kMemberPath:
        return BindMemberPath(expr.path);
      case SetExpr::Kind::kChildren:
        return BindChildren(expr.path);
      case SetExpr::Kind::kMembers:
        return BindMembers(expr.path);
      case SetExpr::Kind::kLevelsMembers:
        return BindLevelsMembers(expr.path, expr.number);
      case SetExpr::Kind::kDescendants:
        return BindDescendants(expr.path, expr.number, expr.flag);
      case SetExpr::Kind::kCrossJoin:
        return BindCrossJoin(*expr.args[0], *expr.args[1]);
      case SetExpr::Kind::kUnion:
        return BindUnion(*expr.args[0], *expr.args[1]);
      case SetExpr::Kind::kExcept:
      case SetExpr::Kind::kIntersect:
        return BindExceptIntersect(expr.kind, *expr.args[0], *expr.args[1]);
      case SetExpr::Kind::kHead: {
        Result<std::vector<BoundTuple>> inner = BindSet(*expr.args[0]);
        if (!inner.ok()) return inner.status();
        if (static_cast<int>(inner->size()) > expr.number) {
          inner->resize(expr.number);
        }
        return inner;
      }
      case SetExpr::Kind::kTail: {
        Result<std::vector<BoundTuple>> inner = BindSet(*expr.args[0]);
        if (!inner.ok()) return inner.status();
        if (static_cast<int>(inner->size()) > expr.number) {
          inner->erase(inner->begin(),
                       inner->end() - expr.number);
        }
        return inner;
      }
      case SetExpr::Kind::kFilter:
        return BindFilter(expr);
      case SetExpr::Kind::kOrder:
      case SetExpr::Kind::kTopCount:
      case SetExpr::Kind::kBottomCount:
        return BindOrdered(expr);
      case SetExpr::Kind::kBraces: {
        std::vector<BoundTuple> out;
        for (const auto& arg : expr.args) {
          Result<std::vector<BoundTuple>> sub = BindSet(*arg);
          if (!sub.ok()) return sub.status();
          out.insert(out.end(), sub->begin(), sub->end());
        }
        return out;
      }
      case SetExpr::Kind::kTuple:
        return BindTupleExpr(expr);
    }
    return Status::Internal("unhandled SetExpr kind");
  }

  // Resolves a path to a single (dim, ref). Used for member paths and the
  // targets of Children/Descendants.
  Result<std::pair<int, AxisRef>> ResolvePathRef(
      const std::vector<std::string>& path) {
    if (path.empty()) return Status::InvalidArgument("empty member path");
    // Leading dimension name?
    Result<int> dim = schema_.FindDimension(path[0]);
    if (dim.ok()) {
      if (path.size() == 1) {
        return std::pair<int, AxisRef>{
            *dim, AxisRef::OfMember(schema_.dimension(*dim).root())};
      }
      return ResolveWithinDimension(*dim,
                                    {path.begin() + 1, path.end()});
    }
    // Global member search on the first component, then descend.
    Result<std::pair<int, MemberId>> head = FindGlobal(schema_, path[0]);
    if (!head.ok()) return head.status();
    if (path.size() == 1) {
      return MakeRef(head->first, {path[0]});
    }
    return ResolveWithinDimension(head->first, path);
  }

 private:
  // Resolves member components within dimension `dim`, validating the
  // ancestor chain; pins an instance when the path names Parent/Leaf of a
  // varying dimension (e.g. Organization.[FTE].[Joe], Sec. 3.2).
  Result<std::pair<int, AxisRef>> ResolveWithinDimension(
      int dim, const std::vector<std::string>& comps) {
    return MakeRef(dim, comps);
  }

  Result<std::pair<int, AxisRef>> MakeRef(int dim,
                                          const std::vector<std::string>& comps) {
    const Dimension& d = schema_.dimension(dim);
    MemberId prev = kInvalidMember;
    MemberId cur = kInvalidMember;
    for (const std::string& comp : comps) {
      Result<MemberId> m = d.FindMember(comp);
      if (!m.ok()) return m.status();
      cur = *m;
      if (prev != kInvalidMember && !d.IsDescendantOrSelf(cur, prev)) {
        // Not an ancestor chain — for varying dimensions this may still be
        // a valid *instance* path (FTE/Joe where Joe's tree parent moved).
        if (!d.is_varying() || !d.member(cur).is_leaf() ||
            d.FindInstance(cur, prev) == kInvalidInstance) {
          return Status::InvalidArgument("'" + comp + "' is not a descendant of '" +
                                         d.member(prev).name + "'");
        }
      }
      prev = cur;
    }
    if (d.is_varying() && comps.size() >= 2 && d.member(cur).is_leaf()) {
      Result<MemberId> parent = d.FindMember(comps[comps.size() - 2]);
      if (parent.ok()) {
        InstanceId inst = d.FindInstance(cur, *parent);
        if (inst != kInvalidInstance) {
          return std::pair<int, AxisRef>{dim, AxisRef::OfInstance(cur, inst)};
        }
      }
    }
    return std::pair<int, AxisRef>{dim, AxisRef::OfMember(cur)};
  }

  std::optional<MemberList> LookupNamedSet(const std::vector<std::string>& path) {
    if (resolver_ == nullptr || path.size() != 1) return std::nullopt;
    return resolver_->FindNamedSet(path[0]);
  }

  Result<std::vector<BoundTuple>> BindMemberPath(
      const std::vector<std::string>& path) {
    if (std::optional<MemberList> set = LookupNamedSet(path)) {
      std::vector<BoundTuple> out;
      for (const auto& [dim, member] : *set) {
        out.push_back(BoundTuple{{{dim, AxisRef::OfMember(member)}}});
      }
      return out;
    }
    Result<std::pair<int, AxisRef>> ref = ResolvePathRef(path);
    if (!ref.ok()) return ref.status();
    return std::vector<BoundTuple>{BoundTuple{{*ref}}};
  }

  Result<std::vector<BoundTuple>> BindChildren(
      const std::vector<std::string>& path) {
    // Children of a named set = its elements (Fig. 10's
    // [EmployeesWithAtleastOneMove-Set1].Children).
    if (std::optional<MemberList> set = LookupNamedSet(path)) {
      std::vector<BoundTuple> out;
      for (const auto& [dim, member] : *set) {
        out.push_back(BoundTuple{{{dim, AxisRef::OfMember(member)}}});
      }
      return out;
    }
    Result<std::pair<int, AxisRef>> ref = ResolvePathRef(path);
    if (!ref.ok()) return ref.status();
    const auto [dim, axis_ref] = *ref;
    const Dimension& d = schema_.dimension(dim);
    std::vector<BoundTuple> out;
    for (MemberId child : d.member(axis_ref.member).children) {
      out.push_back(BoundTuple{{{dim, AxisRef::OfMember(child)}}});
    }
    return out;
  }

  Result<std::vector<BoundTuple>> BindMembers(
      const std::vector<std::string>& path) {
    // Forms: <Dim>.Members, <Dim>.<LevelName>...<LevelName>.Members.
    Result<int> dim = schema_.FindDimension(path[0]);
    if (dim.ok()) {
      const Dimension& d = schema_.dimension(*dim);
      if (path.size() == 1) {
        // Every member except the root.
        std::vector<BoundTuple> out;
        for (MemberId m = 1; m < d.num_members(); ++m) {
          out.push_back(BoundTuple{{{*dim, AxisRef::OfMember(m)}}});
        }
        return out;
      }
      int level = d.FindLevelByName(path.back());
      if (level < 0) {
        return Status::NotFound("dimension '" + d.name() + "' has no level named '" +
                                path.back() + "'");
      }
      std::vector<BoundTuple> out;
      for (MemberId m : d.MembersAtLevel(level)) {
        out.push_back(BoundTuple{{{*dim, AxisRef::OfMember(m)}}});
      }
      return out;
    }
    // <Member>.Members: the member's leaf descendants.
    Result<std::pair<int, AxisRef>> ref = ResolvePathRef(path);
    if (!ref.ok()) return ref.status();
    const auto [dim2, axis_ref] = *ref;
    const Dimension& d = schema_.dimension(dim2);
    std::vector<BoundTuple> out;
    for (MemberId m : d.LeavesUnder(axis_ref.member)) {
      out.push_back(BoundTuple{{{dim2, AxisRef::OfMember(m)}}});
    }
    return out;
  }

  Result<std::vector<BoundTuple>> BindLevelsMembers(
      const std::vector<std::string>& path, int depth_from_leaf) {
    Result<int> dim = schema_.FindDimension(path[0]);
    if (!dim.ok()) return dim.status();
    const Dimension& d = schema_.dimension(*dim);
    std::vector<BoundTuple> out;
    for (MemberId m : d.MembersAtDepthFromLeaf(depth_from_leaf)) {
      out.push_back(BoundTuple{{{*dim, AxisRef::OfMember(m)}}});
    }
    return out;
  }

  Result<std::vector<BoundTuple>> BindDescendants(
      const std::vector<std::string>& path, int depth, const std::string& flag) {
    Result<std::pair<int, AxisRef>> ref = ResolvePathRef(path);
    if (!ref.ok()) return ref.status();
    const auto [dim, axis_ref] = *ref;
    const Dimension& d = schema_.dimension(dim);
    const int base_level = d.member(axis_ref.member).level;

    bool self_and_after = flag == "self_and_after";
    bool leaves_only = flag == "leaves";
    std::vector<BoundTuple> out;
    std::vector<MemberId> stack = {axis_ref.member};
    while (!stack.empty()) {
      MemberId cur = stack.back();
      stack.pop_back();
      const Member& m = d.member(cur);
      int rel = m.level - base_level;
      bool include = leaves_only ? m.is_leaf()
                     : self_and_after ? rel >= depth
                                      : rel == depth;
      if (include) out.push_back(BoundTuple{{{dim, AxisRef::OfMember(cur)}}});
      for (auto it = m.children.rbegin(); it != m.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
    return out;
  }

  Result<std::vector<BoundTuple>> BindCrossJoin(const SetExpr& a,
                                                const SetExpr& b) {
    Result<std::vector<BoundTuple>> left = BindSet(a);
    if (!left.ok()) return left.status();
    Result<std::vector<BoundTuple>> right = BindSet(b);
    if (!right.ok()) return right.status();
    std::vector<BoundTuple> out;
    out.reserve(left->size() * right->size());
    for (const BoundTuple& lt : *left) {
      for (const BoundTuple& rt : *right) {
        BoundTuple combined = lt;
        for (const auto& ref : rt.refs) {
          for (const auto& existing : combined.refs) {
            if (existing.first == ref.first) {
              return Status::InvalidArgument(
                  "CrossJoin operands share dimension '" +
                  schema_.dimension(ref.first).name() + "'");
            }
          }
          combined.refs.push_back(ref);
        }
        out.push_back(std::move(combined));
      }
    }
    return out;
  }

  Result<std::vector<BoundTuple>> BindUnion(const SetExpr& a, const SetExpr& b) {
    Result<std::vector<BoundTuple>> left = BindSet(a);
    if (!left.ok()) return left.status();
    Result<std::vector<BoundTuple>> right = BindSet(b);
    if (!right.ok()) return right.status();
    std::vector<BoundTuple> out = *std::move(left);
    for (BoundTuple& t : *right) {
      if (std::find(out.begin(), out.end(), t) == out.end()) {
        out.push_back(std::move(t));  // MDX Union removes duplicates.
      }
    }
    return out;
  }

  // Filter(set, path relop number): keep tuples whose cell value — at the
  // tuple's coordinates, the condition path's coordinate, and the root
  // everywhere else — satisfies the comparison. ⊥ never satisfies.
  Result<std::vector<BoundTuple>> BindFilter(const SetExpr& expr) {
    Result<std::vector<BoundTuple>> inner = BindSet(*expr.args[0]);
    if (!inner.ok()) return inner.status();
    Result<std::vector<CellValue>> keys = KeyValues(expr, *inner);
    if (!keys.ok()) return keys.status();
    std::vector<BoundTuple> out;
    for (size_t i = 0; i < inner->size(); ++i) {
      const CellValue v = (*keys)[i];
      if (v.is_null()) continue;
      bool pass = false;
      double value = v.value();
      if (expr.relop == ">") pass = value > expr.threshold;
      if (expr.relop == "<") pass = value < expr.threshold;
      if (expr.relop == ">=") pass = value >= expr.threshold;
      if (expr.relop == "<=") pass = value <= expr.threshold;
      if (expr.relop == "=") pass = value == expr.threshold;
      if (expr.relop == "<>") pass = value != expr.threshold;
      if (pass) out.push_back(std::move((*inner)[i]));
    }
    return out;
  }

  // Order / TopCount / BottomCount: sort tuples by a cell value evaluated
  // at each tuple's coordinates (⊥ sorts after every number), stably, then
  // optionally keep the first n.
  Result<std::vector<BoundTuple>> BindOrdered(const SetExpr& expr) {
    Result<std::vector<BoundTuple>> inner = BindSet(*expr.args[0]);
    if (!inner.ok()) return inner.status();
    Result<std::vector<CellValue>> keys = KeyValues(expr, *inner);
    if (!keys.ok()) return keys.status();
    std::vector<std::pair<CellValue, BoundTuple>> keyed;
    keyed.reserve(inner->size());
    for (size_t i = 0; i < inner->size(); ++i) {
      keyed.emplace_back((*keys)[i], std::move((*inner)[i]));
    }
    const bool descending = expr.kind == SetExpr::Kind::kTopCount ||
                            (expr.kind == SetExpr::Kind::kOrder &&
                             expr.flag == "desc");
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       if (a.first.is_null() || b.first.is_null()) {
                         return !a.first.is_null() && b.first.is_null();
                       }
                       return descending ? a.first.value() > b.first.value()
                                         : a.first.value() < b.first.value();
                     });
    std::vector<BoundTuple> out;
    size_t limit = expr.kind == SetExpr::Kind::kOrder
                       ? keyed.size()
                       : std::min<size_t>(keyed.size(), expr.number);
    for (size_t i = 0; i < limit; ++i) out.push_back(std::move(keyed[i].second));
    return out;
  }

  // The key of each tuple of a value-dependent set function: the cube's
  // cell at the tuple's coordinates, the condition path's coordinate and
  // the root everywhere else, evaluated rules first through one batched
  // pass (the tuples usually share most of their roll-up scopes, so a
  // handful of cover views answers the whole set).
  Result<std::vector<CellValue>> KeyValues(
      const SetExpr& expr, const std::vector<BoundTuple>& tuples) {
    if (data_ == nullptr) {
      return Status::FailedPrecondition(
          "Filter/Order/TopCount/BottomCount require cube data at bind time");
    }
    Result<std::pair<int, AxisRef>> condition = ResolvePathRef(expr.path);
    if (!condition.ok()) return condition.status();
    CellRef base(schema_.num_dimensions());
    for (int d = 0; d < schema_.num_dimensions(); ++d) {
      base[d] = AxisRef::OfMember(schema_.dimension(d).root());
    }
    std::vector<CellRef> refs;
    refs.reserve(tuples.size());
    for (const BoundTuple& tuple : tuples) {
      CellRef ref = base;
      for (const auto& [dim, axis_ref] : tuple.refs) ref[dim] = axis_ref;
      ref[condition->first] = condition->second;
      // `data` predates any INTRODUCE augmentation of the bind schema: a
      // ref naming an introduced member has no data there.
      for (int d = 0; d < data_->num_dims(); ++d) {
        if (!ref[d].In(data_->schema().dimension(d))) {
          return Status::FailedPrecondition(
              "Filter/Order/TopCount cannot reference introduced members");
        }
      }
      refs.push_back(std::move(ref));
    }
    BatchCellEvaluator batch(*data_, nullptr);
    batch.PrepareRefs(refs);
    const CellEvaluator evaluator(*data_, rules_, &batch);
    std::vector<CellValue> out;
    out.reserve(refs.size());
    for (const CellRef& ref : refs) out.push_back(evaluator.Evaluate(ref));
    return out;
  }

  Result<std::vector<BoundTuple>> BindExceptIntersect(SetExpr::Kind kind,
                                                      const SetExpr& a,
                                                      const SetExpr& b) {
    Result<std::vector<BoundTuple>> left = BindSet(a);
    if (!left.ok()) return left.status();
    Result<std::vector<BoundTuple>> right = BindSet(b);
    if (!right.ok()) return right.status();
    const bool keep_if_found = kind == SetExpr::Kind::kIntersect;
    std::vector<BoundTuple> out;
    for (BoundTuple& t : *left) {
      bool found = std::find(right->begin(), right->end(), t) != right->end();
      if (found == keep_if_found) out.push_back(std::move(t));
    }
    return out;
  }

  Result<std::vector<BoundTuple>> BindTupleExpr(const SetExpr& expr) {
    BoundTuple tuple;
    for (const auto& arg : expr.args) {
      Result<std::vector<BoundTuple>> sub = BindSet(*arg);
      if (!sub.ok()) return sub.status();
      if (sub->size() != 1 || (*sub)[0].refs.size() != 1) {
        return Status::InvalidArgument(
            "tuple components must each be a single member");
      }
      const auto& ref = (*sub)[0].refs[0];
      for (const auto& existing : tuple.refs) {
        if (existing.first == ref.first) {
          return Status::InvalidArgument("tuple mentions dimension '" +
                                         schema_.dimension(ref.first).name() +
                                         "' twice");
        }
      }
      tuple.refs.push_back(ref);
    }
    return std::vector<BoundTuple>{std::move(tuple)};
  }

  const Schema& schema_;
  const NameResolver* resolver_;
  const Cube* data_;
  const RuleSet* rules_;
};

Result<Semantics> BindSemantics(const std::string& words) {
  if (words.empty() || words == "STATIC") return Semantics::kStatic;
  if (words == "FORWARD") return Semantics::kForward;
  if (words == "EXTENDED FORWARD") return Semantics::kExtendedForward;
  if (words == "BACKWARD") return Semantics::kBackward;
  if (words == "EXTENDED BACKWARD") return Semantics::kExtendedBackward;
  return Status::InvalidArgument("unknown semantics '" + words + "'");
}

EvalMode BindMode(const std::string& word) {
  return word == "VISUAL" ? EvalMode::kVisual : EvalMode::kNonVisual;
}

}  // namespace

Result<std::vector<BoundTuple>> BindSet(const SetExpr& expr, const Schema& schema,
                                        const NameResolver* resolver,
                                        const Cube* data) {
  return Binder(schema, resolver, data, nullptr).BindSet(expr);
}

Result<BoundQuery> Bind(const ParsedQuery& query, const Schema& base_schema,
                        const NameResolver* resolver, const Cube* data,
                        const RuleSet* rules) {
  BoundQuery out;
  out.cube_name = query.cube_name;

  // INTRODUCE clauses bind first and extend a *copy* of the schema: axis
  // sets may then name the hypothetical members, and the augmented member
  // and instance ids line up with the what-if operator's output cube
  // because the identical mutations run in the identical order (both sides
  // go through ApplyIntroductions).
  std::optional<Schema> augmented;
  for (const IntroduceClause& c : query.introduces) {
    Result<int> vdim = base_schema.FindDimension(c.varying_dim);
    if (!vdim.ok()) return vdim.status();
    if (!base_schema.is_varying(*vdim)) {
      return Status::FailedPrecondition("dimension '" + c.varying_dim +
                                        "' is not varying");
    }
    WhatIfSpec* spec = nullptr;
    for (WhatIfSpec& s : out.specs) {
      if (s.varying_dim == *vdim) spec = &s;
    }
    if (spec == nullptr) {
      out.specs.emplace_back();
      out.specs.back().varying_dim = *vdim;
      spec = &out.specs.back();
    }
    const Dimension& param =
        base_schema.dimension(base_schema.parameter_of(*vdim));
    for (const IntroduceSpec& m : c.members) {
      NewMemberSpec n;
      n.name = m.name;
      n.parent = m.parent;
      n.inner = m.moment.empty();
      if (!n.inner) {
        Result<MemberId> mm = param.FindMember(m.moment);
        if (!mm.ok()) return mm.status();
        int ordinal = param.LeafOrdinal(*mm);
        if (ordinal < 0) {
          return Status::InvalidArgument("introduce moment '" + m.moment +
                                         "' is not a leaf of '" +
                                         param.name() + "'");
        }
        n.from_moment = ordinal;
      }
      if (m.seed == "CLONE") n.seed = NewMemberSpec::Seed::kClone;
      if (m.seed == "TRANSFER") n.seed = NewMemberSpec::Seed::kTransfer;
      n.source = m.source;
      n.factor = m.factor;
      spec->introductions.push_back(std::move(n));
    }
    if (!c.mode.empty()) spec->mode = BindMode(c.mode);
  }
  for (const WhatIfSpec& s : out.specs) {
    if (s.introductions.empty()) continue;
    if (!augmented.has_value()) augmented.emplace(base_schema);
    Status applied =
        ApplyIntroductions(&*augmented, s.varying_dim, s.introductions);
    if (!applied.ok()) return applied;
  }
  const Schema& schema = augmented.has_value() ? *augmented : base_schema;

  Binder binder(schema, resolver, data, rules);

  for (const AxisSpec& axis : query.axes) {
    BoundAxis bound;
    bound.ordinal = axis.ordinal;
    bound.non_empty = axis.non_empty;
    bound.properties = axis.properties;
    Result<std::vector<BoundTuple>> tuples = binder.BindSet(*axis.set);
    if (!tuples.ok()) return tuples.status();
    bound.tuples = *std::move(tuples);
    out.axes.push_back(std::move(bound));
  }
  std::sort(out.axes.begin(), out.axes.end(),
            [](const BoundAxis& a, const BoundAxis& b) {
              return a.ordinal < b.ordinal;
            });

  if (query.where_tuple != nullptr) {
    Result<std::vector<BoundTuple>> slicer = binder.BindSet(*query.where_tuple);
    if (!slicer.ok()) return slicer.status();
    if (slicer->size() != 1) {
      return Status::InvalidArgument("WHERE must bind to a single tuple");
    }
    out.slicer = (*slicer)[0];
  }

  // One spec per varying dimension; clauses for the same dimension merge.
  auto spec_for_dim = [&out](int dim) -> WhatIfSpec* {
    for (WhatIfSpec& spec : out.specs) {
      if (spec.varying_dim == dim) return &spec;
    }
    out.specs.emplace_back();
    out.specs.back().varying_dim = dim;
    return &out.specs.back();
  };

  for (const PerspectiveClause& p : query.perspectives) {
    Result<int> vdim = schema.FindDimension(p.varying_dim);
    if (!vdim.ok()) return vdim.status();
    if (!schema.is_varying(*vdim)) {
      return Status::FailedPrecondition("dimension '" + p.varying_dim +
                                        "' is not varying");
    }
    WhatIfSpec* spec = spec_for_dim(*vdim);
    if (!spec->perspectives.empty()) {
      return Status::InvalidArgument(
          "duplicate PERSPECTIVE clause for dimension '" + p.varying_dim + "'");
    }
    const Dimension& param = schema.dimension(schema.parameter_of(*vdim));
    std::vector<int> moments;
    for (const std::string& name : p.moments) {
      Result<MemberId> m = param.FindMember(name);
      if (!m.ok()) return m.status();
      int ordinal = param.LeafOrdinal(*m);
      if (ordinal < 0) {
        return Status::InvalidArgument("perspective member '" + name +
                                       "' is not a leaf of '" + param.name() + "'");
      }
      moments.push_back(ordinal);
    }
    spec->perspectives = Perspectives(std::move(moments));
    Result<Semantics> sem = BindSemantics(p.semantics);
    if (!sem.ok()) return sem.status();
    // Unordered parameter dimensions (e.g. Location) have no notion of
    // forward/backward — only static semantics applies (Sec. 3.1: "For
    // brevity, we only discuss ordered parameter dimensions").
    if (!schema.dimension(*vdim).parameter_is_ordered() &&
        *sem != Semantics::kStatic) {
      return Status::InvalidArgument(
          "dimension '" + p.varying_dim +
          "' varies over an unordered parameter; only STATIC applies");
    }
    spec->semantics = *sem;
    spec->mode = BindMode(p.mode);
  }

  for (const ChangesClause& c : query.changes) {
    int clause_dim = -1;
    if (!c.varying_dim.empty()) {
      Result<int> d = schema.FindDimension(c.varying_dim);
      if (!d.ok()) return d.status();
      clause_dim = *d;
    }
    WhatIfSpec* spec = nullptr;
    for (const ChangeSpec& change : c.changes) {
      // Infer the varying dimension from the old parent when necessary.
      Result<std::pair<int, MemberId>> old_parent =
          clause_dim >= 0
              ? [&]() -> Result<std::pair<int, MemberId>> {
                  Result<MemberId> m =
                      schema.dimension(clause_dim).FindMember(change.old_parent);
                  if (!m.ok()) return m.status();
                  return std::pair<int, MemberId>{clause_dim, *m};
                }()
              : FindGlobal(schema, change.old_parent);
      if (!old_parent.ok()) return old_parent.status();
      const int dim = old_parent->first;
      if (!schema.is_varying(dim)) {
        return Status::FailedPrecondition(
            "changes target dimension '" + schema.dimension(dim).name() +
            "' is not varying");
      }
      if (spec != nullptr && spec->varying_dim != dim) {
        return Status::InvalidArgument(
            "one CHANGES clause must target a single varying dimension");
      }
      if (spec == nullptr) spec = spec_for_dim(dim);
      const Dimension& d = schema.dimension(dim);
      Result<MemberId> new_parent = d.FindMember(change.new_parent);
      if (!new_parent.ok()) return new_parent.status();
      const Dimension& param = schema.dimension(schema.parameter_of(dim));
      Result<MemberId> moment_member = param.FindMember(change.moment);
      if (!moment_member.ok()) return moment_member.status();
      int moment = param.LeafOrdinal(*moment_member);
      if (moment < 0) {
        return Status::InvalidArgument("change moment '" + change.moment +
                                       "' is not a leaf of '" + param.name() + "'");
      }
      // The member spec may be a single path or an expression like
      // [FTE].Children — expand it to leaf members.
      Result<std::vector<BoundTuple>> members = binder.BindSet(*change.member);
      if (!members.ok()) return members.status();
      for (const BoundTuple& t : *members) {
        if (t.refs.size() != 1 || t.refs[0].first != dim) {
          return Status::InvalidArgument(
              "change member must belong to the varying dimension");
        }
        spec->changes.push_back(ChangeTuple{t.refs[0].second.member,
                                            old_parent->second, *new_parent,
                                            moment});
      }
    }
    if (spec != nullptr && !c.mode.empty()) spec->mode = BindMode(c.mode);
  }

  for (const AllocationClause& a : query.allocations) {
    AllocationSpec spec;
    spec.fraction = a.fraction;
    Result<std::pair<int, AxisRef>> from = binder.ResolvePathRef(a.from_path);
    if (!from.ok()) return from.status();
    Result<std::pair<int, AxisRef>> to = binder.ResolvePathRef(a.to_path);
    if (!to.ok()) return to.status();
    if (from->first != to->first) {
      return Status::InvalidArgument(
          "allocation source and target must share a dimension");
    }
    spec.dim = from->first;
    spec.from = from->second;
    spec.to = to->second;
    if (a.region != nullptr) {
      Result<std::vector<BoundTuple>> region = binder.BindSet(*a.region);
      if (!region.ok()) return region.status();
      if (region->size() != 1) {
        return Status::InvalidArgument(
            "allocation region must bind to a single tuple");
      }
      spec.region = (*region)[0].refs;
    }
    out.allocations.push_back(std::move(spec));
  }

  return out;
}

}  // namespace olap::mdx
