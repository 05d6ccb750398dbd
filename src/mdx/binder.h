#ifndef OLAP_MDX_BINDER_H_
#define OLAP_MDX_BINDER_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "cube/cube.h"
#include "dimension/schema.h"
#include "mdx/ast.h"
#include "rules/rule.h"
#include "whatif/perspective_cube.h"

namespace olap::mdx {

// One bound axis tuple: a sparse coordinate — only the dimensions the tuple
// mentions. Dimensions absent from every axis and the slicer default to
// their root member (aggregate over everything) at evaluation time.
struct BoundTuple {
  std::vector<std::pair<int, AxisRef>> refs;  // (dimension index, coordinate).

  friend bool operator==(const BoundTuple& a, const BoundTuple& b) {
    return a.refs == b.refs;
  }
};

struct BoundAxis {
  int ordinal = 0;
  bool non_empty = false;
  std::vector<BoundTuple> tuples;
  std::vector<std::string> properties;
};

// A fully name-resolved query, ready for the engine.
struct BoundQuery {
  std::vector<std::string> cube_name;
  std::vector<BoundAxis> axes;  // Sorted by ordinal.
  BoundTuple slicer;
  // One spec per varying dimension the WITH block touches, in clause
  // order; scope_members left empty (the engine fills it). A perspective
  // clause and a changes clause naming the same varying dimension are
  // merged into one spec.
  std::vector<WhatIfSpec> specs;
  // Data-driven scenarios, applied (in order) before the specs.
  std::vector<AllocationSpec> allocations;

  bool has_whatif() const { return !specs.empty() || !allocations.empty(); }
};

// Supplies out-of-schema names during binding — in particular Essbase-style
// *named sets* such as [EmployeesWithAtleastOneMove-Set1], whose children
// are an arbitrary member list (the paper's Fig. 10 queries rely on these).
class NameResolver {
 public:
  virtual ~NameResolver() = default;
  // Members of the named set `name`, or nullopt when no such set exists.
  virtual std::optional<std::vector<std::pair<int, MemberId>>> FindNamedSet(
      std::string_view name) const = 0;
};

// Resolves every name in `query` against `schema`. `resolver` may be null.
// `data` (the cube being queried) is only needed when the query uses
// value-dependent set functions (Filter, Order, TopCount, BottomCount);
// binding such a query without it fails with FAILED_PRECONDITION. Their
// keys are `data`'s cell values under `rules` (nullable: pure roll-up),
// evaluated as a grid cell of a plain query is.
Result<BoundQuery> Bind(const ParsedQuery& query, const Schema& schema,
                        const NameResolver* resolver = nullptr,
                        const Cube* data = nullptr,
                        const RuleSet* rules = nullptr);

// Evaluates one set expression to tuples (exposed for tests).
Result<std::vector<BoundTuple>> BindSet(const SetExpr& expr, const Schema& schema,
                                        const NameResolver* resolver = nullptr,
                                        const Cube* data = nullptr);

}  // namespace olap::mdx

#endif  // OLAP_MDX_BINDER_H_
