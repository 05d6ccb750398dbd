#ifndef OLAP_WHATIF_SCENARIO_ALGEBRA_H_
#define OLAP_WHATIF_SCENARIO_ALGEBRA_H_

#include <cstdint>
#include <vector>

#include "agg/batch_eval.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "cube/cube.h"
#include "rules/rule.h"
#include "whatif/perspective_cube.h"

namespace olap {

// ---------------------------------------------------------------------------
// Scenario algebra: composition and comparison of what-if scenarios
// ---------------------------------------------------------------------------
//
// WhatIfSpec describes ONE canonical scenario (introductions, then changes,
// then perspectives — the order the paper's extended MDX implies). The
// scenario algebra generalises that to *pipelines*: an ordered stack of
// positive (introduce, split) and negative (perspective) operations over
// one varying dimension, composed with scenarios over other dimensions,
// with a single evaluation-mode resolution rule (visual wins). Every
// scenario — an MDX clause, a composed stack, a COMPARE side, a live
// scenario — runs through one op loop: each op transforms the previous
// op's output. It also closes the algebra under *comparison*: containment /
// overlap / distance between two scenarios' result cubes, evaluated over a
// common ref set with one batched evaluator per cube the sides read, so
// cover views shared by both sides are computed once.

// One step of a scenario pipeline. Exactly one payload is meaningful,
// selected by `kind`.
struct ScenarioOp {
  enum class Kind { kIntroduce, kSplit, kPerspective };
  Kind kind = Kind::kSplit;

  std::vector<NewMemberSpec> introductions;   // kIntroduce
  ChangeRelation changes;                     // kSplit
  Perspectives perspectives;                  // kPerspective
  Semantics semantics = Semantics::kStatic;   // kPerspective

  static ScenarioOp Introduce(std::vector<NewMemberSpec> specs) {
    ScenarioOp op;
    op.kind = Kind::kIntroduce;
    op.introductions = std::move(specs);
    return op;
  }
  static ScenarioOp SplitOp(ChangeRelation changes) {
    ScenarioOp op;
    op.kind = Kind::kSplit;
    op.changes = std::move(changes);
    return op;
  }
  static ScenarioOp Perspective(Perspectives perspectives,
                                Semantics semantics) {
    ScenarioOp op;
    op.kind = Kind::kPerspective;
    op.perspectives = std::move(perspectives);
    op.semantics = semantics;
    return op;
  }
};

// A full scenario over one varying dimension: an ordered op stack plus the
// evaluation mode and the execution knobs WhatIfSpec carries.
struct ScenarioSpec {
  int varying_dim = -1;
  EvalMode mode = EvalMode::kNonVisual;
  std::vector<ScenarioOp> ops;
  // Sec. 6.3 merge scoping (non-visual only). Honoured only when this spec
  // is the whole stack and canonical(); ignored otherwise.
  std::vector<MemberId> scope_members;
  bool pebbling_read_order = false;

  // Lossless embedding of the classic spec: [introduce?, split?,
  // perspective?] in canonical order.
  static ScenarioSpec FromWhatIf(const WhatIfSpec& spec);

  // True when `ops` matches the canonical order with each kind at most
  // once — the shape FromWhatIf produces.
  bool canonical() const;
};

// Evaluates one scenario: ComposeScenarios(in, {spec}, opts).
Result<PerspectiveCube> ComputeScenario(const Cube& in,
                                        const ScenarioSpec& spec,
                                        const ScenarioEvalOptions& opts = {});

// Composes several scenarios (typically one per varying dimension) into a
// single perspective cube. One loop applies every spec's ops in order, each
// op over the previous op's output; derived cells follow the combined mode
// (visual wins). A stack with no op hands back its input (non-visual for
// an empty spec list). Increments the scenario.compose.* counters.
//
// `cell_map` (nullable) receives where each leaf cell of `in` lands in the
// output along the varying dimension: the ops' destination tables composed
// (whatif/operators.h). It is filled only for a single spec with neither
// an INTRODUCE op (whose seeding copies cells across members) nor a
// Multiple-MDX perspective (whose runs merge); otherwise, and on error, it
// is left empty.
Result<PerspectiveCube> ComposeScenarios(const Cube& in,
                                         const std::vector<ScenarioSpec>& specs,
                                         const ScenarioEvalOptions& opts = {},
                                         DestTable* cell_map = nullptr);

// ---------------------------------------------------------------------------
// Scenario comparison
// ---------------------------------------------------------------------------

// Containment / overlap / distance between two scenarios' result cubes,
// measured over an explicit ref set (a query grid). A cell is *active* in a
// scenario when it evaluates non-⊥; distances treat ⊥ as 0.
//
// Laws (asserted by the metamorphic suite):
//   * distance symmetry:      l1/l2/linf(A,B) == l1/l2/linf(B,A);
//   * containment reflexivity: Compare(A,A) has both containments and
//     zero distance;
//   * containment antisymmetry: both containments => identical active
//     sets (overlap == active_a == active_b);
//   * overlap bound:          overlap <= min(active_a, active_b).
struct ScenarioComparison {
  int64_t cells_compared = 0;
  int64_t active_a = 0;
  int64_t active_b = 0;
  int64_t overlap = 0;       // Cells active in both.
  bool a_contains_b = true;  // Every B-active cell is A-active.
  bool b_contains_a = true;
  double l1 = 0.0;
  double l2 = 0.0;
  double linf = 0.0;
  // overlap / |active union|; 1.0 when both scenarios are empty.
  double jaccard = 1.0;
  // Per-ref values, aligned with the input ref order (for rendering a
  // delta grid).
  std::vector<CellValue> values_a;
  std::vector<CellValue> values_b;
};

struct ScenarioCompareOptions {
  ScenarioEvalOptions eval;
  // Serve derived cells through one batched evaluator per cube the sides
  // read (PerspectiveCube::Route), prepared over the refs routed there;
  // two sides reading the stored cube share one, and
  // scenario.compare.shared_views counts its views. Off = the per-cell
  // oracle.
  bool batched_eval = true;
  BatchEvalOptions batch;  // Governor hooks etc.; cancel comes from `eval`.
};

// Evaluates both scenario stacks over `in`, then compares them cell-by-cell
// across `refs`. Increments the scenario.compare.* counters. Cancellation
// (opts.eval.cancel) is polled between ops and per compared cell.
Result<ScenarioComparison> CompareScenarios(
    const Cube& in, const std::vector<ScenarioSpec>& a,
    const std::vector<ScenarioSpec>& b, const std::vector<CellRef>& refs,
    const RuleSet* rules, const ScenarioCompareOptions& opts = {});

}  // namespace olap

#endif  // OLAP_WHATIF_SCENARIO_ALGEBRA_H_
