#ifndef OLAP_RULES_EVALUATOR_H_
#define OLAP_RULES_EVALUATOR_H_

#include <vector>

#include "agg/batch_eval.h"
#include "common/value.h"
#include "cube/cube.h"
#include "rules/rule.h"

namespace olap {

// Names the cube each cell of a what-if query is evaluated on: its output
// or its input (Sec. 3.3). PerspectiveCube holds the routing table.
class CellRouter {
 public:
  enum Target { kOutput = 0, kInput = 1 };
  virtual const Cube& output() const = 0;
  virtual const Cube& input() const = 0;
  // `leaf_coords` holds the ref's coordinates when it is a leaf of
  // output() that no rule defines, and is null for any other ref.
  virtual Target Route(const CellRef& ref,
                       const std::vector<int>* leaf_coords) const = 0;

 protected:
  ~CellRouter() = default;
};

// The engine's one cell evaluator: the paper's `func(C, d, t, e)` (Sec.
// 4.3) and Eval operator E(C1, C2) (Def. 4.6), C1's rules over the cells
// of C2, the cube the ref is routed to.
//
//  * Rules first: a cell whose measure coordinate has a matching rule is
//    *derived by formula*; its measure references are evaluated at the
//    same non-measure coordinates, on the cube the cell is routed to.
//  * Any other cell reads one cube. A leaf cell reads storage; a derived
//    cell is the ⊥-skipping weighted roll-up of its leaves, served by that
//    cube's batch when there is one (persistent and scratch views) and
//    rolled up leaf by leaf otherwise (the per-cell oracle).
//
// One leaf test per read; leaf reads never go through a batch, so
// agg.batch.* counts derived refs only. Evaluate is const and thread-safe.
class CellEvaluator {
 public:
  // A plain query: every ref reads `data`. `rules` and `batch` (prepared
  // over `data`) may be null.
  CellEvaluator(const Cube& data, const RuleSet* rules,
                const BatchCellEvaluator* batch = nullptr)
      : rules_(rules), cubes_{&data, &data}, batches_{batch, batch} {}
  // A what-if query. The batches (nullable) are prepared over the derived
  // refs `router` sends to its output and to its input.
  CellEvaluator(const CellRouter& router, const RuleSet* rules,
                const BatchCellEvaluator* output_batch = nullptr,
                const BatchCellEvaluator* input_batch = nullptr)
      : router_(&router),
        rules_(rules),
        cubes_{&router.output(), &router.input()},
        batches_{output_batch, input_batch} {}

  CellValue Evaluate(const CellRef& ref) const;

 private:
  // `target` is the cube a rule routed the evaluation to, or -1.
  CellValue EvaluateInternal(int target, const CellRef& ref,
                             std::vector<MemberId>* measure_stack) const;

  const CellRouter* router_ = nullptr;  // Null: every ref reads cubes_[0].
  const RuleSet* rules_;
  const Cube* cubes_[2];  // Indexed by CellRouter::Target.
  const BatchCellEvaluator* batches_[2];
};

}  // namespace olap

#endif  // OLAP_RULES_EVALUATOR_H_
