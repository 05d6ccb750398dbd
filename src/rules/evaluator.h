#ifndef OLAP_RULES_EVALUATOR_H_
#define OLAP_RULES_EVALUATOR_H_

#include <vector>

#include "agg/batch_eval.h"
#include "common/value.h"
#include "cube/cube.h"
#include "rules/rule.h"

namespace olap {

// Evaluates arbitrary (leaf or derived) cells of a cube under a rule set:
// this is the paper's `func(C, d, t, e)` machinery (Sec. 4.3).
//
//  * A cell whose measure coordinate has a matching rule is *derived by
//    formula*: the formula's measure references are evaluated recursively at
//    the same non-measure coordinates.
//  * Otherwise a non-leaf cell is *derived by roll-up*: the ⊥-skipping sum
//    of its descendant leaf cells.
//  * Leaf cells read storage directly.
//
// Rules evaluated against a different data cube than the one that defines
// them implement the Eval operator E(C1, C2): construct the evaluator with
// C1's rules and C2 as `data` (visual mode evaluates rules on the
// perspective output cube, non-visual on the input cube).
class CellEvaluator {
 public:
  // `rules` may be null (pure roll-up cube). `batch` (nullable) is a
  // prepared batched evaluator over `data`; when given, cells not derived
  // by formula — including rule operands — are served through its
  // persistent and scratch views. Without it every derived cell is the
  // leaf roll-up (the per-cell oracle). All references must outlive the
  // evaluator.
  CellEvaluator(const Cube& data, const RuleSet* rules,
                const BatchCellEvaluator* batch = nullptr)
      : data_(data), rules_(rules), batch_(batch) {}

  CellValue Evaluate(const CellRef& ref) const;

 private:
  CellValue EvaluateInternal(const CellRef& ref,
                             std::vector<MemberId>* measure_stack) const;

  const Cube& data_;
  const RuleSet* rules_;
  const BatchCellEvaluator* batch_;
};

}  // namespace olap

#endif  // OLAP_RULES_EVALUATOR_H_
