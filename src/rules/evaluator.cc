#include "rules/evaluator.h"

#include <algorithm>

#include "agg/rollup.h"

namespace olap {

CellValue CellEvaluator::Evaluate(const CellRef& ref) const {
  std::vector<MemberId> measure_stack;
  return EvaluateInternal(/*target=*/-1, ref, &measure_stack);
}

CellValue CellEvaluator::EvaluateInternal(
    int target, const CellRef& ref,
    std::vector<MemberId>* measure_stack) const {
  const Cube& cube = *cubes_[std::max(target, 0)];
  const Schema& schema = cube.schema();
  const int measure_dim = rules_ != nullptr && !rules_->empty()
                              ? schema.MeasureDimension()
                              : -1;
  if (measure_dim >= 0) {
    MemberId measure = ref[measure_dim].member;
    const Rule* rule = rules_->Match(schema, measure_dim, measure, ref);
    if (rule != nullptr) {
      // Guard against rule cycles (Margin -> Margin% -> Margin ...): a
      // measure already on the evaluation stack evaluates to ⊥.
      if (std::find(measure_stack->begin(), measure_stack->end(), measure) !=
          measure_stack->end()) {
        return CellValue::Null();
      }
      if (target < 0) target = router_ ? router_->Route(ref, nullptr) : 0;
      measure_stack->push_back(measure);
      CellValue out = rule->formula->Evaluate([&](MemberId m) {
        CellRef operand = ref;
        operand[measure_dim] = AxisRef::OfMember(m);
        return EvaluateInternal(target, operand, measure_stack);
      });
      measure_stack->pop_back();
      return out;
    }
  }
  // Reused per thread: nothing below re-enters the evaluator, and a leaf
  // read then costs no allocation.
  thread_local std::vector<int> leaf_coords;
  const bool leaf = cube.IsLeafRef(ref, &leaf_coords);
  if (target < 0) {
    target = router_ ? router_->Route(ref, leaf ? &leaf_coords : nullptr) : 0;
  }
  if (leaf) return cubes_[target]->GetCell(leaf_coords);
  if (batches_[target] != nullptr) {
    return batches_[target]->EvaluateDerived(ref);
  }
  return RollUpCell(*cubes_[target], ref);
}

}  // namespace olap
