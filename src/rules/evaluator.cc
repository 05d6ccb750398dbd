#include "rules/evaluator.h"

#include <algorithm>

#include "agg/rollup.h"

namespace olap {

CellValue CellEvaluator::Evaluate(const CellRef& ref) const {
  std::vector<MemberId> measure_stack;
  return EvaluateInternal(ref, &measure_stack);
}

CellValue CellEvaluator::EvaluateInternal(
    const CellRef& ref, std::vector<MemberId>* measure_stack) const {
  const Schema& schema = data_.schema();
  int measure_dim = schema.MeasureDimension();
  if (rules_ != nullptr && !rules_->empty() && measure_dim >= 0) {
    MemberId measure = ref[measure_dim].member;
    const Rule* rule = rules_->Match(schema, measure_dim, measure, ref);
    if (rule != nullptr) {
      // Guard against rule cycles (Margin -> Margin% -> Margin ...): a
      // measure already on the evaluation stack evaluates to ⊥.
      if (std::find(measure_stack->begin(), measure_stack->end(), measure) !=
          measure_stack->end()) {
        return CellValue::Null();
      }
      measure_stack->push_back(measure);
      CellValue out = rule->formula->Evaluate([&](MemberId m) {
        CellRef operand = ref;
        operand[measure_dim] = AxisRef::OfMember(m);
        return EvaluateInternal(operand, measure_stack);
      });
      measure_stack->pop_back();
      return out;
    }
  }
  if (batch_ != nullptr) {
    // Batched cover-view evaluation: leaf reads, view-served roll-ups, and
    // residual scans — with its own cache accounting.
    return batch_->Evaluate(ref);
  }
  return EvaluateCell(data_, ref);  // Leaf read or default roll-up.
}

}  // namespace olap
