#ifndef OLAP_AGG_ROLLUP_H_
#define OLAP_AGG_ROLLUP_H_

#include <utility>
#include <vector>

#include "common/value.h"
#include "cube/cube.h"

namespace olap {

// Hierarchy roll-up: the paper's default rule for non-leaf cells — the value
// of a derived cell is the sum of its descendant leaf cells, skipping ⊥
// (Sec. 4.3: "the scope of a function for a non-leaf cell is the set of its
// descendant leaf cells").

// Sums `data` over the cross product of per-dimension position lists.
// Returns ⊥ when every addressed cell is ⊥.
CellValue SumOverScope(const Cube& data,
                       const std::vector<std::vector<int>>& positions);

// Weighted variant: each position carries a consolidation weight (see
// Member::weight); a cell contributes value * Π(per-dimension weights).
CellValue SumOverScopeWeighted(
    const Cube& data,
    const std::vector<std::vector<std::pair<int, double>>>& positions);

// The weighted roll-up of the cell `ref` addresses (each dimension a
// member or instance) over its descendant leaf cells. CellEvaluator reads
// leaf cells itself and rolls up derived ones here when no batch serves.
CellValue RollUpCell(const Cube& data, const CellRef& ref);

}  // namespace olap

#endif  // OLAP_AGG_ROLLUP_H_
