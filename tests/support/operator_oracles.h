#ifndef OLAP_TESTS_SUPPORT_OPERATOR_ORACLES_H_
#define OLAP_TESTS_SUPPORT_OPERATOR_ORACLES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "cube/cube.h"
#include "whatif/operators.h"

// Serial cell-at-a-time implementations of the what-if operators
// (ForEachCell + SetCell per cell): the oracles the chunk-native kernels of
// whatif/operators are fuzzed against, and bench_kernels' per-cell
// baseline. Each takes the operator's output schema (e.g.
// `Relocate(...).schema()`) instead of rebuilding it, and re-derives every
// leaf cell's destination from the public Dimension API, so it checks the
// operator's cell movement independently of its destination table.
namespace olap {

// Relocate (Definition 4.4): the cell at (p, t, e) lands at the output
// instance whose `vs_out` holds t, when p is the input instance of its
// member valid at t. Scope semantics and `cells_moved` as in Relocate.
Cube RelocateReference(const Cube& in, const Schema& schema_out,
                       int varying_dim,
                       const std::vector<DynamicBitset>& vs_out,
                       const std::vector<MemberId>& scope_members = {},
                       int64_t* cells_moved = nullptr);

// Split (Definition 4.5): every member named by a tuple of `r` sends each
// moment's cell to the instance of `schema_out` that owns that moment;
// other members copy through unchanged.
Cube SplitReference(const Cube& in, const Schema& schema_out,
                    int varying_dim, const ChangeRelation& r);

// Introduce: every cell copies through, then the seeding rules of `specs`
// apply in spec order from a scan of every stored cell. `schema_out` must
// hold the introduced members (the operator has validated `specs`);
// kNotFound when it does not.
Result<Cube> IntroduceMembersReference(const Cube& in,
                                       const Schema& schema_out,
                                       int varying_dim,
                                       const std::vector<NewMemberSpec>& specs,
                                       int64_t* cells_seeded = nullptr);

// Selection (Definition 4.1), the algebra's σ as a whole-cube copy. The
// engine selects through grid coordinates and never materializes σ; this
// is its reference, composed with the operators above in the algebra's
// tests.

// Sets every cell at position `pos` of dimension `dim` to ⊥.
void ClearSlice(Cube* cube, int dim, int pos);

// σ_p: keeps only the axis positions of `dim` for which `keep(pos)` is true;
// the sub-cubes of every other position are removed (cells set to ⊥).
// The output schema is unchanged — non-kept positions are simply inactive.
Cube Select(const Cube& in, int dim, const std::function<bool(int)>& keep);

// Predicate helpers producing keep-sets (Sec. 4.1's example predicates).

// Positions whose member equals `m` / is a descendant of `m`.
std::vector<bool> KeepMemberEquals(const Cube& in, int dim, MemberId m);
std::vector<bool> KeepDescendantOf(const Cube& in, int dim, MemberId ancestor);
// D.VS ∩ moments ≠ ∅ — varying dimensions only; non-varying positions are
// all kept (their validity is implicitly the full universe).
std::vector<bool> KeepValidityOverlaps(const Cube& in, int dim,
                                       const DynamicBitset& moments);
// Value predicate σ_{D θ c}: keep positions of `dim` that have at least one
// cell in the cube slice satisfying pred(value), e.g. sales > 1000 with the
// other coordinates restricted beforehand via Select.
std::vector<bool> KeepWhereAnyValue(const Cube& in, int dim,
                                    const std::function<bool(double)>& pred);

}  // namespace olap

#endif  // OLAP_TESTS_SUPPORT_OPERATOR_ORACLES_H_
