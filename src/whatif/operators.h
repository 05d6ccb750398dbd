#ifndef OLAP_WHATIF_OPERATORS_H_
#define OLAP_WHATIF_OPERATORS_H_

#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "cube/cube.h"
#include "whatif/perspective.h"

namespace olap {

// ---------------------------------------------------------------------------
// Destination tables: where Relocate and Split send each leaf cell
// ---------------------------------------------------------------------------

// Both operators move leaf cells along the varying dimension only: the cell
// at (p, t, rest) of the input, p a varying-dimension position and t its
// parameter moment, lands at (At(p, t), t, rest) of the output, or nowhere
// when At(p, t) < 0. The instances of one member have pairwise disjoint
// validity sets, so for each t no two positions share a destination, and
// every output cell has at most one source cell. An empty table states no
// mapping.
struct DestTable {
  int universe = 0;           // Parameter moments per position.
  std::vector<int32_t> dest;  // dest[p * universe + t]; -1 = dropped.

  bool empty() const { return dest.empty(); }
  int32_t At(int pos, int t) const {
    return dest[static_cast<size_t>(pos) * universe + t];
  }
  // Applying this table, then `next` (whose positions are this table's
  // destinations). Empty when either table is.
  DestTable Then(const DestTable& next) const;
};

// ---------------------------------------------------------------------------
// Relocate (Definition 4.4)
// ---------------------------------------------------------------------------

// ρ(Cin, ṼS): builds the output cube whose leaf cells are
//     Cout(d, t, e) = Cin(d_t, t, e)   if t ∈ ṼS(d)
//     Cout(d, t, e) = ⊥                otherwise,
// where d_t is the instance of d's member valid at t in the INPUT cube.
// Non-leaf cells are not materialised (the evaluation mode decides which
// cube derived cells are computed from — see PerspectiveCube).
//
// `vs_out` is indexed by InstanceId of `varying_dim`; the output cube's
// dimension metadata is updated to these validity sets.
//
// `scope_members` optionally confines the data movement to instances of the
// given members (the Sec. 6.3 optimisation: "the instance merge operation is
// confined to query result sections with varying members"); cells of other
// members are omitted from the output (the caller reads them from the input
// cube — see PerspectiveCube). Empty scope = all members.
// `cells_moved`, when non-null, receives the number of leaf cells written.
//
// Data movement is chunk-native: a position-indexed destination table is
// precomputed along the varying/parameter dimensions, then contiguous cell
// runs are copied chunk-to-chunk (Chunk::CopyRunFrom), partitioned across
// `threads` pool workers by source-chunk range with per-task outputs merged
// deterministically. The result is bit-identical to a serial cell-at-a-time
// relocation at every thread count.
//
// `cancel` is polled at source-chunk granularity; a pass that observes a
// stop request returns a partially-filled output cube that the caller must
// check the token for and discard.
//
// `applied`, when non-null, receives the destination table the data
// movement used.
Cube Relocate(const Cube& in, int varying_dim,
              const std::vector<DynamicBitset>& vs_out,
              const std::vector<MemberId>& scope_members = {},
              int64_t* cells_moved = nullptr, int threads = 1,
              const CancellationToken& cancel = {},
              DestTable* applied = nullptr);

// ---------------------------------------------------------------------------
// Split (Definition 4.5) — positive scenarios
// ---------------------------------------------------------------------------

// One tuple of the positive-change relation R(m, o, n, t): "o is the current
// parent of m at moment t, hypothetically change it to n from t onward".
struct ChangeTuple {
  MemberId member = kInvalidMember;      // m: leaf of the varying dimension.
  MemberId old_parent = kInvalidMember;  // o: current parent at t.
  MemberId new_parent = kInvalidMember;  // n: hypothetical parent from t on.
  int moment = 0;                        // t: parameter-leaf ordinal.
};
using ChangeRelation = std::vector<ChangeTuple>;

// S(Cin, R): for every (m, o, n, t) splits the instance o/m into a
// "before t" version (keeps moments < t) and an "after t" version n/m
// (receives moments >= t and the corresponding cells). Fails when o is not
// actually m's parent over the reassigned moments.
//
// Uses the same chunk-native run-copy kernel as Relocate; `threads`
// parallelises the data movement with bit-identical results. `cancel` and
// `applied` as in Relocate: a cancelled pass's output must be discarded.
Result<Cube> Split(const Cube& in, int varying_dim, const ChangeRelation& r,
                   int threads = 1, const CancellationToken& cancel = {},
                   DestTable* applied = nullptr);

// ---------------------------------------------------------------------------
// Introduce — hypothetical new dimension values (positive schema delta)
// ---------------------------------------------------------------------------
//
// The relocate/split pair can only rearrange members that already exist.
// New-member introduction adds hypothetical dimension values — a new hire,
// a new department — as a positive delta over the validity-set epochs: a new
// leaf of a varying dimension receives one instance valid from `from_moment`
// onward (its epoch), and an optional allocation rule seeds its cells from
// an existing member's data.

struct NewMemberSpec {
  std::string name;    // Must not already exist in the dimension.
  std::string parent;  // Resolved by name at apply time (may itself have
                       // been introduced by an earlier spec in the batch).
  // True for a structural member (new department): no instance, no
  // positions until leaves are introduced beneath it. False for a new leaf
  // (new hire) with a single instance valid over its epoch.
  bool inner = false;
  int from_moment = 0;  // Epoch start: instance valid [from_moment, universe).

  // How the new leaf's cells are seeded (leaves only).
  enum class Seed {
    kNone,      // Introduced empty; every cell starts at ⊥.
    kClone,     // new(t, e) = factor * source(t, e) over the epoch.
    kTransfer,  // Moves factor of source's value: source keeps (1-factor).
  };
  Seed seed = Seed::kNone;
  std::string source;    // Existing leaf whose cells seed the new member.
  double factor = 0.0;   // Clone scale / transfer fraction. 0 => no delta.
};

// Applies the schema half of an introduction batch to `schema` in spec
// order: AddInnerMember for inner specs, AddMember + epoch validity for
// leaves. Shared by the operator below and by the MDX binder (which must
// bind axis references against the augmented schema with identical member
// and instance ids).
Status ApplyIntroductions(Schema* schema, int varying_dim,
                          const std::vector<NewMemberSpec>& specs);

// I(Cin, specs): the output cube over the augmented schema. Existing cells
// copy through unchanged (same chunk-native run-copy kernel as Relocate;
// bit-identical at every thread count); seeding rules are then applied
// serially in spec order, so chained introductions (a clone of a clone)
// are deterministic. `cells_seeded`, when non-null, receives the number of
// cells written (or rewritten, for kTransfer sources) by seeding rules.
Result<Cube> IntroduceMembers(const Cube& in, int varying_dim,
                              const std::vector<NewMemberSpec>& specs,
                              int threads = 1,
                              const CancellationToken& cancel = {},
                              int64_t* cells_seeded = nullptr);

// ---------------------------------------------------------------------------
// Allocate — data-driven hypothetical scenarios
// ---------------------------------------------------------------------------
//
// The paper's other family of what-if scenarios keeps the structure fixed
// and moves data: "assume that 10% of PTEs' salary during first quarter in
// NY was instead given to PTEs in MA — structure stays the same but data
// allocation changes" (Sec. 1). Allocate implements exactly that shape.

struct AllocationSpec {
  // The dimension whose coordinate changes, and the single leaf position
  // the data moves FROM / TO along it (e.g. Location: NY -> MA).
  int dim = -1;
  AxisRef from;
  AxisRef to;
  // Region restrictions on other dimensions: a cell participates only when
  // its coordinate lies under the given member (e.g. Organization=PTE,
  // Time=Qtr1, Measures=Salary). Dimensions without a restriction are
  // unconstrained.
  std::vector<std::pair<int, AxisRef>> region;
  // Fraction of each participating cell's value moved, in [0, 1].
  double fraction = 0.0;
};

// For every leaf cell c in the region with c[dim] = from: subtracts
// fraction*value at c and adds it to the cell with c[dim] = to (other
// coordinates unchanged). `from` and `to` must resolve to single leaf
// positions of `dim`. The total over the cube is preserved.
Result<Cube> Allocate(const Cube& in, const AllocationSpec& spec);

}  // namespace olap

#endif  // OLAP_WHATIF_OPERATORS_H_
