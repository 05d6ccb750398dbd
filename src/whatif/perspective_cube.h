#ifndef OLAP_WHATIF_PERSPECTIVE_CUBE_H_
#define OLAP_WHATIF_PERSPECTIVE_CUBE_H_

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "cube/cube.h"
#include "rules/evaluator.h"
#include "storage/simulated_disk.h"
#include "whatif/merge_graph.h"
#include "whatif/operators.h"
#include "whatif/perspective.h"

namespace olap {

// A complete what-if specification: the parsed form of the paper's extended
// MDX clauses
//
//   WITH PERSPECTIVE {p1,...,pk} FOR <dim> <semantics> <mode>    (negative)
//   WITH CHANGES R(m,o,n,t) <mode>                               (positive)
//   WITH INTRODUCE {(name, parent, ...)} FOR <dim> <mode>        (positive)
//
// A query may carry all three (introductions applied first, then positive
// changes, then perspectives).
struct WhatIfSpec {
  int varying_dim = -1;
  Perspectives perspectives;  // Empty => no negative scenario.
  Semantics semantics = Semantics::kStatic;
  EvalMode mode = EvalMode::kNonVisual;
  ChangeRelation changes;  // Empty => no positive scenario.
  // Hypothetical new members, applied before `changes` (a change may then
  // reference an introduced member). Empty => no introduction.
  std::vector<NewMemberSpec> introductions;
  // Optional Sec. 6.3 optimisation: restrict instance merging to these
  // members (the varying members actually in the query's scope). Empty =>
  // every member.
  std::vector<MemberId> scope_members;
  // Order the merge-relevant chunk reads by the Sec. 5.2 pebbling
  // heuristic instead of ascending chunk id: minimises the peak number of
  // chunks that must be co-resident for merging (EvalStats reports both).
  bool pebbling_read_order = false;
};

// How the perspective cube is computed (the paper's Fig. 11 comparison).
enum class EvalStrategy {
  // One pass: perspectives organised into ranges, structures imposed
  // directly (the paper's implementation).
  kDirect,
  // Upper-bound simulation: one single-perspective query per p_i plus
  // post-processing of the k result sets into one (the paper's
  // "Multiple MDX" series).
  kMultipleMdx,
};

// Work counters for one perspective-cube computation.
struct EvalStats {
  int64_t passes = 0;          // Scans over the relevant chunks.
  int64_t chunk_reads = 0;     // Chunks fetched (before cache).
  int64_t cells_moved = 0;     // Leaf cells written into the output.
  int64_t cells_seeded = 0;    // Cells written by introduction seeding rules.
  double virtual_io_seconds = 0.0;  // From the SimulatedDisk, if any.
  // Peak chunks that had to stay co-resident for instance merging, under
  // the read order actually used (Sec. 5.2's pebble count).
  int peak_merge_chunks = 0;
};

// The result of a what-if query: the transformed cube, and the router
// that names the cube each of its cells is evaluated on (CellEvaluator,
// rules/evaluator.h, evaluates them).
//
// The input cube must outlive this object (non-visual evaluation and
// out-of-scope leaf reads go to it). The object owns an output cube only
// when an op produced one; a stack with no op hands back its input, and
// output() is then the input itself.
//
// When the computation was scoped to a member set (non-visual mode only),
// the output cube holds only the scoped members' relocated cells; leaf
// reads of other members go to the input cube.
class PerspectiveCube final : public CellRouter {
 public:
  PerspectiveCube(const Cube* input, std::optional<Cube> output, EvalMode mode,
                  int varying_dim = -1,
                  std::vector<MemberId> scoped_members = {})
      : input_(input),
        output_(std::move(output)),
        mode_(mode),
        varying_dim_(varying_dim),
        scoped_members_(scoped_members.begin(), scoped_members.end()) {}

  const Cube& input() const override { return *input_; }
  const Cube& output() const override {
    return output_.has_value() ? *output_ : *input_;
  }
  // False when no op ran: output() is then the input.
  bool has_output() const { return output_.has_value(); }
  // For delta refresh: rewrite output cells in place. Null when no op ran.
  Cube* mutable_output() { return output_.has_value() ? &*output_ : nullptr; }
  EvalMode mode() const { return mode_; }

  // The routing table (Sec. 3.3, 6.3):
  //  * a leaf ref that no rule defines reads the output, or the input
  //    when its varying member is outside the computation's scope;
  //  * any other ref is evaluated on the output in VISUAL mode and on the
  //    input in non-visual mode, which retains the input's derived
  //    values, except that a ref naming an instance a Split created or a
  //    member INTRODUCE added (which the input lacks) uses the output.
  Target Route(const CellRef& ref,
               const std::vector<int>* leaf_coords) const override;

 private:
  const Cube* input_;
  std::optional<Cube> output_;
  EvalMode mode_;
  int varying_dim_;
  std::unordered_set<MemberId> scoped_members_;
};

// Execution knobs of a what-if computation, shared by ComputePerspectiveCube,
// scenario composition and comparison.
//
// `disk` (optional) charges every chunk fetched during the computation to
// the simulated device; `stats` (optional) is reset, then receives the work
// counters accumulated across every op. `eval_threads` parallelises the
// Split/Relocate data movement over the shared thread pool; results are
// bit-identical at every thread count.
//
// `pipelined_io` (needs `disk`) switches the read passes from the
// per-chunk charge loop to the charge-only coalescing walk
// (SimulatedDisk::ReadSchedule without a sink): runs of adjacent chunk ids
// in the pebbling schedule's window are charged as single ranged reads.
// Charging only; the computed cube is identical.
//
// `cancel` is polled at pass boundaries and threaded into the Split /
// Relocate data movement (chunk granularity); a stop request returns
// kCancelled / kDeadlineExceeded with no partially-built cube escaping.
struct ScenarioEvalOptions {
  EvalStrategy strategy = EvalStrategy::kDirect;
  SimulatedDisk* disk = nullptr;
  EvalStats* stats = nullptr;
  int eval_threads = 1;
  bool pipelined_io = false;
  CancellationToken cancel;
};

// Computes the perspective cube for `spec` over `in`: the scenario
// ScenarioSpec::FromWhatIf(spec) evaluated by ComputeScenario
// (whatif/scenario_algebra.h).
Result<PerspectiveCube> ComputePerspectiveCube(
    const Cube& in, const WhatIfSpec& spec,
    const ScenarioEvalOptions& opts = {});

// --- Lemma 5.1 / Sec. 5.2 planning helpers --------------------------------

// Chunk ids that hold data of the scoped members' instances (the chunks a
// scoped perspective query must read), ascending.
std::vector<ChunkId> RelevantChunks(const Cube& in, int varying_dim,
                                    const std::vector<MemberId>& scope_members);

// The full memory picture behind Lemma 5.1. Each merge-graph chunk must
// stay buffered from the traversal step that reads it until the step that
// reads its last merge partner. Measured on the full chunk-grid timeline:
//  * peak_chunks      — max simultaneously buffered chunks;
//  * buffer_steps     — Σ over chunks of (release step - read step + 1),
//                       i.e. buffered-chunk × traversal-step area. This is
//                       the quantity a varying-dimension-first order
//                       shrinks dramatically ("we need to hold all those
//                       chunks in memory till the corresponding chunks ...
//                       are read in", Sec. 5.1).
struct MergeResidency {
  int peak_chunks = 0;
  int64_t buffer_steps = 0;
};
MergeResidency MergeResidencyForOrder(const Cube& in, int varying_dim,
                                      const std::vector<MemberId>& members,
                                      const std::vector<int>& dim_order);

}  // namespace olap

#endif  // OLAP_WHATIF_PERSPECTIVE_CUBE_H_
