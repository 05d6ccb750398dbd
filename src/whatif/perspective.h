#ifndef OLAP_WHATIF_PERSPECTIVE_H_
#define OLAP_WHATIF_PERSPECTIVE_H_

#include <string>
#include <vector>

#include "common/bitset.h"
#include "dimension/dimension.h"

namespace olap {

// The semantics of a negative-scenario what-if query (Sec. 3.3):
// which structure is imposed where.
enum class Semantics {
  kStatic,            // Keep only the structures at the perspective moments.
  kForward,           // Impose structure at p_i onto [p_i, p_{i+1}).
  kExtendedForward,   // Forward, plus impose structure at Pmin onto the past.
  kBackward,          // Forward with moments ordered descending.
  kExtendedBackward,  // Extended forward, descending.
};

// How non-leaf (derived) cells of the output cube are computed (Sec. 3.3):
// non-visual retains the input cube's derived values; visual re-evaluates
// the rules on the transformed cube.
enum class EvalMode {
  kNonVisual,
  kVisual,
};

const char* SemanticsName(Semantics s);
const char* EvalModeName(EvalMode m);

// A set of perspectives: leaf-member ordinals ("moments") of the parameter
// dimension, kept sorted ascending and deduplicated.
class Perspectives {
 public:
  Perspectives() = default;
  // `moments` are parameter-dimension leaf ordinals; duplicates are dropped.
  explicit Perspectives(std::vector<int> moments);

  bool empty() const { return moments_.empty(); }
  int size() const { return static_cast<int>(moments_.size()); }
  const std::vector<int>& moments() const { return moments_; }
  int min() const { return moments_.front(); }

  // The latest perspective <= t (max of P_t in the paper's notation),
  // or -1 when t precedes every perspective.
  int GoverningPerspective(int t) const;

  // The perspective range [p_i, p_{i+1}) containing p_i; for the last
  // perspective the range extends to `universe` (exclusive).
  int RangeEnd(int perspective_index, int universe) const;

  std::string ToString() const;

 private:
  std::vector<int> moments_;
};

// Computes Stretch(d) (Definition 4.3): the moments t >= Pmin whose
// governing perspective lies in `vs_in` — i.e. the union of the intervals
// [p_i, p_{i+1}) for which d was valid at p_i.
DynamicBitset Stretch(const DynamicBitset& vs_in, const Perspectives& p);

// The Φ operator (Sec. 4.2): transforms the input validity set of one
// member instance into its output validity set under the given semantics.
//
//   static:            VSout = VSin when VSin ∩ P ≠ ∅, else ∅.
//   forward:           VSout = Stretch ∪ {t < Pmin | t ∈ VSin},
//                      or ∅ when Stretch = ∅.
//   extended forward:  as forward, but all t < Pmin go to the instance
//                      valid at Pmin.
//   backward variants: the forward variants on the reversed moment axis.
//
// Requires a non-empty perspective set.
DynamicBitset Phi(const DynamicBitset& vs_in, const Perspectives& p,
                  Semantics semantics);

// Applies Phi to every instance of `dim`, returning output validity sets
// indexed by InstanceId. Instances of members untouched by any perspective
// (Stretch empty / no overlap) come back with empty validity sets — they
// are not active in the output cube (Definition 3.4). Each result is also
// masked by the member's overall activity, because Definitions 3.3/3.4
// exclude "those moments t for which no instance d_t exists in Cin".
// A non-empty `members` limits the work to those members' instances; every
// other entry is then a default-constructed (zero-universe) set, for
// scoped computations that never read it.
std::vector<DynamicBitset> TransformValiditySets(
    const Dimension& dim, const Perspectives& p, Semantics semantics,
    const std::vector<MemberId>& members = {});

}  // namespace olap

#endif  // OLAP_WHATIF_PERSPECTIVE_H_
