// Randomized equivalence: BatchCellEvaluator must return exactly what the
// per-cell EvaluateCell oracle returns for every derived cell — on fuzzed
// hierarchies with non-trivial consolidation weights, on ⊥-heavy sparse
// cubes, on what-if transformed cubes, with and without a persistent
// AggregateCache, and at every materialization thread count.
//
// Cubes hold small integer values and weights from {1.0, 2.0, 0.5, -1.0}
// (all exactly representable, with exactly representable products and
// sums), so double arithmetic is exact and the comparison can be bitwise
// even though batched evaluation re-associates the sums.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate_cache.h"
#include "agg/batch_eval.h"
#include "common/rng.h"
#include "support/naive_aggregator.h"
#include "whatif/operators.h"
#include "whatif/perspective.h"
#include "whatif/perspective_cube.h"

namespace olap {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

double RandomWeight(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0: return 1.0;
    case 1: return 2.0;
    case 2: return 0.5;
    default: return -1.0;
  }
}

struct FuzzWorld {
  Cube cube;
  int org_dim = 0;
  int time_dim = 1;
  int measures_dim = 2;
  std::vector<MemberId> groups;
  std::vector<MemberId> members;   // Org leaves.
  std::vector<MemberId> times;     // Time leaves.
  std::vector<MemberId> measures;  // Measure leaves.
  int months = 0;
};

// Random 3-dim world: a varying Org hierarchy (groups with weighted
// children, reparented over time), a parameter Time dimension, and a
// weighted Measures dimension. `fill` is the probability a valid leaf cell
// is written; low values produce the ⊥-heavy cubes the plan's null-scope
// and all-⊥ fiber paths need.
FuzzWorld BuildFuzzWorld(uint64_t seed, double fill) {
  Rng rng(seed);
  const int months = 4 + static_cast<int>(rng.NextBelow(9));       // 4..12
  const int num_members = 3 + static_cast<int>(rng.NextBelow(8));  // 3..10
  const int num_changes = static_cast<int>(rng.NextBelow(7));      // 0..6
  const int num_measures = 1 + static_cast<int>(rng.NextBelow(3));

  Schema schema;
  Dimension org("Org");
  FuzzWorld world;
  const int num_groups = std::min(4, num_members);
  for (int g = 0; g < num_groups; ++g) {
    world.groups.push_back(
        *org.AddChildOfRoot("G" + std::to_string(g), RandomWeight(&rng)));
  }
  for (int m = 0; m < num_members; ++m) {
    world.members.push_back(*org.AddMember("M" + std::to_string(m),
                                           world.groups[m % num_groups],
                                           RandomWeight(&rng)));
  }
  Dimension time("Time", DimensionKind::kParameter);
  for (int t = 0; t < months; ++t) {
    world.times.push_back(*time.AddChildOfRoot("T" + std::to_string(t)));
  }
  Dimension measures("Measures", DimensionKind::kMeasure);
  for (int v = 0; v < num_measures; ++v) {
    world.measures.push_back(*measures.AddChildOfRoot(
        "V" + std::to_string(v), RandomWeight(&rng)));
  }

  world.months = months;
  world.org_dim = schema.AddDimension(std::move(org));
  world.time_dim = schema.AddDimension(std::move(time));
  world.measures_dim = schema.AddDimension(std::move(measures));
  EXPECT_TRUE(schema.BindVarying(world.org_dim, world.time_dim, true).ok());

  Dimension* mut = schema.mutable_dimension(world.org_dim);
  for (int c = 0; c < num_changes; ++c) {
    MemberId member = world.members[rng.NextBelow(world.members.size())];
    MemberId target = world.groups[rng.NextBelow(world.groups.size())];
    int moment = static_cast<int>(rng.NextBelow(months));
    EXPECT_TRUE(mut->ApplyChange(member, target, moment).ok());
  }

  CubeOptions options;
  options.chunk_sizes = {1 + static_cast<int>(rng.NextBelow(4)),
                         1 + static_cast<int>(rng.NextBelow(4)),
                         1 + static_cast<int>(rng.NextBelow(3))};
  Cube cube(std::move(schema), options);
  const Dimension& d = cube.schema().dimension(world.org_dim);
  for (const MemberInstance& inst : d.instances()) {
    for (int t = inst.validity.FindFirst(); t >= 0;
         t = inst.validity.FindNext(t + 1)) {
      for (int v = 0; v < num_measures; ++v) {
        if (rng.NextBool(fill)) {
          cube.SetCell({inst.id, t, v},
                       CellValue(1.0 + static_cast<double>(rng.NextBelow(100))));
        }
      }
    }
  }
  world.cube = std::move(cube);
  return world;
}

uint64_t BitsOf(CellValue v) {
  double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

// A random AxisRef along `dim` of `cube`: the root, a mid-level or leaf
// member, or (for varying dimensions) a pinned instance.
AxisRef RandomAxisRef(const Cube& cube, int dim, Rng* rng) {
  const Dimension& d = cube.schema().dimension(dim);
  switch (rng->NextBelow(4)) {
    case 0:
      return AxisRef::OfMember(d.root());
    case 1:
      if (d.num_instances() > 0) {
        InstanceId i =
            static_cast<InstanceId>(rng->NextBelow(d.num_instances()));
        return AxisRef::OfInstance(d.instance(i).member, i);
      }
      [[fallthrough]];
    default:
      return AxisRef::OfMember(
          static_cast<MemberId>(1 + rng->NextBelow(d.num_members() - 1)));
  }
}

std::vector<CellRef> RandomRefs(const Cube& cube, Rng* rng, int count) {
  std::vector<CellRef> refs;
  refs.reserve(count);
  for (int i = 0; i < count; ++i) {
    CellRef ref;
    for (int dim = 0; dim < cube.num_dims(); ++dim) {
      ref.push_back(RandomAxisRef(cube, dim, rng));
    }
    refs.push_back(std::move(ref));
    // Duplicate some refs so masks reach the planner's two-ref minimum and
    // views get planned (a grid would share masks naturally).
    if (rng->NextBool(0.3)) refs.push_back(refs.back());
  }
  return refs;
}

void ExpectBatchMatchesOracle(const Cube& cube, const AggregateCache* cache,
                              const std::vector<CellRef>& refs,
                              const std::string& context) {
  std::vector<uint64_t> expect;
  expect.reserve(refs.size());
  for (const CellRef& ref : refs) expect.push_back(BitsOf(EvaluateCell(cube, ref)));

  for (int threads : kThreadCounts) {
    BatchEvalOptions options;
    options.threads = threads;
    BatchCellEvaluator batch(cube, cache, options);
    batch.PrepareRefs(refs);
    for (size_t i = 0; i < refs.size(); ++i) {
      ASSERT_EQ(expect[i], BitsOf(batch.Evaluate(refs[i])))
          << context << " ref " << i << " threads " << threads;
    }
  }
}

TEST(BatchedRollupTest, PreparedRefsMatchEvaluateCell) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed, 0.7);
    Rng rng(seed * 7919 + 11);
    std::vector<CellRef> refs = RandomRefs(world.cube, &rng, 24);
    ExpectBatchMatchesOracle(world.cube, nullptr, refs,
                             "seed " + std::to_string(seed));
  }
}

TEST(BatchedRollupTest, SparseCubesAndEmptyScopes) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    // fill=0.1: most fibers are all-⊥, so view cells must come back ⊥ and
    // derived cells over them must stay ⊥, bit-for-bit.
    FuzzWorld world = BuildFuzzWorld(seed + 500, 0.1);
    Rng rng(seed * 104729 + 13);
    std::vector<CellRef> refs = RandomRefs(world.cube, &rng, 24);
    ExpectBatchMatchesOracle(world.cube, nullptr, refs,
                             "sparse seed " + std::to_string(seed));
  }
}

TEST(BatchedRollupTest, GridPreparationMatchesEvaluateCell) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed + 1000, 0.6);
    const Cube& cube = world.cube;
    const Dimension& org = cube.schema().dimension(world.org_dim);

    // The executor's grid construction: a base ref plus per-row and
    // per-column (dimension, AxisRef) overrides; the row override applies
    // first, then the column's.
    CellRef base;
    for (int dim = 0; dim < cube.num_dims(); ++dim) {
      base.push_back(
          AxisRef::OfMember(cube.schema().dimension(dim).root()));
    }
    std::vector<std::vector<std::pair<int, AxisRef>>> rows, cols;
    rows.push_back({});  // Grand-total row.
    for (MemberId g : world.groups) {
      rows.push_back({{world.org_dim, AxisRef::OfMember(g)}});
    }
    for (MemberId m : world.members) {
      rows.push_back({{world.org_dim, AxisRef::OfMember(m)}});
    }
    cols.push_back({{world.time_dim, AxisRef::OfMember(
                         cube.schema().dimension(world.time_dim).root())}});
    for (MemberId t : world.times) {
      for (MemberId v : world.measures) {
        cols.push_back({{world.time_dim, AxisRef::OfMember(t)},
                        {world.measures_dim, AxisRef::OfMember(v)}});
      }
    }

    for (int threads : kThreadCounts) {
      BatchEvalOptions options;
      options.threads = threads;
      BatchCellEvaluator batch(cube, nullptr, options);
      batch.PrepareGrid(base, rows, cols);
      for (const auto& row : rows) {
        for (const auto& col : cols) {
          CellRef ref = base;
          for (const auto& [dim, axis] : row) ref[dim] = axis;
          for (const auto& [dim, axis] : col) ref[dim] = axis;
          ASSERT_EQ(BitsOf(EvaluateCell(cube, ref)),
                    BitsOf(batch.Evaluate(ref)))
              << "seed " << seed << " threads " << threads << " org "
              << org.PathName(ref[world.org_dim].member);
        }
      }
    }
  }
}

TEST(BatchedRollupTest, WhatIfTransformedCubesMatch) {
  int evaluated = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed + 2000, 0.7);
    Rng rng(seed * 6151 + 17);

    WhatIfSpec spec;
    spec.varying_dim = world.org_dim;
    std::vector<int> moments;
    const int k = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < k; ++i) {
      moments.push_back(static_cast<int>(rng.NextBelow(world.months)));
    }
    spec.perspectives = Perspectives(std::move(moments));
    switch (rng.NextBelow(5)) {
      case 0: spec.semantics = Semantics::kStatic; break;
      case 1: spec.semantics = Semantics::kForward; break;
      case 2: spec.semantics = Semantics::kBackward; break;
      case 3: spec.semantics = Semantics::kExtendedForward; break;
      default: spec.semantics = Semantics::kExtendedBackward; break;
    }

    Result<PerspectiveCube> pc = ComputePerspectiveCube(world.cube, spec);
    ASSERT_TRUE(pc.ok()) << pc.status().ToString();

    // Batched evaluation on the *transformed* cube — the scratch cache is
    // the only aggregate reuse a what-if query gets.
    const Cube& out = pc->output();
    std::vector<CellRef> refs = RandomRefs(out, &rng, 20);
    ExpectBatchMatchesOracle(out, nullptr, refs,
                             "whatif seed " + std::to_string(seed));
    evaluated += static_cast<int>(refs.size());
  }
  EXPECT_GT(evaluated, 0);
}

TEST(BatchedRollupTest, PersistentCacheDoesNotChangeValues) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    FuzzWorld world = BuildFuzzWorld(seed + 3000, 0.7);
    Rng rng(seed * 31 + 19);

    // Materialize a few persistent views; the batch planner must skip
    // masks they cover yet serve identical values through them.
    std::vector<GroupByMask> masks = {GroupByMask{0b010}, GroupByMask{0b011},
                                      GroupByMask{0b110}};
    AggregateCache cache(world.cube, masks, 1);

    std::vector<CellRef> refs = RandomRefs(world.cube, &rng, 24);
    ExpectBatchMatchesOracle(world.cube, nullptr, refs,
                             "nocache seed " + std::to_string(seed));
    ExpectBatchMatchesOracle(world.cube, &cache, refs,
                             "cache seed " + std::to_string(seed));
  }
}

TEST(BatchedRollupTest, ScratchCacheCountsServedCells) {
  FuzzWorld world = BuildFuzzWorld(42, 0.9);
  const Cube& cube = world.cube;

  // Many refs sharing the mask {org}: the planner must materialize a view
  // and serve from it (hits on the scratch cache), not fall back to leaf
  // roll-up for each.
  std::vector<CellRef> refs;
  for (MemberId g : world.groups) {
    for (MemberId t : world.times) {
      refs.push_back({AxisRef::OfMember(g), AxisRef::OfMember(t),
                      AxisRef::OfMember(
                          cube.schema().dimension(world.measures_dim).root())});
    }
  }
  BatchCellEvaluator batch(cube, nullptr);
  batch.PrepareRefs(refs);
  ASSERT_NE(batch.scratch(), nullptr);
  for (const CellRef& ref : refs) {
    ASSERT_EQ(BitsOf(EvaluateCell(cube, ref)), BitsOf(batch.Evaluate(ref)));
  }
  EXPECT_GT(batch.scratch()->hits.load(), 0);
}

}  // namespace
}  // namespace olap
