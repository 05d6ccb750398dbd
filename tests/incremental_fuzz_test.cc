// Randomized delta-vs-full-recompute equivalence for IncrementalScenario.
//
// Each round builds a random varying-dimension world (random hierarchy,
// structural changes, chunk sizes), draws a random scenario stack
// (relocate / split / introduce, a third of the rounds scoped to a random
// member subset), then replays a random multi-batch edit stream through
// IncrementalScenario::ApplyDelta and checks the retained output cube is
// BITWISE identical to a from-scratch ComputeScenario on the edited base,
// stored-chunk sets included — at 1, 2, 4 and 8 evaluation threads, and
// across thread counts. Every batch must take the cell path unless the
// stack introduces members. Cell values are integer-valued, so every sum
// is exact and bit-identity is the honest gate (DESIGN.md §13 convention).
//
// Failures reproduce from the printed seed.

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "whatif/delta.h"
#include "whatif/operators.h"
#include "whatif/perspective.h"
#include "whatif/scenario_algebra.h"

namespace olap {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct FuzzWorld {
  Cube cube;
  int org_dim = 0;
  int time_dim = 1;
  std::vector<MemberId> members;
  std::vector<MemberId> groups;
  std::vector<std::string> group_names;
  int months = 0;
  int measures = 0;
};

FuzzWorld BuildFuzzWorld(uint64_t seed) {
  Rng rng(seed);
  FuzzWorld world;
  const int months = 4 + static_cast<int>(rng.NextBelow(7));       // 4..10
  const int num_members = 3 + static_cast<int>(rng.NextBelow(6));  // 3..8
  const int num_changes = static_cast<int>(rng.NextBelow(6));      // 0..5
  const int num_measures = 1 + static_cast<int>(rng.NextBelow(3));

  Schema schema;
  Dimension org("Org");
  const int num_groups = std::min(4, num_members);
  for (int g = 0; g < num_groups; ++g) {
    world.group_names.push_back("G" + std::to_string(g));
    world.groups.push_back(*org.AddChildOfRoot(world.group_names.back()));
  }
  for (int m = 0; m < num_members; ++m) {
    world.members.push_back(
        *org.AddMember("M" + std::to_string(m), world.groups[m % num_groups]));
  }
  Dimension time("Time", DimensionKind::kParameter);
  for (int t = 0; t < months; ++t) {
    EXPECT_TRUE(time.AddChildOfRoot("T" + std::to_string(t)).ok());
  }
  Dimension measures("Measures", DimensionKind::kMeasure);
  for (int v = 0; v < num_measures; ++v) {
    EXPECT_TRUE(measures.AddChildOfRoot("V" + std::to_string(v)).ok());
  }
  world.months = months;
  world.measures = num_measures;
  world.org_dim = schema.AddDimension(std::move(org));
  world.time_dim = schema.AddDimension(std::move(time));
  schema.AddDimension(std::move(measures));
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
        if (rng.NextBool(0.7)) {
          // Integer values: exact sums, honest bit-identity.
          cube.SetCell({inst.id, t, v},
                       CellValue(1.0 + rng.NextBelow(1000)));
        }
      }
    }
  }
  world.cube = std::move(cube);
  return world;
}

Semantics RandomSemantics(Rng* rng) {
  switch (rng->NextBelow(5)) {
    case 0: return Semantics::kStatic;
    case 1: return Semantics::kForward;
    case 2: return Semantics::kBackward;
    case 3: return Semantics::kExtendedForward;
    default: return Semantics::kExtendedBackward;
  }
}

// Draws one op valid against `current`. `allow_introduce` — introduce ops
// force the full-recompute fallback, so most rounds exclude them to keep
// the incremental path under test.
ScenarioOp RandomOp(Rng* rng, const FuzzWorld& world, const Cube& current,
                    bool allow_introduce, int* intro_counter) {
  const Dimension& dim = current.schema().dimension(world.org_dim);
  const int kind =
      static_cast<int>(rng->NextBelow(allow_introduce ? 3u : 2u));
  if (allow_introduce && kind == 2) {
    NewMemberSpec spec;
    spec.name = "New" + std::to_string((*intro_counter)++);
    spec.parent = world.group_names[rng->NextBelow(world.group_names.size())];
    spec.from_moment = static_cast<int>(rng->NextBelow(world.months));
    return ScenarioOp::Introduce({spec});
  }
  if (kind == 1) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      MemberId m = world.members[rng->NextBelow(world.members.size())];
      int moment = static_cast<int>(rng->NextBelow(world.months));
      InstanceId inst = dim.InstanceValidAt(m, moment);
      if (inst == kInvalidInstance) continue;
      MemberId target = world.groups[rng->NextBelow(world.groups.size())];
      return ScenarioOp::SplitOp(
          {ChangeTuple{m, dim.instance(inst).parent, target, moment}});
    }
  }
  std::vector<int> moments;
  const int k = 1 + static_cast<int>(rng->NextBelow(3));
  for (int i = 0; i < k; ++i) {
    moments.push_back(static_cast<int>(rng->NextBelow(world.months)));
  }
  return ScenarioOp::Perspective(Perspectives(std::move(moments)),
                                 RandomSemantics(rng));
}

uint64_t BitsOfStorage(double raw) {
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

void ExpectBitwiseEqual(const Cube& expected, const Cube& actual,
                        const std::string& context) {
  std::map<ChunkId, const Chunk*> ea, aa;
  expected.ForEachChunk([&](ChunkId id, const Chunk& c) { ea[id] = &c; });
  actual.ForEachChunk([&](ChunkId id, const Chunk& c) { aa[id] = &c; });
  ASSERT_EQ(ea.size(), aa.size()) << context << ": stored chunk count differs";
  for (const auto& [id, chunk] : ea) {
    auto it = aa.find(id);
    ASSERT_TRUE(it != aa.end()) << context << ": chunk " << id << " missing";
    for (int64_t off = 0; off < chunk->size(); ++off) {
      ASSERT_EQ(BitsOfStorage(CellValue::ToStorage(chunk->Get(off))),
                BitsOfStorage(CellValue::ToStorage(it->second->Get(off))))
          << context << ": chunk " << id << " offset " << off;
    }
  }
}

// One random edit stream: `num_batches` batches of 1..6 writes at uniform
// coordinates (occasionally ⊥, clearing the cell). Values are integers.
struct EditStream {
  uint64_t seed;
  int num_batches;
};

// Replays the stream against a fresh copy of the world through an
// IncrementalScenario at `threads`, returning the retained output cube.
// The same seed produces the same writes at every thread count. Every
// batch must refresh by full recompute exactly when `expect_full`.
Cube ReplayIncremental(const FuzzWorld& world, const ScenarioSpec& spec,
                       const EditStream& stream, int threads,
                       bool expect_full) {
  Cube cube = world.cube;
  ScenarioEvalOptions so;
  so.eval_threads = threads;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {spec}, so);
  EXPECT_TRUE(inc.ok()) << inc.status().ToString();

  Rng rng(stream.seed);
  const std::vector<int>& extents = cube.layout().extents();
  for (int b = 0; b < stream.num_batches; ++b) {
    DeltaBatch batch(&cube);
    const int writes = 1 + static_cast<int>(rng.NextBelow(6));
    for (int w = 0; w < writes; ++w) {
      std::vector<int> coords(3);
      for (int d = 0; d < 3; ++d) {
        coords[d] = static_cast<int>(rng.NextBelow(extents[d]));
      }
      CellValue v = rng.NextBool(0.15)
                        ? CellValue::Null()
                        : CellValue(1.0 + rng.NextBelow(1000));
      EXPECT_TRUE(batch.Set(coords, v).ok());
    }
    RefreshOptions ro;
    ro.eval_threads = threads;
    RefreshStats stats;
    Status s = inc->ApplyDelta(batch, ro, &stats);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(stats.full_recompute, expect_full) << "batch " << b;
  }
  // Hand back cube + retained output; cube content equals world.cube plus
  // the stream, identically at every thread count.
  return Cube(inc->cube().output());
}

TEST(IncrementalFuzzTest, RefreshMatchesFullRecomputeBitwiseAtEveryThreadCount) {
  for (uint64_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FuzzWorld world = BuildFuzzWorld(seed + 9100);
    Rng rng(seed * 2654435761u + 41);

    // Single-spec stacks: 1..3 ops; introduce allowed on a quarter of the
    // rounds (testing the full-recompute fallback).
    const bool allow_introduce = (seed % 4) == 3;
    ScenarioSpec spec;
    spec.varying_dim = world.org_dim;
    spec.mode = rng.NextBool(0.5) ? EvalMode::kVisual : EvalMode::kNonVisual;
    const int num_ops = 1 + static_cast<int>(rng.NextBelow(3));
    Cube staged = world.cube;
    int intro_counter = 0;
    bool has_introduce = false;
    for (int i = 0; i < num_ops; ++i) {
      ScenarioOp op =
          RandomOp(&rng, world, staged, allow_introduce, &intro_counter);
      ScenarioSpec stage_spec;
      stage_spec.varying_dim = world.org_dim;
      stage_spec.ops = {op};
      Result<PerspectiveCube> next = ComputeScenario(staged, stage_spec);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      staged = next->output();
      if (op.kind == ScenarioOp::Kind::kIntroduce) has_introduce = true;
      spec.ops.push_back(std::move(op));
    }
    // Scoped rounds merge only a random member subset (non-visual, which
    // scoping requires), so the output holds only those members' cells.
    if (seed % 3 == 1) {
      spec.mode = EvalMode::kNonVisual;
      for (MemberId m : world.members) {
        if (rng.NextBool(0.5)) spec.scope_members.push_back(m);
      }
      if (spec.scope_members.empty()) {
        spec.scope_members.push_back(world.members.front());
      }
    }

    EditStream stream{seed * 7919u + 3, 1 + static_cast<int>(seed % 3)};

    // Oracle: replay the same stream on a plain cube, then full recompute.
    Cube oracle_base = world.cube;
    {
      Rng replay(stream.seed);
      const std::vector<int>& extents = oracle_base.layout().extents();
      for (int b = 0; b < stream.num_batches; ++b) {
        const int writes = 1 + static_cast<int>(replay.NextBelow(6));
        for (int w = 0; w < writes; ++w) {
          std::vector<int> coords(3);
          for (int d = 0; d < 3; ++d) {
            coords[d] = static_cast<int>(replay.NextBelow(extents[d]));
          }
          CellValue v = replay.NextBool(0.15)
                            ? CellValue::Null()
                            : CellValue(1.0 + replay.NextBelow(1000));
          oracle_base.SetCell(coords, v);
        }
      }
    }
    Result<PerspectiveCube> oracle = ComputeScenario(oracle_base, spec);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    Cube serial = ReplayIncremental(world, spec, stream, 1, has_introduce);
    ExpectBitwiseEqual(oracle->output(), serial, "threads=1 vs oracle");
    for (int threads : kThreadCounts) {
      if (threads == 1) continue;
      Cube parallel =
          ReplayIncremental(world, spec, stream, threads, has_introduce);
      ExpectBitwiseEqual(oracle->output(), parallel,
                         "threads=" + std::to_string(threads) + " vs oracle");
      ExpectBitwiseEqual(serial, parallel,
                         "threads=" + std::to_string(threads) + " vs serial");
    }
  }
}

}  // namespace
}  // namespace olap
