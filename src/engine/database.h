#ifndef OLAP_ENGINE_DATABASE_H_
#define OLAP_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "agg/aggregate_cache.h"
#include "common/status.h"
#include "cube/cube.h"
#include "mdx/binder.h"
#include "rules/rule.h"
#include "storage/cube_io.h"
#include "storage/retry.h"
#include "whatif/delta.h"

namespace olap {

// Catalog of cubes, rule sets and named sets — the "application/database"
// the extended-MDX FROM clause addresses. Plays the role Essbase plays in
// the paper's experiments.
class Database : public mdx::NameResolver {
 public:
  Database() = default;

  // Registers a cube under `name` ("App.Db" or any identifier). FROM
  // clauses match the full dotted name or its last component,
  // case-insensitively.
  Status AddCube(std::string name, Cube cube);

  // How Open loads a cube file. Transient storage faults (kUnavailable,
  // kResourceExhausted) are absorbed by the bounded-backoff retry policy;
  // permanent ones (kDataLoss, kNotFound, ...) surface immediately.
  struct OpenOptions {
    LoadOptions load;    // Env, recovery mode, recovery report.
    RetryPolicy retry;   // Backoff schedule for transient faults.
    Clock* clock = nullptr;  // nullptr -> Clock::Real().
  };

  // Loads the cube file at `path` (with retry) and registers it as `name`.
  Status Open(std::string name, const std::string& path,
              const OpenOptions& options);
  Status Open(std::string name, const std::string& path);

  Result<const Cube*> FindCube(std::string_view dotted_name) const;
  Result<Cube*> FindMutableCube(std::string_view dotted_name);

  // Parses and attaches a calculation rule (see rules/rule_parser.h) to the
  // named cube.
  Status AddRule(std::string_view cube_name, std::string_view rule_text);
  // The cube's rule set (never null for a registered cube).
  const RuleSet* rules(std::string_view cube_name) const;

  // Materializes up to `max_views` greedy-selected aggregations for the
  // cube (Essbase-style pre-built aggregations; see agg/aggregate_cache.h).
  // Plain (non-what-if) queries are then answered from the views where
  // possible. Mutations fed through ApplyCellEdits keep the views fresh;
  // out-of-band cube mutation requires a re-run.
  Status BuildAggregates(std::string_view cube_name, int max_views);
  // The cube's materialized aggregations, or null when none were built.
  const AggregateCache* aggregates(std::string_view cube_name) const;

  // --- Edit feed (incremental maintenance) --------------------------------

  // Per-feed result: how the cube's aggregations fared.
  struct EditStats {
    int64_t cells_written = 0;
    // Resident views patched in place (survived) vs dropped wholesale.
    int64_t views_kept = 0;
    int64_t views_dropped = 0;
  };

  // Applies a stream of cell writes to the named cube through a DeltaBatch,
  // all or nothing (a write outside the cube's extents rejects the whole
  // feed before any write lands), bumps the cube version, and patches the
  // cube's materialized aggregations in place instead of stranding them:
  // the first feed builds the cache's contribution-count sidecar (one chunk
  // pass), after which each write is a handful of per-view cell updates.
  // The cache's key is bumped in lockstep with the cube version, so the
  // executor keeps serving from it.
  Status ApplyCellEdits(std::string_view cube_name,
                        const std::vector<CellWrite>& writes,
                        EditStats* stats = nullptr);

  // The entry's current data version (0 until the first edit feed) —
  // compared against the aggregate cache's key by the executor.
  uint64_t cube_version(std::string_view cube_name) const;
  // The entry's validity-set epoch. BumpStructuralEpoch records an
  // out-of-band structural change (relocation feed applied directly to the
  // dimension, a split, ...): the epoch advances but existing caches keep
  // their old key and are bypassed until rebuilt.
  uint64_t structural_epoch(std::string_view cube_name) const;
  Status BumpStructuralEpoch(std::string_view cube_name);

  // Defines an Essbase-style named set: a name usable in queries whose
  // ".Children" (or direct mention) expands to `members`.
  Status DefineNamedSet(std::string set_name,
                        std::vector<std::pair<int, MemberId>> members);
  // Convenience: members are looked up by name within one dimension of the
  // named cube.
  Status DefineNamedSetByNames(std::string_view cube_name,
                               std::string_view dim_name,
                               const std::vector<std::string>& member_names,
                               std::string set_name);

  // mdx::NameResolver:
  std::optional<std::vector<std::pair<int, MemberId>>> FindNamedSet(
      std::string_view name) const override;

 private:
  struct Entry {
    Cube cube;
    RuleSet rules;
    std::unique_ptr<AggregateCache> aggregates;
    uint64_t version = 0;  // Bumped per ApplyCellEdits feed.
    uint64_t epoch = 0;    // Bumped per structural change.
  };
  std::map<std::string, std::unique_ptr<Entry>> cubes_;  // Key: lower name.
  std::map<std::string, std::vector<std::pair<int, MemberId>>> named_sets_;

  const Entry* FindEntry(std::string_view dotted_name) const;
};

}  // namespace olap

#endif  // OLAP_ENGINE_DATABASE_H_
