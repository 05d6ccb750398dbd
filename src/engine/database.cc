#include "engine/database.h"

#include "common/strings.h"
#include "rules/rule_parser.h"

namespace olap {

Status Database::AddCube(std::string name, Cube cube) {
  std::string key = ToLower(name);
  if (cubes_.count(key) > 0) {
    return Status::AlreadyExists("cube '" + name + "' already registered");
  }
  auto entry =
      std::make_unique<Entry>(Entry{std::move(cube), RuleSet(), nullptr});
  cubes_.emplace(std::move(key), std::move(entry));
  return Status::Ok();
}

Status Database::Open(std::string name, const std::string& path,
                      const OpenOptions& options) {
  Result<Cube> cube = LoadCubeWithRetry(path, options.load, options.retry,
                                        options.clock);
  if (!cube.ok()) return cube.status();
  return AddCube(std::move(name), *std::move(cube));
}

Status Database::Open(std::string name, const std::string& path) {
  return Open(std::move(name), path, OpenOptions{});
}

const Database::Entry* Database::FindEntry(std::string_view dotted_name) const {
  std::string key = ToLower(dotted_name);
  auto it = cubes_.find(key);
  if (it != cubes_.end()) return it->second.get();
  // Fall back to last-dotted-component matching in either direction:
  // a query "[App].[Db]" finds a cube registered as "Db", and a query "Db"
  // finds a cube registered as "App.Db".
  auto last_component = [](std::string_view s) {
    size_t dot = s.rfind('.');
    return dot == std::string_view::npos ? s : s.substr(dot + 1);
  };
  it = cubes_.find(std::string(last_component(key)));
  if (it != cubes_.end()) return it->second.get();
  for (const auto& [name, entry] : cubes_) {
    if (last_component(name) == key) return entry.get();
  }
  return nullptr;
}

Result<const Cube*> Database::FindCube(std::string_view dotted_name) const {
  const Entry* entry = FindEntry(dotted_name);
  if (entry == nullptr) {
    return Status::NotFound("no cube named '" + std::string(dotted_name) + "'");
  }
  return &entry->cube;
}

Result<Cube*> Database::FindMutableCube(std::string_view dotted_name) {
  const Entry* entry = FindEntry(dotted_name);
  if (entry == nullptr) {
    return Status::NotFound("no cube named '" + std::string(dotted_name) + "'");
  }
  return const_cast<Cube*>(&entry->cube);
}

Status Database::AddRule(std::string_view cube_name, std::string_view rule_text) {
  Entry* entry = const_cast<Entry*>(FindEntry(cube_name));
  if (entry == nullptr) {
    return Status::NotFound("no cube named '" + std::string(cube_name) + "'");
  }
  Result<Rule> rule = ParseRule(entry->cube.schema(), rule_text);
  if (!rule.ok()) return rule.status();
  entry->rules.Add(*std::move(rule));
  return Status::Ok();
}

const RuleSet* Database::rules(std::string_view cube_name) const {
  const Entry* entry = FindEntry(cube_name);
  return entry == nullptr ? nullptr : &entry->rules;
}

Status Database::BuildAggregates(std::string_view cube_name, int max_views) {
  Entry* entry = const_cast<Entry*>(FindEntry(cube_name));
  if (entry == nullptr) {
    return Status::NotFound("no cube named '" + std::string(cube_name) + "'");
  }
  if (max_views < 0) {
    return Status::InvalidArgument("max_views must be non-negative");
  }
  entry->aggregates = std::make_unique<AggregateCache>(
      AggregateCache::BuildGreedy(entry->cube, max_views));
  entry->aggregates->set_key(CacheKey{entry->version, entry->epoch});
  return Status::Ok();
}

const AggregateCache* Database::aggregates(std::string_view cube_name) const {
  const Entry* entry = FindEntry(cube_name);
  return entry == nullptr ? nullptr : entry->aggregates.get();
}

Status Database::ApplyCellEdits(std::string_view cube_name,
                                const std::vector<CellWrite>& writes,
                                EditStats* stats) {
  EditStats local;
  if (stats == nullptr) stats = &local;
  *stats = EditStats{};
  Entry* entry = const_cast<Entry*>(FindEntry(cube_name));
  if (entry == nullptr) {
    return Status::NotFound("no cube named '" + std::string(cube_name) + "'");
  }
  // All or nothing: every write is checked before the first one lands, so
  // a rejected batch leaves the cube, its version and its views as they
  // were.
  DeltaBatch batch(&entry->cube);
  for (const CellWrite& w : writes) {
    OLAP_RETURN_IF_ERROR(batch.CheckCoords(w.coords));
  }
  AggregateCache* cache = entry->aggregates.get();
  if (cache != nullptr && !cache->incremental() &&
      cache->key() == CacheKey{entry->version, entry->epoch}) {
    // First feed against a fresh cache: one chunk pass buys per-cell
    // patching for every feed after it. A stale cache is not worth the
    // pass — it is bypassed by the executor anyway.
    cache->EnableIncrementalMaintenance(entry->cube);
  }
  for (const CellWrite& w : writes) {
    OLAP_RETURN_IF_ERROR(batch.Set(w.coords, w.value));
  }
  stats->cells_written = batch.num_edits();
  ++entry->version;
  if (cache != nullptr) {
    int64_t resident_before = 0;
    for (int i = 0; i < cache->num_views(); ++i) {
      if (cache->view_resident(i)) ++resident_before;
    }
    if (cache->incremental()) {
      for (const CellEdit& e : batch.edits()) {
        cache->PatchCellDelta(e.coords, e.old_storage, e.new_storage);
      }
      stats->views_kept = resident_before;
      // Patched in lockstep with the data: the key follows the version and
      // the cache stays servable.
      CacheKey key = cache->key();
      key.cube_version = entry->version;
      cache->set_key(key);
    } else {
      cache->DropResidentViews();
      stats->views_dropped = resident_before;
    }
  }
  return Status::Ok();
}

uint64_t Database::cube_version(std::string_view cube_name) const {
  const Entry* entry = FindEntry(cube_name);
  return entry == nullptr ? 0 : entry->version;
}

uint64_t Database::structural_epoch(std::string_view cube_name) const {
  const Entry* entry = FindEntry(cube_name);
  return entry == nullptr ? 0 : entry->epoch;
}

Status Database::BumpStructuralEpoch(std::string_view cube_name) {
  Entry* entry = const_cast<Entry*>(FindEntry(cube_name));
  if (entry == nullptr) {
    return Status::NotFound("no cube named '" + std::string(cube_name) + "'");
  }
  ++entry->epoch;  // Existing caches keep the old epoch and go stale.
  return Status::Ok();
}

Status Database::DefineNamedSet(std::string set_name,
                                std::vector<std::pair<int, MemberId>> members) {
  named_sets_[ToLower(set_name)] = std::move(members);
  return Status::Ok();
}

Status Database::DefineNamedSetByNames(std::string_view cube_name,
                                       std::string_view dim_name,
                                       const std::vector<std::string>& member_names,
                                       std::string set_name) {
  Result<const Cube*> cube = FindCube(cube_name);
  if (!cube.ok()) return cube.status();
  Result<int> dim = (*cube)->schema().FindDimension(dim_name);
  if (!dim.ok()) return dim.status();
  std::vector<std::pair<int, MemberId>> members;
  for (const std::string& name : member_names) {
    Result<MemberId> m = (*cube)->schema().dimension(*dim).FindMember(name);
    if (!m.ok()) return m.status();
    members.emplace_back(*dim, *m);
  }
  return DefineNamedSet(std::move(set_name), std::move(members));
}

std::optional<std::vector<std::pair<int, MemberId>>> Database::FindNamedSet(
    std::string_view name) const {
  auto it = named_sets_.find(ToLower(name));
  if (it == named_sets_.end()) return std::nullopt;
  return it->second;
}

}  // namespace olap
