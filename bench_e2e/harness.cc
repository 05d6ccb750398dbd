#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

#include "agg/kernels.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "mdx/binder.h"
#include "mdx/parser.h"

#ifndef OLAP_BENCH_BUILD_TYPE
#define OLAP_BENCH_BUILD_TYPE "unknown"
#endif

namespace olap::e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

int Recorder::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Recorder::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan / explicit Begin-End pairs).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Recorder::Graft(int parent, const TraceData& trace) {
  if (!enabled_ || parent < 0) return true;
  if (!trace.WellFormed()) return false;
  int root = -1;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    if (trace.spans[i].parent < 0 && trace.spans[i].name == "query.execute") {
      root = static_cast<int>(i);
      break;
    }
  }
  if (root < 0) return false;
  const int thread = trace.spans[root].thread;
  // Engine span times share steady_clock's rate but not its origin: shift
  // the engine tree so its root starts where the benchmark span started.
  const int64_t shift = spans_[parent].start_ns - trace.spans[root].start_ns;
  std::vector<int> mapped(trace.spans.size(), -1);
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const SpanRecord& s = trace.spans[i];
    if (s.thread != thread) continue;
    int p = parent;
    if (s.parent >= 0) {
      if (mapped[s.parent] < 0) continue;  // Another root's subtree.
      p = mapped[s.parent];
    } else if (static_cast<int>(i) != root) {
      continue;
    }
    Span span;
    span.name = s.name;
    span.start_ns = s.start_ns + shift;
    span.end_ns = s.end_ns + shift;
    span.parent = p;
    spans_.push_back(std::move(span));
    mapped[i] = static_cast<int>(spans_.size()) - 1;
  }
  return true;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Recorder::ToChromeJson(size_t max_events) const {
  std::string out = "{\"traceEvents\":[";
  const size_t n = std::min(max_events, spans_.size());
  const int64_t origin = spans_.empty() ? 0 : spans_[0].start_ns;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3);
    out += i ? ",\n" : "\n";
    out += "{\"name\":\"" + JsonEscape(s.name) + "\"," + buf;
  }
  out += "\n],\"truncated\":";
  out += n < spans_.size() ? "true" : "false";
  out += "}\n";
  return out;
}

Layer LayerOf(const std::string& name) {
  auto starts = [&](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("mdx::") || name == "query.parse" || name == "query.bind") {
    return Layer::kMdx;
  }
  if (name == "query.execute" || name == "query.filter" ||
      name == "Database::ApplyCellEdits") {
    return Layer::kEngine;
  }
  if (name == "query.whatif" || starts("scenario.") || starts("whatif.") ||
      starts("op.") || starts("delta.") || starts("DeltaBatch::") ||
      starts("IncrementalScenario::")) {
    return Layer::kWhatif;
  }
  if (name == "query.batch_prepare" || name == "query.evaluate" ||
      starts("agg.") || name == "Database::BuildAggregates") {
    return Layer::kAgg;
  }
  if (starts("disk.") || starts("pipeline.") || starts("storage.") ||
      name == "SaveCube" || name == "Database::Open" ||
      starts("SimulatedDisk::")) {
    return Layer::kStorage;
  }
  return Layer::kCount;
}

// ---------------------------------------------------------------------------
// Grid and cube comparison
// ---------------------------------------------------------------------------

namespace {

uint64_t BitsOf(CellValue v) {
  const double raw = CellValue::ToStorage(v);
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

}  // namespace

bool SameGrid(const ResultGrid& a, const ResultGrid& b, std::string* why) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    *why = "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" + std::to_string(b.num_columns());
    return false;
  }
  if (a.row_labels() != b.row_labels() ||
      a.column_labels() != b.column_labels()) {
    *why = "axis labels differ";
    return false;
  }
  for (int r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (BitsOf(a.at(r, c)) != BitsOf(b.at(r, c))) {
        *why = "cell (" + a.row_labels()[r] + ", " + a.column_labels()[c] +
               "): " + a.at(r, c).ToString() + " vs " + b.at(r, c).ToString();
        return false;
      }
    }
  }
  return true;
}

uint64_t DigestCube(const Cube& cube) {
  std::vector<std::pair<ChunkId, const Chunk*>> chunks;
  cube.ForEachChunk(
      [&](ChunkId id, const Chunk& c) { chunks.emplace_back(id, &c); });
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  uint64_t h = 14695981039346656037ull;
  for (const auto& [id, chunk] : chunks) {
    h = (h ^ static_cast<uint64_t>(id)) * 1099511628211ull;
    for (int64_t i = 0; i < chunk->size(); ++i) {
      h = (h ^ BitsOf(chunk->Get(i))) * 1099511628211ull;
    }
  }
  return h;
}

std::string Numbered(const char* prefix, int n, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%0*d", prefix, width, n);
  return buf;
}

std::string MonthList(Rng* rng, int k) {
  int months[12];
  for (int i = 0; i < 12; ++i) months[i] = i;
  for (int i = 0; i < k; ++i) {
    std::swap(months[i], months[i + rng->NextBelow(12 - i)]);
  }
  std::sort(months, months + k);
  std::string out;
  for (int i = 0; i < k; ++i) {
    out += std::string(i ? ", " : "") + "(" + kMonthNames[months[i]] + ")";
  }
  return out;
}

WorkforceConfig WorkforceAt(const Scale& scale) {
  WorkforceConfig config;
  if (scale.tiny) {
    config.num_departments = 10;
    config.num_employees = 120;
    config.num_changing = 12;
    config.num_measures = 4;
    config.num_scenarios = 2;
  } else {
    // bench/bench_workloads.h's Fig. 11/13 scale.
    config.num_departments = 51;
    config.num_employees = 2025;
    config.num_changing = 250;
    config.num_measures = 10;
    config.num_scenarios = 5;
  }
  config.seed = 20080407;
  return config;
}

int Stream::Pick(const std::string& bag, int n) {
  std::vector<int>& items = bags_[bag];
  if (items.empty()) {
    for (int i = 0; i < n; ++i) items.push_back(i);
    for (int i = n - 1; i > 0; --i) {
      std::swap(items[i], items[rng_.NextBelow(static_cast<uint64_t>(i) + 1)]);
    }
  }
  const int value = items.back();
  items.pop_back();
  return value;
}

Status Workload::ApplyEdit(const Op&, Recorder*, Database::EditStats*,
                           RefreshStats*) {
  return Status::Unimplemented("this workload has no edit feed");
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

namespace {

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// The scenario part of a query text (everything before its first SELECT),
// empty for plain queries.
std::string WhatIfClause(const std::string& mdx) {
  if (mdx.rfind("WITH", 0) != 0 && mdx.rfind("COMPARE", 0) != 0) return "";
  return mdx.substr(0, mdx.find("SELECT"));
}

void Shuffle(Rng* rng, std::vector<Op>* deck) {
  for (size_t i = deck->size(); i > 1; --i) {
    std::swap((*deck)[i - 1], (*deck)[rng->NextBelow(i)]);
  }
}

struct LoopStats {
  std::vector<double> query_ms;
  std::vector<double> edit_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  double wall_s = 0.0;
  double device_s = 0.0;
  // Stream properties.
  std::map<std::string, int64_t> families;
  int64_t whatif_queries = 0;
  int64_t repeated_whatif = 0;
  int64_t writes = 0;
  int64_t changing_writes = 0;
  std::vector<SampledQuery> sampled;
  // Traced loops only.
  int64_t traced_queries = 0;
  int64_t traced_edits = 0;
  std::map<std::string, int64_t> counters;  // Summed registry deltas.
  int64_t stall_ns = 0;
  int64_t cells_moved = 0;
  int64_t chunk_reads = 0;
  int64_t views_kept = 0;
  int64_t views_dropped = 0;
  int64_t refresh_affected = 0;
  int64_t refresh_patched = 0;
  int64_t refresh_fallbacks = 0;
  bool graft_ok = true;
};

void AddDelta(const MetricsRegistry::Snapshot& delta, LoopStats* stats) {
  for (const auto& [name, value] : delta.counters) {
    stats->counters[name] += value;
  }
  if (const auto* h = delta.histogram_snapshot("pipeline.stall_seconds")) {
    stats->stall_ns += h->sum_nanos;
  }
}

// Parses and binds `mdx` through the public mdx API, one span each (both
// sides of a COMPARE). Failures surface again in Execute.
void DirectParseBind(const Workload& w, const std::string& mdx,
                     Recorder* rec) {
  Result<mdx::ParsedQuery> parsed = [&] {
    ScopedSpan span(rec, "mdx::Parse");
    return mdx::Parse(mdx);
  }();
  if (!parsed.ok()) return;
  std::string cube_name;
  for (const std::string& part : parsed->cube_name) {
    cube_name += (cube_name.empty() ? "" : ".") + part;
  }
  Result<const Cube*> cube = w.db().FindCube(cube_name);
  if (!cube.ok()) return;
  ScopedSpan span(rec, "mdx::Bind");
  for (const mdx::ParsedQuery* q = &*parsed; q != nullptr;
       q = q->compare_to.get()) {
    Result<mdx::BoundQuery> bound =
        mdx::Bind(*q, (*cube)->schema(), &w.db(), *cube);
    (void)bound;
  }
}

// Runs the seeded stream for `seconds` (and at least `min_queries`
// queries, within `max_seconds`). `rec` non-null = traced.
LoopStats RunLoop(Workload& w, uint64_t seed, double seconds,
                  int64_t min_queries, double max_seconds, Recorder* rec,
                  bool keep_samples) {
  LoopStats st;
  Stream stream(seed * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull);
  Rng sample_rng(seed ^ 0x13198a2e03707344ull);
  const QueryOptions untraced = w.query_options();
  QueryOptions traced = untraced;
  traced.collect_profile = true;
  std::vector<Op> deck;
  size_t next = 0;
  std::set<std::string> seen_clauses;
  std::map<std::string, int> kept_per_family;
  const double device0 = w.device_seconds();
  const int64_t start = NowNs();
  while (true) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (elapsed >= max_seconds) break;
    if (elapsed >= seconds &&
        static_cast<int64_t>(st.query_ms.size()) >= min_queries) {
      break;
    }
    if (next == deck.size()) {
      deck.clear();
      next = 0;
      w.NextDeck(&stream, &deck);
      Shuffle(stream.rng(), &deck);
    }
    const Op& op = deck[next++];
    ++st.attempted;
    ++st.families[op.family];
    if (op.is_edit) {
      st.writes += static_cast<int64_t>(op.writes.size());
      st.changing_writes += op.changing_writes;
      MetricsRegistry::Snapshot before;
      if (rec != nullptr) before = MetricsRegistry::Global().TakeSnapshot();
      Database::EditStats edit_stats;
      RefreshStats refresh_stats;
      const int root = rec != nullptr ? rec->Begin("edit_batch") : -1;
      const int64_t t0 = NowNs();
      Status s = w.ApplyEdit(op, rec, &edit_stats, &refresh_stats);
      const int64_t t1 = NowNs();
      if (rec != nullptr) {
        rec->End(root);
        AddDelta(MetricsRegistry::Snapshot::Delta(
                     before, MetricsRegistry::Global().TakeSnapshot()),
                 &st);
        ++st.traced_edits;
        st.views_kept += edit_stats.views_kept;
        st.views_dropped += edit_stats.views_dropped;
        st.refresh_affected += refresh_stats.chunks_affected;
        st.refresh_patched += refresh_stats.chunks_patched;
        if (refresh_stats.full_recompute) ++st.refresh_fallbacks;
      }
      if (!s.ok()) {
        ++st.failed;
        fprintf(stderr, "edit failed: %s\n", s.ToString().c_str());
        continue;
      }
      ++st.completed;
      st.edit_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      continue;
    }

    const std::string clause = WhatIfClause(op.mdx);
    if (!clause.empty()) {
      ++st.whatif_queries;
      if (!seen_clauses.insert(clause).second) ++st.repeated_whatif;
    }
    if (rec != nullptr) DirectParseBind(w, op.mdx, rec);
    const int root = rec != nullptr ? rec->Begin("Executor::Execute") : -1;
    const int64_t t0 = NowNs();
    Result<QueryResult> r =
        w.exec().Execute(op.mdx, rec != nullptr ? traced : untraced);
    const int64_t t1 = NowNs();
    if (rec != nullptr) {
      rec->End(root);
      ++st.traced_queries;
      if (r.ok()) {
        st.graft_ok = rec->Graft(root, r->profile.trace) && st.graft_ok;
        AddDelta(r->profile.metrics_delta, &st);
        st.cells_moved += r->whatif_stats.cells_moved;
        st.chunk_reads += r->whatif_stats.chunk_reads;
      }
    }
    if (!r.ok()) {
      ++st.failed;
      fprintf(stderr, "query failed (%s): %s\n  %s\n", op.family.c_str(),
              r.status().ToString().c_str(), op.mdx.c_str());
      continue;
    }
    ++st.completed;
    st.query_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (keep_samples &&
        static_cast<int>(st.sampled.size()) < w.max_sampled() &&
        (kept_per_family[op.family] < 2 || sample_rng.NextBool(0.1))) {
      ++kept_per_family[op.family];
      st.sampled.push_back(SampledQuery{op, std::move(r->grid)});
    }
  }
  st.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  st.device_s = w.device_seconds() - device0;
  return st;
}

// Starts the peak-RSS window of the timed loop: memory the repeated set-up
// builds freed goes back to the OS, and the kernel's high-water mark drops
// to the current resident set (the live fixture). Linux; elsewhere the
// window starts at process start.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = fopen("/proc/self/clear_refs", "w")) {
    fputs("5", f);
    fclose(f);
  }
}

double PeakRssMb() {
  if (FILE* f = fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

Metric M(double value, const char* unit, int64_t samples) {
  Metric m;
  m.value = value;
  m.unit = unit;
  m.samples = samples;
  return m;
}

Metric Ratio(double num, double den) {
  Metric m;
  m.value = den > 0 ? num / den : 0.0;
  m.unit = "ratio";
  m.samples = static_cast<int64_t>(den);
  m.base = den;
  return m;
}

// End-to-end metrics of an untraced loop.
void AddEndToEnd(const LoopStats& st, RunReport* report) {
  auto& m = report->metrics;
  const int64_t nq = static_cast<int64_t>(st.query_ms.size());
  const int64_t ne = static_cast<int64_t>(st.edit_ms.size());
  m["query_p50_ms"] = M(Percentile(st.query_ms, 0.5), "ms", nq);
  m["query_p90_ms"] = M(Percentile(st.query_ms, 0.9), "ms", nq);
  m["ops_per_s"] = M(st.wall_s > 0 ? st.completed / st.wall_s : 0.0, "1/s",
                     st.completed);
  m["failed_share"] = Ratio(static_cast<double>(st.failed),
                            static_cast<double>(st.attempted));
  m["edit_p50_ms"] = M(Percentile(st.edit_ms, 0.5), "ms", ne);
  m["edit_p90_ms"] = M(Percentile(st.edit_ms, 0.9), "ms", ne);
  report->device_metrics["io_sim_ms_per_query"] =
      M(nq > 0 ? st.device_s * 1e3 / static_cast<double>(nq) : 0.0, "ms", nq);
}

// Stream properties of the workload as it ran.
void AddProperties(const LoopStats& st, RunReport* report) {
  auto& p = report->properties;
  for (const auto& [family, count] : st.families) {
    p["share." + family] =
        static_cast<double>(count) / static_cast<double>(st.attempted);
  }
  p["whatif_queries"] = static_cast<double>(st.whatif_queries);
  p["whatif_repeated_share"] =
      st.whatif_queries > 0 ? static_cast<double>(st.repeated_whatif) /
                                  static_cast<double>(st.whatif_queries)
                            : 0.0;
  auto edits = st.families.find("edit");
  if (edits != st.families.end() && edits->second > 0) {
    const double n = static_cast<double>(edits->second);
    p["reads_per_edit"] = static_cast<double>(st.attempted - edits->second) / n;
    p["writes_per_batch"] = static_cast<double>(st.writes) / n;
    p["changing_write_share"] =
        st.writes > 0 ? static_cast<double>(st.changing_writes) /
                            static_cast<double>(st.writes)
                      : 0.0;
  }
}

// Per-layer metrics of a traced loop, from the benchmark's spans (with the
// engine's phase spans grafted) and the summed registry deltas.
void AddPerLayer(const LoopStats& st, const Recorder& rec,
                 const SetupTimes& setup, RunReport* report) {
  const std::vector<Span>& spans = rec.spans();
  const size_t n = spans.size();
  // Self time: duration minus the children's durations (children nest
  // within their parent on one thread), so the self times of a subtree
  // sum exactly to its root's duration.
  std::vector<int64_t> self(n, 0);
  std::vector<int> top(n, -1);
  for (size_t i = 0; i < n; ++i) {
    self[i] += spans[i].duration_ns();
    const int p = spans[i].parent;
    if (p >= 0) self[p] -= spans[i].duration_ns();
    top[i] = p < 0 ? static_cast<int>(i) : top[p];
  }
  auto is_op_root = [&](int i) {
    return spans[i].parent < 0 && (spans[i].name == "Executor::Execute" ||
                                   spans[i].name == "edit_batch");
  };
  int64_t op_ns = 0;
  int64_t ops = 0;
  int64_t layer_ns[static_cast<int>(Layer::kCount)] = {};
  int64_t unattributed_ns = 0;
  std::set<std::string> unmapped;
  for (size_t i = 0; i < n; ++i) {
    if (!is_op_root(top[i])) continue;
    if (static_cast<int>(i) == top[i]) {
      op_ns += spans[i].duration_ns();
      ++ops;
    }
    const Layer layer = LayerOf(spans[i].name);
    if (layer == Layer::kCount) {
      unattributed_ns += self[i];
      if (!is_op_root(static_cast<int>(i))) unmapped.insert(spans[i].name);
    } else {
      layer_ns[static_cast<int>(layer)] += self[i];
    }
  }
  for (const std::string& name : unmapped) {
    fprintf(stderr, "note: span '%s' maps to no layer (unattributed)\n",
            name.c_str());
  }
  // The out-of-core pipeline's stalls (pipeline.stall_seconds) are waits on
  // the calling thread inside agg.rollup_outofcore: storage time, not agg.
  const int64_t stall_ns =
      std::min(st.stall_ns, layer_ns[static_cast<int>(Layer::kAgg)]);
  layer_ns[static_cast<int>(Layer::kAgg)] -= stall_ns;
  layer_ns[static_cast<int>(Layer::kStorage)] += stall_ns;

  // Inclusive time of the outermost spans named in `names` (a span nested
  // in another listed span is not counted twice), outside set-up.
  auto outermost_ns = [&](std::initializer_list<const char*> names) {
    auto listed = [&](const std::string& s) {
      for (const char* name : names) {
        if (s == name) return true;
      }
      return false;
    };
    int64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!listed(spans[i].name) || spans[top[i]].name == "setup") continue;
      bool nested = false;
      for (int p = spans[i].parent; p >= 0 && !nested; p = spans[p].parent) {
        nested = listed(spans[p].name);
      }
      if (!nested) total += spans[i].duration_ns();
    }
    return total;
  };
  auto self_ns = [&](const char* name) {
    int64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      if (spans[i].name == name && is_op_root(top[i])) total += self[i];
    }
    return total;
  };
  auto counter = [&](const char* name) -> double {
    auto it = st.counters.find(name);
    return it == st.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  const int64_t q = st.traced_queries;
  const int64_t e = st.traced_edits;
  auto per_query_ms = [&](int64_t ns) {
    return M(q > 0 ? static_cast<double>(ns) / 1e6 / q : 0.0, "ms", q);
  };
  auto per_query = [&](double count) {
    return M(q > 0 ? count / q : 0.0, "count", q);
  };
  auto per_edit_ms = [&](int64_t ns) {
    return M(e > 0 ? static_cast<double>(ns) / 1e6 / e : 0.0, "ms", e);
  };
  auto per_edit = [&](double count) {
    return M(e > 0 ? count / e : 0.0, "count", e);
  };

  auto& m = report->metrics;
  // Attribution of the traced operations: the five layers' self times plus
  // the unattributed remainder add up to trace.op_ms.
  const double per_op = ops > 0 ? 1.0 / (1e6 * static_cast<double>(ops)) : 0.0;
  m["trace.op_ms"] = M(static_cast<double>(op_ns) * per_op, "ms", ops);
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    m[std::string("layer.") + kLayerNames[l] + ".self_ms"] =
        M(static_cast<double>(layer_ns[l]) * per_op, "ms", ops);
  }
  m["trace.unattributed_ms"] =
      M(static_cast<double>(unattributed_ns) * per_op, "ms", ops);
  int64_t attributed = unattributed_ns;
  for (int64_t ns : layer_ns) attributed += ns;
  report->checks.push_back(
      {"trace.attribution_adds_up", attributed == op_ns && st.graft_ok,
       "layers + unattributed = " + std::to_string(attributed) +
           " ns, traced ops = " + std::to_string(op_ns) + " ns" +
           (st.graft_ok ? "" : ", an engine trace was ill-formed")});

  m["mdx.parse_ms"] = per_query_ms(outermost_ns({"mdx::Parse"}));
  m["mdx.bind_ms"] = per_query_ms(outermost_ns({"mdx::Bind"}));
  m["engine.unattributed_ms"] = per_query_ms(self_ns("query.execute"));
  m["engine.apply_edits_ms"] =
      per_edit_ms(outermost_ns({"Database::ApplyCellEdits"}));
  m["whatif.compose_ms"] =
      per_query_ms(outermost_ns({"query.whatif", "scenario.compose"}));
  m["whatif.merge_scan_ms"] = per_query_ms(outermost_ns({"whatif.merge_scan"}));
  m["whatif.pebble_ms"] = per_query_ms(outermost_ns({"whatif.plan.pebble"}));
  m["whatif.relocate_ms"] = per_query_ms(outermost_ns({"op.relocate"}));
  m["whatif.split_ms"] = per_query_ms(outermost_ns({"op.split"}));
  m["whatif.introduce_ms"] = per_query_ms(outermost_ns({"op.introduce"}));
  m["whatif.cells_moved"] = per_query(static_cast<double>(st.cells_moved));
  m["whatif.chunk_reads"] = per_query(static_cast<double>(st.chunk_reads));
  m["whatif.refresh_ms"] =
      per_edit_ms(outermost_ns({"IncrementalScenario::ApplyDelta"}));
  m["whatif.refresh_chunks_affected"] =
      per_edit(static_cast<double>(st.refresh_affected));
  m["whatif.refresh_chunks_patched"] =
      per_edit(static_cast<double>(st.refresh_patched));
  m["whatif.refresh_fallbacks"] =
      M(static_cast<double>(st.refresh_fallbacks), "count", e);
  m["whatif.live_create_s"] = M(setup.live_create_s, "s", 1);
  m["agg.batch_prepare_ms"] =
      per_query_ms(outermost_ns({"query.batch_prepare"}));
  m["agg.rollup_ms"] =
      per_query_ms(outermost_ns({"agg.rollup", "agg.rollup_outofcore"}));
  m["agg.serve_ms"] = per_query_ms(outermost_ns({"query.evaluate"}));
  m["agg.views_materialized"] =
      per_query(counter("agg.batch.views_materialized"));
  m["agg.view_served_ratio"] =
      Ratio(counter("agg.batch.view_served"), counter("agg.batch.refs"));
  m["agg.cache_hit_ratio"] =
      Ratio(counter("agg.cache.hits"), counter("agg.cache.lookups"));
  m["agg.views_kept_ratio"] =
      Ratio(static_cast<double>(st.views_kept),
            static_cast<double>(st.views_kept + st.views_dropped));
  m["agg.build_aggregates_s"] = M(setup.build_aggregates_s, "s", 1);
  m["storage.open_s"] = M(setup.open_s, "s", 1);
  m["storage.physical_reads"] = per_query(counter("disk.reads.physical"));
  m["storage.cache_hit_ratio"] =
      Ratio(counter("disk.reads.cache_hits"),
            counter("disk.reads.cache_hits") + counter("disk.reads.physical"));
  m["storage.coalesced_reads"] = per_query(counter("disk.coalesced_reads"));
  m["storage.seek_chunks"] = per_query(counter("disk.seek_chunks"));
  m["storage.stall_ms"] = per_query_ms(st.stall_ns);
  m["storage.prefetch_hit_ratio"] = Ratio(counter("pipeline.prefetch.hits"),
                                          counter("pipeline.prefetch.issued"));
  m["storage.file_bytes_per_cell"] = M(setup.file_bytes_per_cell, "B", 1);
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "paper_whatif") return MakePaperWhatif(config.scale);
  if (config.workload == "edit_feed") return MakeEditFeed(config.scale);
  if (config.workload == "out_of_core") {
    return MakeOutOfCore(config.scale, config.workdir);
  }
  return nullptr;
}

}  // namespace

Result<RunReport> RunWorkload(const RunConfig& config) {
  std::unique_ptr<Workload> w = MakeWorkload(config);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "'");
  }
  RunReport report;
  report.config = config;

  // Set-up: built at least three times and for at least two seconds (at
  // most nine builds), the median reported; the last build serves the
  // loop. A traced run builds once.
  Recorder rec(config.trace);
  std::vector<double> setup_s;
  SetupTimes times;
  double setup_total = 0.0;
  while (setup_s.empty() ||
         (!config.trace && setup_s.size() < 9 &&
          (setup_s.size() < 3 || setup_total < 2.0))) {
    if (!setup_s.empty()) w->Teardown();
    ScopedSpan span(&rec, "setup");
    const int64_t t0 = NowNs();
    if (Status s = w->Setup(&rec, &times); !s.ok()) return s;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total += setup_s.back();
  }
  report.metrics["setup_s"] =
      M(Median(setup_s), "s", static_cast<int64_t>(setup_s.size()));

  // Warm-up: lazily built caches (dimension leaf lists, the thread pool)
  // fill before timing. Drawn from its own seeded stream.
  {
    Stream warm(config.seed ^ 0xa4093822299f31d0ull);
    std::vector<Op> deck;
    w->NextDeck(&warm, &deck);
    const int warm_ops = std::min<int>(3, static_cast<int>(deck.size()));
    for (int i = 0; i < warm_ops; ++i) {
      if (deck[i].is_edit) {
        Database::EditStats es;
        RefreshStats rs;
        (void)w->ApplyEdit(deck[i], nullptr, &es, &rs);
      } else {
        (void)w->exec().Execute(deck[i].mdx, w->query_options());
      }
    }
  }

  // At least 100 queries, so p90 has ten samples beyond it. A traced run
  // spends half its time untraced and half traced.
  const int64_t min_queries = config.scale.tiny ? 10 : 100;
  const double seconds = config.trace ? config.seconds / 2 : config.seconds;
  const double max_seconds = seconds + 20.0;
  ResetPeakRss();
  LoopStats untraced = RunLoop(*w, config.seed, seconds, min_queries,
                               max_seconds, nullptr, /*keep_samples=*/true);
  report.metrics["peak_rss_mb"] = M(PeakRssMb(), "MB", 1);
  AddEndToEnd(untraced, &report);
  AddProperties(untraced, &report);
  report.attempted = untraced.attempted;
  report.failed = untraced.failed;

  if (config.trace) {
    LoopStats traced = RunLoop(*w, config.seed, seconds, min_queries,
                               max_seconds, &rec, /*keep_samples=*/false);
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    AddPerLayer(traced, rec, times, &report);
    const double traced_p50 = Percentile(traced.query_ms, 0.5);
    const double untraced_p50 = report.metrics["query_p50_ms"].value;
    Metric overhead = Ratio(traced_p50, untraced_p50);
    overhead.samples = static_cast<int64_t>(traced.query_ms.size());
    report.metrics["trace.overhead_ratio"] = overhead;
    if (!config.trace_out.empty()) {
      FILE* f = fopen(config.trace_out.c_str(), "w");
      if (f != nullptr) {
        const std::string json = rec.ToChromeJson(200000);
        fwrite(json.data(), 1, json.size(), f);
        fclose(f);
      }
    }
  }

  std::vector<CheckResult> checks = w->Check(untraced.sampled);
  report.checks.insert(report.checks.end(), checks.begin(), checks.end());
  for (const auto& [name, value] : w->Properties()) {
    report.properties[name] = value;
  }
  for (const CheckResult& c : report.checks) {
    if (!c.ok) report.correct = false;
  }
  w->Teardown();
  return report;
}

std::string RunReport::ToJson() const {
  std::string out = "{";
  auto field = [&](const std::string& key, const std::string& raw) {
    if (out.size() > 1) out += ", ";
    out += "\"" + JsonEscape(key) + "\": " + raw;
  };
  auto quoted = [](const std::string& s) {
    return "\"" + JsonEscape(s) + "\"";
  };
  field("workload", quoted(config.workload));
  field("seed", std::to_string(config.seed));
  field("seconds", JsonNumber(config.seconds));
  field("trace", config.trace ? "1" : "0");
  field("scale", quoted(config.scale.tiny ? "tiny" : "full"));
  field("env",
        "{\"nproc\": " + std::to_string(ThreadPool::HardwareCores()) +
            ", \"hardware_concurrency\": " +
            std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
            ", \"affinity_cores\": " +
            std::to_string(ThreadPool::AffinityVisibleCores()) +
            ", \"kernel_isa\": " +
            quoted(kernels::IsaName(kernels::ActiveIsa())) +
            ", \"build_type\": " + quoted(OLAP_BENCH_BUILD_TYPE) +
            ", \"eval_threads\": " +
            std::to_string(QueryOptions().eval_threads) +
            ", \"clients\": 1, \"loop\": \"closed\"}");
  field("correct", correct ? "true" : "false");
  field("attempted", std::to_string(attempted));
  field("failed", std::to_string(failed));
  std::string checks_json = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    checks_json += (i ? ", " : "") + std::string("{\"name\": ") +
                   quoted(checks[i].name) +
                   ", \"ok\": " + (checks[i].ok ? "true" : "false") +
                   ", \"detail\": " + quoted(checks[i].detail) + "}";
  }
  field("checks", checks_json + "]");
  auto metrics_json = [&](const std::map<std::string, Metric>& ms) {
    std::string s = "{";
    for (const auto& [name, m] : ms) {
      if (s.size() > 1) s += ", ";
      s += quoted(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + quoted(m.unit) +
           ", \"samples\": " + std::to_string(m.samples);
      if (m.base >= 0) s += ", \"base\": " + JsonNumber(m.base);
      s += "}";
    }
    return s + "}";
  };
  field("metrics", metrics_json(metrics));
  field("device_metrics", metrics_json(device_metrics));
  std::string props = "{";
  for (const auto& [name, value] : properties) {
    if (props.size() > 1) props += ", ";
    props += quoted(name) + ": " + JsonNumber(value);
  }
  field("properties", props + "}");
  return out + "}";
}

}  // namespace olap::e2e
