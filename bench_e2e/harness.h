#ifndef OLAP_BENCH_E2E_HARNESS_H_
#define OLAP_BENCH_E2E_HARNESS_H_

// The closed-loop driver shared by the three end-to-end workloads.
//
// A workload builds its fixture through the engine's public API, hands out
// a seeded stream of operations (MDX text for Executor::Execute, or a batch
// of cell writes) and checks outputs after timing. The harness times every
// operation from outside, and in a traced run records its own span around
// each public call it makes, grafting under Executor::Execute the phase
// spans the engine already returns in QueryResult::profile. Nothing here
// adds instrumentation to the engine.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/result_grid.h"
#include "whatif/delta.h"
#include "workload/workforce.h"

namespace olap::e2e {

// steady_clock nanoseconds.
int64_t NowNs();

// ---------------------------------------------------------------------------
// Benchmark-side spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // Index into Recorder::spans(); -1 = top level.
  int64_t duration_ns() const { return end_ns - start_ns; }
};

// In-memory span list for one single-threaded benchmark run. A disabled
// recorder records nothing and reads no clock.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  // Opens a span under the innermost open one; returns its index, or -1
  // when disabled.
  int Begin(const char* name);
  void End(int index);
  // Copies the engine spans of `trace` recorded on the thread that ran
  // `query.execute` under span `parent` (the benchmark's Execute span).
  // Spans of other threads overlap the caller's time and are not grafted.
  // Returns false when the engine trace is ill-formed.
  bool Graft(int parent, const TraceData& trace);

  const std::vector<Span>& spans() const { return spans_; }
  // chrome://tracing JSON of at most `max_events` spans.
  std::string ToChromeJson(size_t max_events) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, const char* name)
      : rec_(rec), index_(rec != nullptr ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* rec_;
  int index_;
};

// The src/ module a span's time belongs to.
enum class Layer { kMdx, kEngine, kWhatif, kAgg, kStorage, kCount };
inline constexpr const char* kLayerNames[] = {"mdx", "engine", "whatif", "agg",
                                              "storage"};
// Layer of a span name, or kCount when the span is the benchmark's own
// (its self time is the unattributed remainder).
Layer LayerOf(const std::string& span_name);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Op {
  std::string family;  // Query family or "edit".
  bool is_edit = false;
  std::string mdx;
  std::vector<CellWrite> writes;
  int changing_writes = 0;  // Writes on members the live scenario merges.
};

// Component times of one fixture build, all inside setup_s, and the size
// of the stored file (out_of_core).
struct SetupTimes {
  double open_s = 0.0;
  double build_aggregates_s = 0.0;
  double live_create_s = 0.0;
  double file_bytes_per_cell = 0.0;
};

// One query whose grid the loop kept for the output checks.
struct SampledQuery {
  Op op;
  ResultGrid grid;
};

// A named check's outcome.
struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Scale {
  bool tiny = false;  // Self-test sizes.
};

// The random source of one operation stream. Pick(bag, n) draws from a
// named bag holding 0..n-1 once each, reshuffled when empty, so a
// parameter drawn this way covers its values evenly in every stretch of n
// draws, whatever the seed: the mix of cheap and costly operations is the
// same across seeds, and only their order and identities vary.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}
  Rng* rng() { return &rng_; }
  int Pick(const std::string& bag, int n);

 private:
  Rng rng_;
  std::map<std::string, std::vector<int>> bags_;
};

// Vocabulary shared by the workload generators.
inline constexpr const char* kMonthNames[12] = {"Jan", "Feb", "Mar", "Apr",
                                                "May", "Jun", "Jul", "Aug",
                                                "Sep", "Oct", "Nov", "Dec"};
// `prefix` and `n` zero-padded to `width` digits ("Emp00042").
std::string Numbered(const char* prefix, int n, int width);
// `k` distinct months of 12, in calendar order, as "(Jan), (Apr)".
std::string MonthList(Rng* rng, int k);
// The workforce queries' Fig. 10 column axis (every measure at the input
// coordinates) and period rows (quarters and months).
inline constexpr char kWorkforceColumns[] =
    "{CrossJoin({[Account].Levels(0).Members}, "
    "{([Current], [Local], [BU Version_1], [HSP_InputValue])})} ON COLUMNS";
inline constexpr char kWorkforcePeriods[] =
    "{Descendants([Period],1,self_and_after)}";
// The workforce cube of paper_whatif and edit_feed: the figure benches'
// scale (1.215 M cells), or a tiny one for the self-test.
WorkforceConfig WorkforceAt(const Scale& scale);

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the fixture from scratch, wrapping public calls in `rec` spans.
  // Replaces any previous fixture (Teardown first).
  virtual Status Setup(Recorder* rec, SetupTimes* times) = 0;
  virtual void Teardown() = 0;

  // Appends one deck of operations, a fixed mix drawn from `stream`; the
  // harness shuffles it.
  virtual void NextDeck(Stream* stream, std::vector<Op>* out) = 0;

  virtual const Database& db() const = 0;
  virtual const Executor& exec() const = 0;
  // Options every timed Execute uses.
  virtual QueryOptions query_options() const = 0;
  // Simulated device seconds charged so far (0 without a device).
  virtual double device_seconds() const { return 0.0; }

  // Applies an edit op, wrapping each public call in `rec` spans.
  virtual Status ApplyEdit(const Op& op, Recorder* rec,
                           Database::EditStats* edit_stats,
                           RefreshStats* refresh_stats);

  // Output checks, run after timing. `sampled` are queries of the run with
  // the grids the timed loop returned.
  virtual std::vector<CheckResult> Check(
      const std::vector<SampledQuery>& sampled) = 0;
  // How many of the run's queries Check compares (bounds check time).
  virtual int max_sampled() const = 0;

  // Workload-specific properties (sizes a later optimisation depends on),
  // read after Check.
  virtual std::map<std::string, double> Properties() const { return {}; }
};

std::unique_ptr<Workload> MakePaperWhatif(const Scale& scale);
std::unique_ptr<Workload> MakeEditFeed(const Scale& scale);
std::unique_ptr<Workload> MakeOutOfCore(const Scale& scale,
                                        const std::string& workdir);

// Bitwise grid equality (labels, shape and every cell's bit pattern).
bool SameGrid(const ResultGrid& a, const ResultGrid& b, std::string* why);
// Order-dependent digest of every stored chunk cell (equal digests =
// bitwise-equal cubes).
uint64_t DigestCube(const Cube& cube);

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  std::string workdir = ".";
  std::string trace_out;  // Span file of a traced run ("" = not written).
};

// A metric as reported: value, unit, and the number of samples behind it.
// Ratios also carry their denominator.
struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
  double base = -1.0;  // Denominator of a ratio; < 0 = not a ratio.
};

struct RunReport {
  RunConfig config;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<CheckResult> checks;
  std::map<std::string, Metric> metrics;         // Wall clock and counts.
  std::map<std::string, Metric> device_metrics;  // Simulated device time.
  std::map<std::string, double> properties;

  std::string ToJson() const;
};

// Builds the workload, runs it and checks it. A traced run measures the
// untraced loop first, then the same seeded stream traced.
Result<RunReport> RunWorkload(const RunConfig& config);

}  // namespace olap::e2e

#endif  // OLAP_BENCH_E2E_HARNESS_H_
