#ifndef OLAP_ENGINE_EXECUTOR_H_
#define OLAP_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <string_view>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/governor.h"
#include "engine/result_grid.h"
#include "storage/simulated_disk.h"
#include "whatif/perspective_cube.h"
#include "whatif/scenario_algebra.h"

namespace olap {

namespace mdx {
struct ParsedQuery;
}  // namespace mdx

// Knobs for one query execution.
struct QueryOptions {
  // How a what-if clause is evaluated (the Fig. 11 comparison).
  EvalStrategy strategy = EvalStrategy::kDirect;
  // Charges chunk fetches to this device when non-null.
  SimulatedDisk* disk = nullptr;
  // Number of threads evaluating the query (1 = serial). Governs both the
  // what-if data movement (Split/Relocate chunk kernels) and grid-cell
  // evaluation, all on the process-wide shared pool; results are
  // bit-identical to serial at every setting.
  int eval_threads = 1;
  // Collect a QueryProfile (trace spans + metrics delta) for this query.
  // Tracing sessions are process-global, so profiled queries serialize
  // against each other; leave this off on the hot path.
  bool collect_profile = false;
  // Batched cover-view evaluation: plan + materialize the subtotal views
  // covering the grid's derived cells in one chunk pass, then serve each
  // cell from the smallest covering view, persistent (built by
  // Database::BuildAggregates) or per-query scratch. Off = the per-cell
  // oracle: every derived cell is the leaf roll-up and no view serves;
  // tests and benches compare against it. Values are identical either way
  // on exactly-summable data; sums are re-associated, so the last float
  // bits can differ otherwise.
  bool batched_eval = true;
  // Out-of-core reads (needs `disk`): what-if read passes charge the
  // pebbling schedule through SimulatedDisk::ReadSchedule's windowed
  // coalescing instead of one seek per chunk, and — when the disk has a
  // backing file storing the evaluation cube — batched-eval scratch views
  // stream their chunks from the backing file through the same walk.
  // Results are bit-identical with the option off; only I/O changes.
  bool pipelined_io = false;
  // Query governance: deadline, cooperative cancellation and memory budget
  // (see engine/governor.h). Inactive by default — governed queries create
  // a QueryContext whose token is threaded through every phase and whose
  // pressure signals walk the degradation ladder before the query fails
  // with kDeadlineExceeded / kCancelled.
  GovernorOptions governor;
};

// Where one query's time went: the query's span tree (executor phases,
// what-if algebra operators, storage activity) plus the delta of every
// process-wide metric over the query's window. Collected when
// QueryOptions::collect_profile is set; rendered by EXPLAIN ANALYZE.
struct QueryProfile {
  bool collected = false;
  TraceData trace;
  MetricsRegistry::Snapshot metrics_delta;

  // EXPLAIN ANALYZE-style rendering: the per-span table (count / wall
  // time, indented by nesting) followed by the non-zero counter deltas.
  std::string ToText() const;
  // chrome://tracing-compatible trace of the query.
  std::string ToTraceJson() const { return trace.ToChromeJson(); }
  std::string ToMetricsJson() const { return metrics_delta.ToJson(); }
};

struct QueryResult {
  ResultGrid grid;
  bool used_whatif = false;
  EvalStats whatif_stats;  // Zero when no what-if clause.
  // Cells in the returned grid (rows × columns, after NON EMPTY filtering
  // dropped all-⊥ rows/columns) — always equal to
  // grid.num_rows() * grid.num_columns(), a contract the stats suite
  // enforces. The raw number of cells computed — including ones NON EMPTY
  // later dropped — is the "query.cells_computed" registry counter.
  int64_t cells_evaluated = 0;
  QueryProfile profile;  // Collected when options.collect_profile.
  // Degradation-ladder steps the governor took for this query, in the
  // order taken (DegradeStepName strings). Empty when ungoverned or when
  // the query ran at full plan. Rendered by EXPLAIN ANALYZE.
  std::vector<std::string> governor_steps;
  // COMPARE <query> VERSUS <query>: the grid holds the per-cell delta
  // (scenario A − scenario B, ⊥ only where both sides are ⊥) and
  // `comparison` the containment / overlap / distance metrics. `compared`
  // is false for ordinary queries.
  bool compared = false;
  ScenarioComparison comparison;
};

// Parses, binds and evaluates extended-MDX queries against a Database.
//
//   Database db; ... db.AddCube("Warehouse", cube) ...
//   Executor exec(&db);
//   Result<QueryResult> r = exec.Execute(
//       "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD "
//       "VISUAL SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, "
//       "{[Organization].Members} ON ROWS FROM Warehouse "
//       "WHERE (Location.[NY], Measures.[Salary])");
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  Result<QueryResult> Execute(std::string_view mdx_text,
                              const QueryOptions& options = QueryOptions()) const;

  // Parses, binds and plans the query WITHOUT evaluating it, and renders
  // the plan Execute runs (both build it with the same function): cube,
  // axis sizes, what-if specs (semantics/mode/perspectives/changes, the
  // Sec. 6.3 scoping decision), allocations, evaluation strategy, whether
  // materialized aggregations serve derived cells, and whether scratch
  // views stream from the disk's backing file.
  Result<std::string> Explain(std::string_view mdx_text,
                              const QueryOptions& options = QueryOptions()) const;

  // EXPLAIN ANALYZE: actually executes the query with profiling on and
  // returns the static plan (Explain) followed by the measured per-phase /
  // per-operator breakdown and the query's metric deltas
  // (QueryProfile::ToText).
  Result<std::string> ExplainAnalyze(
      std::string_view mdx_text,
      const QueryOptions& options = QueryOptions()) const;

 private:
  // `ctx` is the query's governor context, or nullptr when ungoverned.
  Result<QueryResult> ExecuteImpl(std::string_view mdx_text,
                                  const QueryOptions& options,
                                  QueryContext* ctx) const;

  // COMPARE <A> VERSUS <B>: binds both sides (same cube, identical bound
  // axes and slicer required), evaluates both scenario stacks through the
  // scenario algebra (CompareScenarios: one batched evaluator per cube the
  // sides read), and returns the delta grid plus ScenarioComparison
  // metrics.
  Result<QueryResult> ExecuteCompare(const mdx::ParsedQuery& parsed,
                                     const QueryOptions& options,
                                     QueryContext* ctx) const;

  const Database* db_;
};

}  // namespace olap

#endif  // OLAP_ENGINE_EXECUTOR_H_
