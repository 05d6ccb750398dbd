// edit_feed: short MDX reads beside a live edit feed on the workforce cube.
//
// The cube carries 8 persistent views (Database::BuildAggregates). A live
// scenario — Fig. 10(a)'s static {Jan, Apr, Jul, Oct}, non-visual — runs
// over a second copy of the cube. ApplyCellEdits builds its DeltaBatch
// internally, so the engine's feed and IncrementalScenario cannot share
// one: each batch goes through ApplyCellEdits, then the same writes through
// a DeltaBatch + ApplyDelta.
//
// Why: writes run beside reads. The work is serving from persistent views,
// each query's fixed costs (parse, bind, grid assembly) and the write path
// (view patch, delta refresh); relocation over large scopes and scratch-view
// builds do little here.

#include <optional>

#include "common/metrics.h"
#include "harness.h"
#include "mdx/binder.h"
#include "mdx/parser.h"
#include "workload/workforce.h"

namespace olap::e2e {
namespace {

const char* const kScenarios[] = {"Current", "Forecast", "Budget", "Plan",
                                  "Stretch"};
const char kCube[] = "App.Db";

class EditFeed : public Workload {
 public:
  explicit EditFeed(const Scale& scale) : config_(WorkforceAt(scale)) {}

  Status Setup(Recorder* rec, SetupTimes* times) override {
    Teardown();
    WorkforceCube wf = BuildWorkforceCube(config_);
    IndexCells(wf);
    live_base_ = std::make_unique<Cube>(wf.cube);
    db_ = std::make_unique<Database>();
    OLAP_RETURN_IF_ERROR(RegisterWorkforce(db_.get(), kCube, std::move(wf)));
    exec_ = std::make_unique<Executor>(db_.get());
    {
      ScopedSpan span(rec, "Database::BuildAggregates");
      const int64_t t0 = NowNs();
      OLAP_RETURN_IF_ERROR(db_->BuildAggregates(kCube, 8));
      times->build_aggregates_s = static_cast<double>(NowNs() - t0) / 1e9;
    }

    // The live scenario's spec, bound from Fig. 10(a)'s clause.
    Result<mdx::ParsedQuery> parsed = [&] {
      ScopedSpan span(rec, "mdx::Parse");
      return mdx::Parse(
          "WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department "
          "STATIC SELECT {[Account].Levels(0).Members} ON COLUMNS "
          "FROM [App].[Db]");
    }();
    if (!parsed.ok()) return parsed.status();
    Result<mdx::BoundQuery> bound = [&] {
      ScopedSpan span(rec, "mdx::Bind");
      return mdx::Bind(*parsed, live_base_->schema(), db_.get(),
                       live_base_.get());
    }();
    if (!bound.ok()) return bound.status();
    if (bound->specs.size() != 1) {
      return Status::Internal("expected one what-if spec");
    }
    spec_ = ScenarioSpec::FromWhatIf(bound->specs[0]);
    {
      ScopedSpan span(rec, "IncrementalScenario::Create");
      const int64_t t0 = NowNs();
      Result<IncrementalScenario> live =
          IncrementalScenario::Create(live_base_.get(), {spec_});
      if (!live.ok()) return live.status();
      live_.emplace(*std::move(live));
      times->live_create_s = static_cast<double>(NowNs() - t0) / 1e9;
    }

    // The first feed builds the views' contribution-count sidecar (one
    // chunk pass); pay it here with a write of a cell's current value.
    Op first;
    first.is_edit = true;
    first.writes.push_back(
        {cells_[config_.num_changing][0].coords,
         live_base_->GetCell(cells_[config_.num_changing][0].coords)});
    Database::EditStats es;
    RefreshStats rs;
    return ApplyEdit(first, rec, &es, &rs);
  }

  void Teardown() override {
    live_.reset();
    exec_.reset();
    db_.reset();
    live_base_.reset();
  }

  // 15 steps: 12 reads — 3 department x month totals, 5 one-department
  // reads, 4 one-employee what-ifs — and 3 edit batches (every fifth step
  // an edit on average). The totals are the fastest reads, with little
  // mass between them and the rest; at a quarter of the reads, p50 falls
  // inside the slower reads' distribution rather than in that gap.
  void NextDeck(Stream* stream, std::vector<Op>* out) override {
    Rng* rng = stream->rng();
    for (int i = 0; i < 3; ++i) out->push_back(DeptMonths(rng));
    for (int i = 0; i < 5; ++i) out->push_back(DeptEmployees(rng));
    for (int i = 0; i < 4; ++i) out->push_back(EmployeeForward(stream));
    for (int i = 0; i < 3; ++i) out->push_back(Edit(stream));
  }

  const Database& db() const override { return *db_; }
  const Executor& exec() const override { return *exec_; }
  QueryOptions query_options() const override { return QueryOptions(); }

  Status ApplyEdit(const Op& op, Recorder* rec, Database::EditStats* edit_stats,
                   RefreshStats* refresh_stats) override {
    {
      ScopedSpan span(rec, "Database::ApplyCellEdits");
      OLAP_RETURN_IF_ERROR(db_->ApplyCellEdits(kCube, op.writes, edit_stats));
    }
    DeltaBatch batch(live_base_.get());
    for (const CellWrite& w : op.writes) {
      ScopedSpan span(rec, "DeltaBatch::Set");
      OLAP_RETURN_IF_ERROR(batch.Set(w.coords, w.value));
    }
    ScopedSpan span(rec, "IncrementalScenario::ApplyDelta");
    return live_->ApplyDelta(batch, RefreshOptions(), refresh_stats);
  }

  std::vector<CheckResult> Check(
      const std::vector<SampledQuery>& sampled) override {
    std::vector<CheckResult> out;
    Result<const Cube*> stored = db_->FindCube(kCube);
    const uint64_t stored_digest = stored.ok() ? DigestCube(**stored) : 0;
    const uint64_t live_digest = DigestCube(*live_base_);
    out.push_back({"edit_feed.cube_copies_identical",
                   stored.ok() && stored_digest == live_digest,
                   "database cube and live-scenario base digests " +
                       std::to_string(stored_digest) + " / " +
                       std::to_string(live_digest)});

    Result<PerspectiveCube> full = ComputeScenario(*live_base_, spec_);
    CheckResult live{"edit_feed.live_scenario_matches_recompute", false, ""};
    if (!full.ok()) {
      live.detail = "ComputeScenario: " + full.status().ToString();
    } else if (live_->needs_rebuild()) {
      live.detail = "live scenario flagged needs_rebuild";
    } else {
      const uint64_t a = DigestCube(live_->cube().output());
      const uint64_t b = DigestCube(full->output());
      live.ok = a == b;
      live.detail = "refreshed output digest " + std::to_string(a) +
                    ", from-scratch " + std::to_string(b);
    }
    out.push_back(live);

    // Sampled reads served by the (patched) persistent views, then again
    // with the views made stale so the engine computes from base cells.
    CheckResult views{"edit_feed.views_match_base_cells", true, ""};
    Counter* hits = MetricsRegistry::Global().counter("agg.cache.hits");
    const int64_t hits_before = hits->value();
    std::vector<ResultGrid> served;
    for (const SampledQuery& s : sampled) {
      Result<QueryResult> r = exec_->Execute(s.op.mdx, query_options());
      if (!r.ok()) {
        views = {views.name, false, r.status().ToString() + ": " + s.op.mdx};
        break;
      }
      served.push_back(std::move(r->grid));
    }
    const int64_t view_hits = hits->value() - hits_before;
    if (views.ok && (view_hits == 0 || served.empty())) {
      views = {views.name, false, "no sampled read was served by a view"};
    }
    if (views.ok) {
      if (Status s = db_->BumpStructuralEpoch(kCube); !s.ok()) {
        views = {views.name, false, s.ToString()};
      }
    }
    for (size_t i = 0; views.ok && i < served.size(); ++i) {
      Result<QueryResult> r =
          exec_->Execute(sampled[i].op.mdx, query_options());
      std::string why;
      if (!r.ok()) {
        views = {views.name, false, r.status().ToString()};
      } else if (!SameGrid(served[i], r->grid, &why)) {
        views = {views.name, false, why + "; query: " + sampled[i].op.mdx};
      }
    }
    if (views.ok) {
      views.detail = std::to_string(served.size()) + " reads (" +
                     std::to_string(view_hits) +
                     " view hits) identical with stale views";
    }
    out.push_back(views);
    return out;
  }
  int max_sampled() const override { return 24; }

 private:
  struct CellSlot {
    std::vector<int> coords;  // Account/scenario left at 0.
  };

  // For every employee, one slot per (instance, month) the instance is
  // valid at: the cells an edit may write.
  void IndexCells(const WorkforceCube& wf) {
    dims_ = wf.cube.num_dims();
    dept_dim_ = wf.dept_dim;
    period_dim_ = wf.period_dim;
    account_dim_ = wf.account_dim;
    scenario_dim_ = wf.scenario_dim;
    const Dimension& dept = wf.cube.schema().dimension(wf.dept_dim);
    cells_.clear();
    std::vector<MemberId> employees = wf.changing_employees;
    employees.insert(employees.end(), wf.stable_employees.begin(),
                     wf.stable_employees.end());
    for (MemberId emp : employees) {
      std::vector<CellSlot> slots;
      for (InstanceId inst : dept.InstancesOf(emp)) {
        const DynamicBitset& vs = dept.instance(inst).validity;
        for (int t = vs.FindFirst(); t >= 0; t = vs.FindNext(t + 1)) {
          std::vector<int> coords(dims_, 0);
          coords[dept_dim_] = inst;
          coords[period_dim_] = t;
          slots.push_back({std::move(coords)});
        }
      }
      cells_.push_back(std::move(slots));
    }
  }

  static std::string Employee(int index) {
    return Numbered("Emp", index + 1, 5);
  }

  // Department x month totals for one measure and scenario.
  Op DeptMonths(Rng* rng) const {
    Op op;
    op.family = "dept_months";
    const int measure =
        1 + static_cast<int>(rng->NextBelow(config_.num_measures));
    const char* scenario = kScenarios[rng->NextBelow(config_.num_scenarios)];
    op.mdx = "SELECT {[Period].Levels(0).Members} ON COLUMNS, "
             "{[Department].Children} ON ROWS FROM [App].[Db] WHERE ([" +
             Numbered("Measure", measure, 3) + "], [" + scenario + "])";
    return op;
  }

  // One department's employees x periods.
  Op DeptEmployees(Rng* rng) const {
    Op op;
    op.family = "dept_employees";
    op.mdx = std::string("SELECT ") + kWorkforceColumns + ", {CrossJoin({[" +
             Numbered("Dept", 1 + static_cast<int>(
                                  rng->NextBelow(config_.num_departments)),
                  2) +
             "].Children}, " + kWorkforcePeriods + ")} ON ROWS FROM [App].[Db]";
    return op;
  }

  // A dynamic-forward what-if on one changing employee.
  Op EmployeeForward(Stream* stream) const {
    Rng* rng = stream->rng();
    Op op;
    op.family = "employee_forward";
    const int k = 1 + stream->Pick("forward.months", 3);
    const std::string months = MonthList(rng, k);
    const int emp = static_cast<int>(rng->NextBelow(config_.num_changing));
    op.mdx = "WITH PERSPECTIVE {" + months +
             "} FOR Department DYNAMIC FORWARD SELECT " + kWorkforceColumns +
             ", {CrossJoin({[Department].[" + Employee(emp) + "]}, " +
             kWorkforcePeriods + ")} ON ROWS FROM [App].[Db]";
    return op;
  }

  // 1–16 integer-valued writes to existing cells, ~20% on changing
  // employees (inside the live scenario's merge closure).
  Op Edit(Stream* stream) const {
    Rng* rng = stream->rng();
    Op op;
    op.family = "edit";
    op.is_edit = true;
    const int n = 1 + stream->Pick("edit.writes", 16);
    for (int i = 0; i < n; ++i) {
      const bool changing = stream->Pick("edit.changing", 5) == 0;
      const int emp = static_cast<int>(
          changing ? rng->NextBelow(config_.num_changing)
                   : rng->NextInRange(config_.num_changing,
                                      config_.num_employees - 1));
      const std::vector<CellSlot>& slots = cells_[emp];
      std::vector<int> coords = slots[rng->NextBelow(slots.size())].coords;
      coords[account_dim_] =
          static_cast<int>(rng->NextBelow(config_.num_measures));
      coords[scenario_dim_] =
          static_cast<int>(rng->NextBelow(config_.num_scenarios));
      op.writes.push_back(
          {std::move(coords), CellValue(1000.0 + rng->NextBelow(1000))});
      if (changing) ++op.changing_writes;
    }
    return op;
  }

  WorkforceConfig config_;
  int dims_ = 0, dept_dim_ = 0, period_dim_ = 0, account_dim_ = 0,
      scenario_dim_ = 0;
  // Changing employees first, then stable ones (index = employee ordinal).
  std::vector<std::vector<CellSlot>> cells_;
  std::unique_ptr<Cube> live_base_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> exec_;
  ScenarioSpec spec_;
  std::optional<IncrementalScenario> live_;
};

}  // namespace

std::unique_ptr<Workload> MakeEditFeed(const Scale& scale) {
  return std::make_unique<EditFeed>(scale);
}

}  // namespace olap::e2e
