// paper_whatif: the paper's Fig. 10 query families on the workforce cube,
// in memory, no persistent aggregations, default QueryOptions.
//
// Why: this is the query class the paper exists to answer. The what-if
// operators and the per-query scratch views do almost all the work; storage,
// the persistent cache and the edit path sit idle (the bypass side of every
// optimisation aimed at them).

#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "workload/workforce.h"

namespace olap::e2e {
namespace {

const char* const kSemantics[5] = {"STATIC", "DYNAMIC FORWARD",
                                   "DYNAMIC BACKWARD",
                                   "DYNAMIC EXTENDED FORWARD",
                                   "DYNAMIC EXTENDED BACKWARD"};

const char kAllChanging[] =
    "Union({Union({[EmployeesWithAtleastOneMove-Set1].Children}, "
    "{[EmployeesWithAtleastOneMove-Set2].Children})}, "
    "{[EmployeesWithAtleastOneMove-Set3].Children})";

class PaperWhatif : public Workload {
 public:
  explicit PaperWhatif(const Scale& scale) : config_(WorkforceAt(scale)) {}

  Status Setup(Recorder*, SetupTimes*) override {
    Teardown();
    db_ = std::make_unique<Database>();
    OLAP_RETURN_IF_ERROR(
        RegisterWorkforce(db_.get(), "App.Db", BuildWorkforceCube(config_)));
    exec_ = std::make_unique<Executor>(db_.get());
    return Status::Ok();
  }

  void Teardown() override {
    exec_.reset();
    db_.reset();
  }

  // 20 operations: 7 Fig. 10(a), 4 Fig. 10(b), 5 Fig. 10(c), 2 CHANGES,
  // 1 COMPARE, 1 INTRODUCE.
  void NextDeck(Stream* stream, std::vector<Op>* out) override {
    const std::pair<const char*, int> mix[] = {
        {"fig10a", 7}, {"fig10b", 4},  {"fig10c", 5},
        {"changes", 2}, {"compare", 1}, {"introduce", 1}};
    for (const auto& [family, count] : mix) {
      for (int i = 0; i < count; ++i) out->push_back(Make(family, stream));
    }
  }

  const Database& db() const override { return *db_; }
  const Executor& exec() const override { return *exec_; }
  QueryOptions query_options() const override { return QueryOptions(); }

  // Re-runs each sampled query with per-cell evaluation of derived cells
  // (QueryOptions::batched_eval off) and compares grids bit for bit: the
  // data is integer-valued, so every summation order gives the same sums.
  //
  // Perspective queries also run under the Multiple-MDX strategy. That
  // simulation differs from the direct path on instances whose validity
  // set skips the governing perspective (their cells before the first or
  // after the last perspective are dropped), so its disagreements are
  // counted as a property rather than gated.
  std::vector<CheckResult> Check(
      const std::vector<SampledQuery>& sampled) override {
    CheckResult result{"paper_whatif.per_cell_oracle", true, ""};
    int compared = 0;
    multiple_mdx_compared_ = 0;
    multiple_mdx_disagreements_ = 0;
    for (const SampledQuery& s : sampled) {
      QueryOptions per_cell;
      per_cell.batched_eval = false;
      Result<QueryResult> r = exec_->Execute(s.op.mdx, per_cell);
      std::string why;
      if (!r.ok()) {
        why = r.status().ToString();
      } else if (SameGrid(s.grid, r->grid, &why)) {
        ++compared;
      }
      if (!why.empty()) {
        result = {result.name, false,
                  s.op.family + ": " + why + "; query: " + s.op.mdx};
        break;
      }
      if (s.op.family.rfind("fig10", 0) != 0) continue;
      QueryOptions multiple_mdx;
      multiple_mdx.strategy = EvalStrategy::kMultipleMdx;
      Result<QueryResult> m = exec_->Execute(s.op.mdx, multiple_mdx);
      ++multiple_mdx_compared_;
      if (!m.ok() || !SameGrid(s.grid, m->grid, &why)) {
        if (multiple_mdx_disagreements_++ == 0) {
          fprintf(stderr, "note: Multiple-MDX disagrees with the direct path: "
                          "%s; query: %s\n",
                  m.ok() ? why.c_str() : m.status().ToString().c_str(),
                  s.op.mdx.c_str());
        }
      }
    }
    if (result.ok) {
      result.ok = compared > 0;
      result.detail = std::to_string(compared) + " sampled grids identical";
    }
    return {result};
  }
  std::map<std::string, double> Properties() const override {
    return {{"multiple_mdx_compared", multiple_mdx_compared_},
            {"multiple_mdx_disagreements", multiple_mdx_disagreements_}};
  }
  int max_sampled() const override { return 16; }

 private:
  static std::string Employee(int index) {
    return Numbered("Emp", index + 1, 5);
  }
  static std::string Department(int index) {
    return Numbered("Dept", index + 1, 2);
  }

  // WITH PERSPECTIVE over 1–6 distinct months, any of the five semantics,
  // VISUAL on one query in four.
  static std::string Perspective(Stream* stream) {
    const int k = 1 + stream->Pick("perspective.months", 6);
    std::string out = "WITH PERSPECTIVE {" + MonthList(stream->rng(), k);
    out += std::string("} FOR Department ") +
           kSemantics[stream->Pick("perspective.semantics", 5)];
    if (stream->Pick("perspective.visual", 4) == 0) out += " VISUAL";
    return out + " ";
  }

  // A split of one stable employee to another department from some month.
  std::string Change(Rng* rng, std::string* home, std::string* target) const {
    const int emp = static_cast<int>(
        rng->NextInRange(config_.num_changing, config_.num_employees - 1));
    const int home_idx = emp % config_.num_departments;
    const int target_idx = static_cast<int>(
        (home_idx + 1 + rng->NextBelow(config_.num_departments - 1)) %
        config_.num_departments);
    *home = Department(home_idx);
    *target = Department(target_idx);
    return "{([" + *home + "].[" + Employee(emp) + "], [" + *home + "], [" +
           *target + "], [" + kMonthNames[rng->NextInRange(1, 11)] +
           "])}";
  }

  Op Make(const std::string& family, Stream* stream) const {
    Rng* rng = stream->rng();
    Op op;
    op.family = family;
    const std::string select = std::string("SELECT ") + kWorkforceColumns;
    const std::string periods = kWorkforcePeriods;
    const std::string from = " FROM [App].[Db]";
    const std::string props = " DIMENSION PROPERTIES [Department] ON ROWS";
    if (family == "fig10a") {
      op.mdx = Perspective(stream) + select + ", {CrossJoin({" +
               kAllChanging + "}, " + periods + ")}" + props + from;
    } else if (family == "fig10b") {
      const int emp = static_cast<int>(rng->NextBelow(config_.num_changing));
      op.mdx = Perspective(stream) + select + ", {CrossJoin({[Department].[" +
               Employee(emp) + "]}, " + periods + ")}" + props + from;
    } else if (family == "fig10c") {
      // k in [n/5, n], drawn from five equal strata.
      const int lo = std::max(1, config_.num_changing / 5);
      const int width = (config_.num_changing - lo + 1 + 4) / 5;
      const int stratum = stream->Pick("head.stratum", 5);
      const int k = std::min(config_.num_changing,
                             lo + width * stratum +
                                 static_cast<int>(rng->NextBelow(width)));
      op.mdx = Perspective(stream) + select + ", {CrossJoin({Head({" +
               kAllChanging + "}, " + std::to_string(k) + ")}, " + periods +
               ")}" + props + from;
    } else if (family == "changes") {
      std::string home, target;
      const std::string change = Change(rng, &home, &target);
      op.mdx = "WITH CHANGES " + change + " FOR Department" +
               (stream->Pick("changes.visual", 2) ? " VISUAL " : " ") +
               select + ", {CrossJoin({[" + home + "], [" + target + "]}, " +
               periods + ")} ON ROWS" + from;
    } else if (family == "compare") {
      // A positive split against the base plan over a fully derived
      // department x month grid (both sides share cover views).
      std::string home, target;
      const std::string change = Change(rng, &home, &target);
      const std::string grid =
          " SELECT {[Period].Levels(0).Members} ON COLUMNS, "
          "{[Department].Children} ON ROWS" +
          from;
      op.mdx = "COMPARE WITH CHANGES " + change + grid + " VERSUS" + grid;
    } else {  // introduce
      const int dept =
          static_cast<int>(rng->NextBelow(config_.num_departments));
      const int source = static_cast<int>(
          rng->NextInRange(config_.num_changing, config_.num_employees - 1));
      const std::string hire =
          Numbered("NewHire", static_cast<int>(rng->NextBelow(1000)), 3);
      const bool clone = stream->Pick("introduce.clone", 2) == 0;
      op.mdx = "WITH INTRODUCE {([" + hire + "], [" + Department(dept) +
               "], [" + kMonthNames[rng->NextInRange(1, 11)] + "], " +
               (clone ? "CLONE" : "TRANSFER") + " [" + Employee(source) +
               "] " + (clone ? "0.5" : "1.0") +
               ")} FOR Department VISUAL " + select + ", {CrossJoin({[" +
               Department(dept) + "], [" + Department(dept) + "].[" + hire +
               "]}, " + periods + ")} ON ROWS" + from;
    }
    return op;
  }

  WorkforceConfig config_;
  double multiple_mdx_compared_ = 0;
  double multiple_mdx_disagreements_ = 0;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> exec_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperWhatif(const Scale& scale) {
  return std::make_unique<PaperWhatif>(scale);
}

}  // namespace olap::e2e
