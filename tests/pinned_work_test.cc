// Pins the work the what-if engine does on the paper's bench-scale queries,
// so that a change meant only to make lookups cheaper cannot alter it
// silently:
//   * the EvalStats counters of fixed Fig. 10 / CHANGES / INTRODUCE query
//     shapes on the bench workforce cube (bench/bench_workloads.h and
//     bench_e2e's paper_whatif: 51 departments, 2,025 employees, 250
//     changing, 10 measures, 5 scenarios, seed 20080407);
//   * the simulated disk's charges for the Fig. 12 VISUAL dynamic-forward
//     probe on the product cube, with pipelined_io on and off.
//
// Merge graphs, pebbling orders and read schedules all follow the order
// Dimension::InstancesOf returns instances in (creation order), so
// reordering it changes chunk_reads, peak_merge_chunks and the disk's seek
// and coalescing counts here.
//
// Every expected value was captured by running these exact queries on the
// engine as it stood before Dimension gained its per-member instance index
// (when every instance lookup scanned the whole instance table), and the
// indexed engine reproduces each one exactly.

#include <string>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "storage/simulated_disk.h"
#include "workload/product.h"
#include "workload/workforce.h"

namespace olap {
namespace {

constexpr char kColumns[] =
    "SELECT {CrossJoin({[Account].Levels(0).Members}, "
    "{([Current], [Local], [BU Version_1], [HSP_InputValue])})} ON COLUMNS";
constexpr char kPeriods[] = "{Descendants([Period],1,self_and_after)}";
constexpr char kAllChanging[] =
    "Union({Union({[EmployeesWithAtleastOneMove-Set1].Children}, "
    "{[EmployeesWithAtleastOneMove-Set2].Children})}, "
    "{[EmployeesWithAtleastOneMove-Set3].Children})";
constexpr char kRowsTail[] =
    " DIMENSION PROPERTIES [Department] ON ROWS FROM [App].[Db]";

struct PinnedQuery {
  const char* name;
  std::string mdx;
  EvalStats expected;  // virtual_io_seconds unused (no disk).
};

void PrintTo(const PinnedQuery& q, std::ostream* os) { *os << q.name; }

EvalStats Work(int64_t passes, int64_t chunk_reads, int64_t cells_moved,
               int64_t cells_seeded, int peak_merge_chunks) {
  EvalStats s;
  s.passes = passes;
  s.chunk_reads = chunk_reads;
  s.cells_moved = cells_moved;
  s.cells_seeded = cells_seeded;
  s.peak_merge_chunks = peak_merge_chunks;
  return s;
}

std::string Perspective(const char* months, const char* semantics) {
  return std::string("WITH PERSPECTIVE {") + months + "} FOR Department " +
         semantics + " ";
}

std::string RowsOver(const std::string& set) {
  return std::string(", {CrossJoin({") + set + "}, " + kPeriods + ")}" +
         kRowsTail;
}

std::vector<PinnedQuery> PinnedQueries() {
  const std::string fig10a = std::string(kColumns) + RowsOver(kAllChanging);
  // Emp00301 (0-based 300) is a stable employee homed in Dept46 (300 % 51).
  const std::string split_rows =
      std::string(", {CrossJoin({[Dept46], [Dept47]}, ") + kPeriods +
      ")} ON ROWS FROM [App].[Db]";
  return {
      {"Fig10aForward",
       Perspective("(Feb), (Mar), (Apr), (Sep)", "DYNAMIC FORWARD") + fig10a,
       Work(1, 5934, 143300, 0, 294)},
      {"Fig10aForwardVisual",
       Perspective("(Feb), (Mar), (Apr), (Sep)", "DYNAMIC FORWARD VISUAL") +
           fig10a,
       Work(1, 13710, 1208300, 0, 294)},
      {"Fig10aStatic", Perspective("(Jan), (Jul)", "STATIC") + fig10a,
       Work(1, 4728, 66450, 0, 294)},
      {"Fig10b",
       Perspective("(Jan), (Apr), (Jul), (Oct)", "DYNAMIC FORWARD") +
           kColumns + RowsOver("[Department].[Emp00001]"),
       Work(1, 30, 600, 0, 3)},
      {"Fig10cHead150",
       Perspective("(Jan), (Apr), (Jul), (Oct)", "DYNAMIC FORWARD") +
           kColumns +
           RowsOver(std::string("Head({") + kAllChanging + "}, 150)"),
       Work(1, 4578, 90000, 0, 160)},
      {"ChangesSplit",
       std::string("WITH CHANGES {([Dept46].[Emp00301], [Dept46], [Dept47], "
                   "[Jun])} FOR Department ") +
           kColumns + split_rows,
       Work(1, 18, 1215000, 0, 0)},
      {"IntroduceClone",
       std::string("WITH INTRODUCE {([NewHire001], [Dept05], [Apr], CLONE "
                   "[Emp00400] 0.5)} FOR Department VISUAL ") +
           kColumns +
           ", {CrossJoin({[Dept05], [Dept05].[NewHire001]}, " + kPeriods +
           ")} ON ROWS FROM [App].[Db]",
       Work(1, 13716, 1215450, 450, 0)},
  };
}

class PinnedWorkTest : public ::testing::TestWithParam<PinnedQuery> {
 protected:
  static void SetUpTestSuite() {
    WorkforceConfig config;
    config.num_departments = 51;
    config.num_employees = 2025;
    config.num_changing = 250;
    config.num_measures = 10;
    config.num_scenarios = 5;
    config.seed = 20080407;
    db_ = new Database();
    ASSERT_TRUE(
        RegisterWorkforce(db_, "App.Db", BuildWorkforceCube(config)).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
};

Database* PinnedWorkTest::db_ = nullptr;

TEST_P(PinnedWorkTest, EvalStatsMatchTheCapturedWork) {
  const PinnedQuery& q = GetParam();
  Executor exec(db_);
  Result<QueryResult> r = exec.Execute(q.mdx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->used_whatif);
  const EvalStats& got = r->whatif_stats;
  EXPECT_EQ(got.passes, q.expected.passes);
  EXPECT_EQ(got.chunk_reads, q.expected.chunk_reads);
  EXPECT_EQ(got.cells_moved, q.expected.cells_moved);
  EXPECT_EQ(got.cells_seeded, q.expected.cells_seeded);
  EXPECT_EQ(got.peak_merge_chunks, q.expected.peak_merge_chunks);
  EXPECT_GT(r->grid.CountNonNull(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    BenchScale, PinnedWorkTest, ::testing::ValuesIn(PinnedQueries()),
    [](const ::testing::TestParamInfo<PinnedQuery>& info) {
      return std::string(info.param.name);
    });

// The Fig. 12 probe: the product cube with 2,000 separation chunks, and
// the VISUAL dynamic-forward query {(Jan), (Jul)} over every product and
// month, charged to a fresh SimulatedDisk with the figure benches' seek
// model and a 1,000-chunk LRU.
struct DiskCharges {
  int64_t physical_reads;
  int64_t total_seek_chunks;
  int64_t coalesced_reads;
  double virtual_seconds;
};

class PinnedDiskWorkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ProductCubeConfig config;
    config.separation_chunks = 2000;
    config.chunk_products = 1;
    config.move_moment = 6;
    config.fill_data = true;
    db_ = new Database();
    ASSERT_TRUE(db_->AddCube("Sales", BuildProductCube(config).cube).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static DiskCharges Run(bool pipelined_io) {
    DiskModel model;
    model.seek_seconds_per_chunk = 2e-7;
    model.max_seek_seconds = 8e-3;
    model.transfer_seconds = 1e-5;
    SimulatedDisk disk(model, 1000);
    QueryOptions options;
    options.disk = &disk;
    options.pipelined_io = pipelined_io;
    Result<QueryResult> r = Executor(db_).Execute(
        "WITH PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD VISUAL "
        "SELECT {[Time].Members} ON COLUMNS, {[Product].Children} ON ROWS "
        "FROM [Sales] WHERE ([Sales])",
        options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    const IoStats& io = disk.stats();
    return {io.physical_reads, io.total_seek_chunks, io.coalesced_reads,
            io.virtual_seconds};
  }

  static Database* db_;
};

Database* PinnedDiskWorkTest::db_ = nullptr;

void ExpectCharges(const DiskCharges& got, const DiskCharges& want) {
  EXPECT_EQ(got.physical_reads, want.physical_reads);
  EXPECT_EQ(got.total_seek_chunks, want.total_seek_chunks);
  EXPECT_EQ(got.coalesced_reads, want.coalesced_reads);
  EXPECT_EQ(got.virtual_seconds, want.virtual_seconds);
}

TEST_F(PinnedDiskWorkTest, Fig12ProbeChargesMatchWithPipelinedIo) {
  ExpectCharges(Run(/*pipelined_io=*/true),
                {8004, 505, 502, 0x1.4841ede119896p-4});
}

TEST_F(PinnedDiskWorkTest, Fig12ProbeChargesMatchWithoutPipelinedIo) {
  ExpectCharges(Run(/*pipelined_io=*/false),
                {8004, 8007, 0, 0x1.4e67366ffeb51p-4});
}

}  // namespace
}  // namespace olap
