// out_of_core: the Fig. 12 product cube streamed from its file.
//
// The cube (2,000 separation chunks, 8,004 stored chunks) is written with
// SaveCube, loaded with Database::Open and attached to a SimulatedDisk
// whose LRU cache holds about 1/8 of the chunks. Queries set only `disk`
// and `pipelined_io`. With pipelined_io on, batched evaluation streams the
// scratch views of the stored cube from the backing file (real pread + CRC
// + decode) and what-if read passes charge the pebbling schedule to the
// device. With it off, Execute never reads the file: scratch views come
// from the in-memory cube.
//
// Why: the data does not fit in the device cache, so file reads and
// simulated seeks dominate and the relocation kernels do little. Nothing
// else measures the out-of-core path end to end.

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "storage/cube_io.h"
#include "storage/env.h"
#include "storage/simulated_disk.h"
#include "workload/product.h"

namespace olap::e2e {
namespace {

const char kWhere[] = " FROM [Sales] WHERE ([Sales])";

// The seek model of the figure benchmarks (bench/bench_workloads.h).
DiskModel BenchDiskModel() {
  DiskModel m;
  m.seek_seconds_per_chunk = 2e-7;
  m.max_seek_seconds = 8e-3;
  m.transfer_seconds = 1e-5;
  return m;
}

class OutOfCore : public Workload {
 public:
  OutOfCore(const Scale& scale, const std::string& workdir)
      : path_(workdir + "/out_of_core_" + std::to_string(::getpid()) +
              ".olap") {
    config_.separation_chunks = scale.tiny ? 100 : 2000;
    config_.chunk_products = 1;
    config_.move_moment = 6;
    config_.fill_data = true;
  }
  ~OutOfCore() override { Teardown(); }

  Status Setup(Recorder* rec, SetupTimes* times) override {
    Teardown();
    {
      ProductCube pc = BuildProductCube(config_);
      const Dimension& product = pc.cube.schema().dimension(pc.product_dim);
      probe_ = product.member(pc.probe).name;
      cells_ = pc.cube.CountNonNullCells();
      SaveOptions save;
      save.sync = false;  // Durability is not what this workload measures.
      ScopedSpan span(rec, "SaveCube");
      OLAP_RETURN_IF_ERROR(SaveCube(pc.cube, path_, save));
    }
    saved_ = true;
    db_ = std::make_unique<Database>();
    {
      ScopedSpan span(rec, "Database::Open");
      const int64_t t0 = NowNs();
      OLAP_RETURN_IF_ERROR(db_->Open("Sales", path_));
      times->open_s = static_cast<double>(NowNs() - t0) / 1e9;
    }
    Result<const Cube*> cube = db_->FindCube("Sales");
    if (!cube.ok()) return cube.status();
    stored_chunks_ = (*cube)->NumStoredChunks();
    cache_chunks_ = std::max<int64_t>(1, stored_chunks_ / 8);
    disk_ = std::make_unique<SimulatedDisk>(BenchDiskModel(), cache_chunks_);
    {
      ScopedSpan span(rec, "SimulatedDisk::AttachBackingFile");
      OLAP_RETURN_IF_ERROR(disk_->AttachBackingFile(Env::Default(), path_));
    }
    Result<int64_t> bytes = FileSize(path_);
    if (!bytes.ok()) return bytes.status();
    file_bytes_ = *bytes;
    times->file_bytes_per_cell =
        static_cast<double>(file_bytes_) / static_cast<double>(cells_);
    exec_ = std::make_unique<Executor>(db_.get());
    return Status::Ok();
  }

  void Teardown() override {
    exec_.reset();
    disk_.reset();
    db_.reset();
    if (saved_) std::remove(path_.c_str());
    saved_ = false;
  }

  // 12 queries: 4 roll-ups and 4 leaf-row queries (each streams the whole
  // file once), 2 VISUAL dynamic-forward what-ifs, the scoped Fig. 12 probe
  // and a product split. With two thirds of the deck streaming, p50 and p90
  // both fall inside the streaming queries' distribution rather than on
  // the edge between the cheap and the streaming mode.
  void NextDeck(Stream* stream, std::vector<Op>* out) override {
    for (int i = 0; i < 4; ++i) out->push_back(Rollup(stream));
    for (int i = 0; i < 4; ++i) out->push_back(LeafRows(stream));
    for (int i = 0; i < 2; ++i) out->push_back(VisualForward(stream));
    out->push_back(Probe(stream));
    out->push_back(Split(stream));
  }

  const Database& db() const override { return *db_; }
  const Executor& exec() const override { return *exec_; }
  QueryOptions query_options() const override {
    QueryOptions options;
    options.disk = disk_.get();
    options.pipelined_io = true;
    return options;
  }
  double device_seconds() const override {
    return disk_->stats().virtual_seconds;
  }

  // The same queries on the in-memory cube with no device must return the
  // same grids, bit for bit.
  std::vector<CheckResult> Check(
      const std::vector<SampledQuery>& sampled) override {
    CheckResult result{"out_of_core.matches_in_memory", true, ""};
    for (const SampledQuery& s : sampled) {
      Result<QueryResult> r = exec_->Execute(s.op.mdx, QueryOptions());
      std::string why;
      if (!r.ok()) {
        why = r.status().ToString();
      } else if (SameGrid(s.grid, r->grid, &why)) {
        continue;
      }
      result = {result.name, false,
                s.op.family + ": " + why + "; query: " + s.op.mdx};
      return {result};
    }
    result.ok = !sampled.empty();
    result.detail = std::to_string(sampled.size()) + " sampled grids identical";
    return {result};
  }
  int max_sampled() const override { return 40; }

  std::map<std::string, double> Properties() const override {
    return {{"stored_chunks", static_cast<double>(stored_chunks_)},
            {"device_cache_chunks", static_cast<double>(cache_chunks_)},
            {"stored_chunks_per_cache_chunk",
             static_cast<double>(stored_chunks_) /
                 static_cast<double>(cache_chunks_)},
            {"file_bytes", static_cast<double>(file_bytes_)}};
  }

 private:
  int Fillers() const {
    return config_.separation_chunks * config_.chunk_products;
  }
  // Filler i (1-based) sits in group ((i % 3) + 1) * 100.
  std::string FillerPath(int i, std::string* group) const {
    *group = std::to_string((i % config_.num_groups + 1) * 100);
    return "[" + *group + "].[F" + std::to_string(i) + "]";
  }
  // "(Jan), (Mar)" -> "[Time].[Jan], [Time].[Mar]".
  static std::string TimeMembers(const std::string& moments) {
    std::string out;
    for (char c : moments) {
      if (c == '(') {
        out += "[Time].[";
      } else if (c == ')') {
        out += "]";
      } else {
        out += c;
      }
    }
    return out;
  }
  // lo..hi distinct months (count from the named bag), as "(Jan), (Mar)".
  static std::string Months(Stream* stream, const char* bag, int lo, int hi) {
    return MonthList(stream->rng(), lo + stream->Pick(bag, hi - lo + 1));
  }

  // The product total and the three groups x 3–12 months and the year.
  // Cells at the Product or Time root are derived: their covering scratch
  // views stream every stored chunk from the file in one pass.
  Op Rollup(Stream* stream) const {
    Op op;
    op.family = "rollup";
    op.mdx = "SELECT {" + TimeMembers(Months(stream, "rollup.months", 3, 12)) +
             ", [Time]} ON COLUMNS, {[Product], [Product].Children} ON ROWS" +
             kWhere;
    return op;
  }

  // 4–16 filler products x every month and the year: the year totals are
  // derived cells, served from a scratch view streamed from the file.
  Op LeafRows(Stream* stream) const {
    Rng* rng = stream->rng();
    Op op;
    op.family = "leaf_rows";
    const int n = 4 + stream->Pick("leaf_rows.rows", 13);
    std::string rows;
    for (int i = 0; i < n; ++i) {
      std::string group;
      rows += std::string(i ? ", " : "") +
              FillerPath(1 + static_cast<int>(rng->NextBelow(Fillers())),
                         &group);
    }
    op.mdx = "SELECT {[Time].Members, [Time]} ON COLUMNS, {" + rows +
             "} ON ROWS" + kWhere;
    return op;
  }

  Op VisualForward(Stream* stream) const {
    Op op;
    op.family = "visual_forward";
    op.mdx = "WITH PERSPECTIVE {" + Months(stream, "forward.months", 1, 3) +
             "} FOR Product DYNAMIC FORWARD VISUAL SELECT {[Time].Members} "
             "ON COLUMNS, {[Product].Children} ON ROWS" +
             kWhere;
    return op;
  }

  // Fig. 12: all of the two-instance probe's data under a forward
  // perspective (merge scoped to the probe).
  Op Probe(Stream* stream) const {
    Op op;
    op.family = "probe";
    op.mdx = "WITH PERSPECTIVE {" + Months(stream, "probe.months", 1, 3) +
             "} FOR Product DYNAMIC FORWARD SELECT {[Time].Members} ON "
             "COLUMNS, {[Product].[" +
             probe_ + "]} ON ROWS" + kWhere;
    return op;
  }

  // One filler product moved to another group from some month.
  Op Split(Stream* stream) const {
    Rng* rng = stream->rng();
    Op op;
    op.family = "split";
    std::string group;
    const std::string path =
        FillerPath(1 + static_cast<int>(rng->NextBelow(Fillers())), &group);
    const int target = (std::stoi(group) / 100 + static_cast<int>(
                                                     rng->NextInRange(0, 1))) %
                           config_.num_groups +
                       1;
    const char* moment = kMonthNames[rng->NextInRange(1, 11)];
    const bool visual = stream->Pick("split.visual", 2) == 1;
    op.mdx = "WITH CHANGES {(" + path + ", [" + group + "], [" +
             std::to_string(target * 100) + "], [" + moment +
             "])} FOR Product" + (visual ? " VISUAL" : "") +
             " SELECT {[Time].Members} ON COLUMNS, {[Product].Children} ON "
             "ROWS" +
             kWhere;
    return op;
  }

  ProductCubeConfig config_;
  std::string path_;
  bool saved_ = false;
  std::string probe_;
  int64_t cells_ = 0;
  int64_t stored_chunks_ = 0;
  int64_t cache_chunks_ = 0;
  int64_t file_bytes_ = 0;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<Executor> exec_;
};

}  // namespace

std::unique_ptr<Workload> MakeOutOfCore(const Scale& scale,
                                        const std::string& workdir) {
  return std::make_unique<OutOfCore>(scale, workdir);
}

}  // namespace olap::e2e
