// bench_e2e: runs one end-to-end workload and prints its report.
//
//   bench_e2e --workload paper_whatif|edit_feed|out_of_core --seed N
//             --seconds S --trace 0|1 [--scale full|tiny] [--workdir DIR]
//             [--trace-out FILE]
//
// The last line of standard output is the report as one JSON object. Exit
// status: 0 when every output check passed, 1 when one failed, 2 on a
// usage or set-up error (no report printed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
          "[--scale full|tiny] [--workdir DIR] [--trace-out FILE]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  olap::e2e::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage(argv[0]);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage(argv[0]);
      config.trace = value == "1";
    } else if (arg == "--scale") {
      if (value != "full" && value != "tiny") return Usage(argv[0]);
      config.scale.tiny = value == "tiny";
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.workload.empty()) return Usage(argv[0]);

  olap::Result<olap::e2e::RunReport> report = olap::e2e::RunWorkload(config);
  if (!report.ok()) {
    fprintf(stderr, "bench_e2e: %s\n", report.status().ToString().c_str());
    return 2;
  }
  for (const olap::e2e::CheckResult& c : report->checks) {
    fprintf(stderr, "check %s: %s (%s)\n", c.name.c_str(),
            c.ok ? "ok" : "FAILED", c.detail.c_str());
  }
  printf("%s\n", report->ToJson().c_str());
  return report->correct ? 0 : 1;
}
