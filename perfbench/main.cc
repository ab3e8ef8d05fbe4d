// End-to-end benchmark of the Figure-8 pipeline (see README.md).
//
//   perfbench --workload fig8_local|cep_local|cep_dist2 --seed N
//             --seconds S --trace 0|1 --dir RUN_DIR [--inject drop_detection]
//
// Prints check notes, then one JSON line: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exits 1 when a check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const RunOutput& out, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig8_local|cep_local|cep_dist2 "
               "--seed N --seconds S --trace 0|1 --dir RUN_DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.start_ns = NowNs();
  int worker_exit = 0;
  if (MaybeRunWorker(argc, argv, &worker_exit)) return worker_exit;

  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--inject") {
      args.inject = value;
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || args.seconds < 1) return Usage();

  RunOutput out;
  int rc = 0;
  if (args.workload == "fig8_local") {
    rc = RunFig8Local(args, &out);
  } else if (args.workload == "cep_local") {
    rc = RunCep(args, false, &out);
  } else if (args.workload == "cep_dist2") {
    rc = RunCep(args, true, &out);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  if (args.trace) {
    // The traced run's own end-to-end figures, for the tracing overhead.
    std::printf("# traced end-to-end:");
    for (const Metric& m : out.end_to_end) {
      std::printf(" %s=%s%s", m.name.c_str(), JsonNumber(m.value).c_str(),
                  m.unit.c_str());
    }
    std::printf("\n");
  }
  PrintResult(out, args.trace ? out.per_layer : out.end_to_end);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
