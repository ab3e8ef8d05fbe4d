// Shared definitions of the end-to-end benchmark (see README.md).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC nanoseconds: machine-wide, so stamps taken in worker
/// processes compare with stamps taken here.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Linear-interpolated quantile of unsorted samples (q in [0, 1]).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Run directory inside the checkout for inputs and worker outputs.
  std::string dir;
  /// Fault injected into the program's output before the checks (self-test
  /// of the checks): "" or "drop_detection".
  std::string inject;
  /// Process start (first instruction of main), for setup_s.
  int64_t start_ns = 0;
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result (check details).
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      notes.push_back("CHECK FAILED: " + what);
    } else {
      notes.push_back("check ok: " + what);
    }
  }
};

int RunFig8Local(const RunArgs& args, RunOutput* out);
int RunCep(const RunArgs& args, bool distributed, RunOutput* out);
/// Worker-process entry of the distributed workload; true when argv named
/// a worker role (the exit code is then in *exit_code).
bool MaybeRunWorker(int argc, char** argv, int* exit_code);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
