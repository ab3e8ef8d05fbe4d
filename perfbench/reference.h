// Independent reference for the benchmark's correctness check.
//
// Plain C++ over plain structs: it shares no code with the program's cep,
// batch or storage modules. It recomputes the dynamic thresholds (mean +
// s * stdev per attribute, location, hour and day type) from the enriched
// history rows, applies the Listing-1 rule to an enriched trace stream, and
// compares the program's detection multiset with its own.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// The four monitored attributes of Table 6, in this order.
enum Attr { kDelay = 0, kActualDelay = 1, kSpeed = 2, kCongestion = 3 };
inline constexpr int kNumAttrs = 4;
const char* AttrName(int attr);

/// One enriched trace as the rules see it.
struct RefTrace {
  int64_t timestamp = 0;
  int hour = 0;
  std::string day;  // "weekday" | "weekend"
  int64_t area = -1;
  int64_t stop = -1;
  double attr[kNumAttrs] = {0, 0, 0, 0};
};

/// One Listing-1 rule instance.
struct RefRule {
  std::string name;
  bool by_stop = false;  // location = bus_stop (else area_leaf)
  /// (attribute, below) pairs; the first is the rule's primary attribute.
  std::vector<std::pair<int, bool>> attrs;
  size_t window = 10;
};

/// The Table-6 grid (the same ten rules core::Table6Rules builds).
std::vector<RefRule> Table6RefRules(size_t window);

/// Per-(attribute, location kind, location, hour, day) mean and population
/// stdev, computed with a two-pass sum from history rows.
class RefThresholds {
 public:
  /// Parses one CSV line of the enriched history format (15 columns:
  /// timestamp, line, direction, lon, lat, delay, congestion,
  /// reported_stop, vehicle, speed, actual_delay, hour, date_type,
  /// area_leaf, bus_stop). Returns false on a malformed line.
  static bool ParseHistoryLine(const std::string& line, RefTrace* out);

  void Add(const RefTrace& trace);
  /// Computes the statistics of every key added so far.
  void Finish();
  /// Distinct (attribute key, location, hour, day) keys: the number of
  /// statistics rows the batch job must produce.
  size_t distinct_keys() const { return stats_.size(); }
  /// mean + s * stdev for the key; false when the key has no history.
  bool Threshold(int attr, bool by_stop, int64_t location, int hour,
                 const std::string& day, double s, double* out) const;

 private:
  struct Acc {
    std::vector<double> values;
    double mean = 0.0;
    double stdev = 0.0;
  };
  static uint64_t PackKey(int attr, bool by_stop, int64_t location, int hour,
                          const std::string& day);
  std::unordered_map<uint64_t, Acc> stats_;
};

struct Detection {
  std::string rule;
  int64_t location = 0;
  int64_t timestamp = 0;
  double value = 0.0;
  double threshold = 0.0;
};

/// Reference run of the rules over one stream, from empty windows.
struct RefResult {
  std::vector<Detection> detections;
  /// (rule, location, timestamp) of triggers whose comparison came within
  /// rounding of its threshold: a mismatch there is excused, not failed.
  std::map<std::tuple<std::string, int64_t, int64_t>, int> ties;
};

/// Applies Listing 1: per rule and location, a count window of the last
/// `window` traces (the trigger included); a trace triggers a detection when
/// every attribute's window average lies beyond its threshold (above, or
/// below for `below` attributes) for the trigger's location, hour and day.
RefResult EvaluateRules(const std::vector<RefTrace>& stream,
                        const std::vector<RefRule>& rules,
                        const RefThresholds& thresholds, double s);

struct CompareResult {
  size_t matched = 0;
  size_t missing = 0;        // in the reference, not in the program output
  size_t unexpected = 0;     // in the program output, not in the reference
  size_t excused_ties = 0;   // mismatches on near-tie triggers
  size_t value_mismatch = 0; // matched keys whose value/threshold differ
  std::string first_problem;
  bool ok() const {
    return missing == 0 && unexpected == 0 && value_mismatch == 0;
  }
};

/// Multiset comparison on (rule, location, trigger timestamp); values and
/// thresholds must agree within floating-point rounding.
CompareResult CompareDetections(const RefResult& reference,
                                const std::vector<Detection>& program);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
