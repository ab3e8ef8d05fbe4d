#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <sstream>

namespace perfbench {

const char* AttrName(int attr) {
  static const char* const kNames[kNumAttrs] = {"delay", "actual_delay",
                                                "speed", "congestion"};
  return kNames[attr];
}

std::vector<RefRule> Table6RefRules(size_t window) {
  const std::string w = "_w" + std::to_string(window);
  std::vector<RefRule> rules;
  for (bool by_stop : {true, false}) {
    const std::string suffix = (by_stop ? "_bus_stop" : "_area_leaf") + w;
    rules.push_back({"delay" + suffix, by_stop, {{kDelay, false}}, window});
    rules.push_back(
        {"actual_delay" + suffix, by_stop, {{kActualDelay, false}}, window});
    rules.push_back({"speed" + suffix, by_stop, {{kSpeed, true}}, window});
    rules.push_back({"delay_congestion" + suffix,
                     by_stop,
                     {{kDelay, false}, {kCongestion, false}},
                     window});
    rules.push_back({"all" + suffix,
                     by_stop,
                     {{kDelay, false},
                      {kActualDelay, false},
                      {kSpeed, true},
                      {kCongestion, false}},
                     window});
  }
  return rules;
}

namespace {

bool ParseNumber(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool ParseInteger(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

bool RefThresholds::ParseHistoryLine(const std::string& line, RefTrace* out) {
  // The history format has no quoted fields: numbers and the day type.
  std::vector<std::string> cols;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, ',')) cols.push_back(cell);
  if (cols.size() != 15) return false;
  int64_t ts = 0, hour = 0, area = 0, stop = 0;
  double delay = 0, congestion = 0, speed = 0, actual = 0;
  if (!ParseInteger(cols[0], &ts) || !ParseNumber(cols[5], &delay) ||
      !ParseNumber(cols[6], &congestion) || !ParseNumber(cols[9], &speed) ||
      !ParseNumber(cols[10], &actual) || !ParseInteger(cols[11], &hour) ||
      !ParseInteger(cols[13], &area) || !ParseInteger(cols[14], &stop)) {
    return false;
  }
  out->timestamp = ts;
  out->hour = static_cast<int>(hour);
  out->day = cols[12];
  out->area = area;
  out->stop = stop;
  out->attr[kDelay] = delay;
  out->attr[kActualDelay] = actual;
  out->attr[kSpeed] = speed;
  out->attr[kCongestion] = congestion;
  return true;
}

uint64_t RefThresholds::PackKey(int attr, bool by_stop, int64_t location,
                                int hour, const std::string& day) {
  // Locations are -1 (none) or small non-negative ids; hours are 0..23.
  uint64_t loc = static_cast<uint64_t>(location + 1) & ((uint64_t{1} << 48) - 1);
  return (loc << 16) | (static_cast<uint64_t>(hour & 0xff) << 8) |
         (static_cast<uint64_t>(day == "weekend") << 4) |
         (static_cast<uint64_t>(by_stop) << 3) | static_cast<uint64_t>(attr);
}

void RefThresholds::Add(const RefTrace& trace) {
  for (bool by_stop : {false, true}) {
    int64_t location = by_stop ? trace.stop : trace.area;
    for (int a = 0; a < kNumAttrs; ++a) {
      stats_[PackKey(a, by_stop, location, trace.hour, trace.day)]
          .values.push_back(trace.attr[a]);
    }
  }
}

void RefThresholds::Finish() {
  for (auto& [key, acc] : stats_) {
    double n = static_cast<double>(acc.values.size());
    double sum = 0.0;
    for (double v : acc.values) sum += v;
    acc.mean = sum / n;
    double squares = 0.0;
    for (double v : acc.values) squares += (v - acc.mean) * (v - acc.mean);
    acc.stdev = acc.values.size() < 2 ? 0.0 : std::sqrt(squares / n);
    acc.values.clear();
    acc.values.shrink_to_fit();
  }
}

bool RefThresholds::Threshold(int attr, bool by_stop, int64_t location,
                              int hour, const std::string& day, double s,
                              double* out) const {
  auto it = stats_.find(PackKey(attr, by_stop, location, hour, day));
  if (it == stats_.end()) return false;
  *out = it->second.mean + s * it->second.stdev;
  return true;
}

namespace {

/// Relative distance under which a comparison counts as a tie: the program
/// sums windows incrementally and the batch job sums in another order, so
/// the two sides agree only to rounding.
constexpr double kTieTolerance = 1e-9;

bool NearTie(double a, double b) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kTieTolerance * scale;
}

}  // namespace

RefResult EvaluateRules(const std::vector<RefTrace>& stream,
                        const std::vector<RefRule>& rules,
                        const RefThresholds& thresholds, double s) {
  RefResult result;
  // Window per (rule, location): the last `window` traces of the location.
  std::vector<std::unordered_map<int64_t, std::deque<const RefTrace*>>> windows(
      rules.size());
  for (const RefTrace& trace : stream) {
    for (size_t r = 0; r < rules.size(); ++r) {
      const RefRule& rule = rules[r];
      int64_t location = rule.by_stop ? trace.stop : trace.area;
      std::deque<const RefTrace*>& window = windows[r][location];
      window.push_back(&trace);
      if (window.size() > rule.window) window.pop_front();

      bool fires = true;
      bool tie = false;
      double primary_value = 0.0, primary_threshold = 0.0;
      for (size_t k = 0; k < rule.attrs.size(); ++k) {
        auto [attr, below] = rule.attrs[k];
        double threshold = 0.0;
        if (!thresholds.Threshold(attr, rule.by_stop, location, trace.hour,
                                  trace.day, below ? -s : s, &threshold)) {
          fires = false;  // no threshold row: the join yields nothing
          tie = false;
          break;
        }
        double sum = 0.0;
        for (const RefTrace* t : window) sum += t->attr[attr];
        double avg = sum / static_cast<double>(window.size());
        if (k == 0) {
          primary_value = avg;
          primary_threshold = threshold;
        }
        if (NearTie(avg, threshold)) tie = true;
        if (below ? !(avg < threshold) : !(avg > threshold)) fires = false;
      }
      if (tie) ++result.ties[{rule.name, location, trace.timestamp}];
      if (fires) {
        result.detections.push_back({rule.name, location, trace.timestamp,
                                     primary_value, primary_threshold});
      }
    }
  }
  return result;
}

CompareResult CompareDetections(const RefResult& reference,
                                const std::vector<Detection>& program) {
  using Key = std::tuple<std::string, int64_t, int64_t>;
  std::map<Key, std::vector<const Detection*>> expected;
  for (const Detection& d : reference.detections) {
    expected[{d.rule, d.location, d.timestamp}].push_back(&d);
  }
  CompareResult result;
  auto note = [&result](const std::string& what, const Detection& d) {
    if (!result.first_problem.empty()) return;
    std::ostringstream out;
    out << what << ": rule=" << d.rule << " location=" << d.location
        << " timestamp=" << d.timestamp << " value=" << d.value
        << " threshold=" << d.threshold;
    result.first_problem = out.str();
  };
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
  };
  for (const Detection& d : program) {
    Key key{d.rule, d.location, d.timestamp};
    auto it = expected.find(key);
    if (it == expected.end() || it->second.empty()) {
      if (reference.ties.count(key) != 0) {
        ++result.excused_ties;
      } else {
        ++result.unexpected;
        note("unexpected detection", d);
      }
      continue;
    }
    const Detection* ref = it->second.back();
    it->second.pop_back();
    ++result.matched;
    if (!close(ref->value, d.value) || !close(ref->threshold, d.threshold)) {
      ++result.value_mismatch;
      note("value differs from reference", d);
    }
  }
  for (const auto& [key, left] : expected) {
    for (const Detection* d : left) {
      if (reference.ties.count(key) != 0) {
        ++result.excused_ties;
      } else {
        ++result.missing;
        note("missing detection", *d);
      }
    }
  }
  return result;
}

}  // namespace perfbench
