// Self-test of the reference evaluator and the detection comparison on a
// hand-computed case (window 3, one location with a known threshold), plus
// negative cases that the comparison must reject. Exits non-zero on failure.
#include <cmath>
#include <cstdio>

#include "reference.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

perfbench::RefTrace Trace(int64_t ts, int64_t area, double delay) {
  perfbench::RefTrace t;
  t.timestamp = ts;
  t.hour = 6;
  t.day = "weekday";
  t.area = area;
  t.stop = -1;
  t.attr[perfbench::kDelay] = delay;
  return t;
}

}  // namespace

int main() {
  using namespace perfbench;
  // History of location 7 at 06:00 on weekdays: delays 10 and 30, so mean
  // 20, population stdev 10 and, with s = 1, threshold 30.
  RefThresholds thresholds;
  thresholds.Add(Trace(0, 7, 10));
  thresholds.Add(Trace(1, 7, 30));
  thresholds.Finish();
  double thr = 0;
  Expect(thresholds.Threshold(kDelay, false, 7, 6, "weekday", 1.0, &thr) && thr == 30.0,
         "threshold = mean + s * stdev = 30");
  Expect(thresholds.distinct_keys() == 8,
         "distinct keys: 4 attributes x 2 location kinds of one (location, hour, day)");

  RefRule rule{"delay_test", false, {{kDelay, false}}, 3};
  // Window averages over the last 3 reports of location 7:
  //   t1 20 | t2 30 (tie, not above) | t3 36.67 | t4 33.33 | t5 40.
  // Location 8 has no history, so its report never fires.
  std::vector<RefTrace> stream = {Trace(1, 7, 20), Trace(2, 7, 40), Trace(3, 7, 50),
                                  Trace(10, 8, 1000), Trace(4, 7, 10), Trace(5, 7, 60)};
  RefResult ref = EvaluateRules(stream, {rule}, thresholds, 1.0);
  bool hand = ref.detections.size() == 3 && ref.detections[0].timestamp == 3 &&
              ref.detections[1].timestamp == 4 && ref.detections[2].timestamp == 5 &&
              std::fabs(ref.detections[0].value - 110.0 / 3) < 1e-12 &&
              std::fabs(ref.detections[1].value - 100.0 / 3) < 1e-12 &&
              ref.detections[2].value == 40.0 && ref.detections[0].threshold == 30.0;
  Expect(hand, "hand-computed detections t3, t4, t5 with their window averages");
  Expect(ref.ties.size() == 1 && ref.ties.count({"delay_test", 7, 2}) == 1,
         "the exact boundary at t2 is recorded as a tie");

  Expect(CompareDetections(ref, ref.detections).ok(), "identical output passes");

  std::vector<Detection> dropped = ref.detections;
  dropped.erase(dropped.begin() + 1);
  CompareResult c = CompareDetections(ref, dropped);
  Expect(!c.ok() && c.missing == 1, "one dropped detection fails");

  std::vector<Detection> extra = ref.detections;
  extra.push_back({"delay_test", 7, 1, 20.0, 30.0});
  c = CompareDetections(ref, extra);
  Expect(!c.ok() && c.unexpected == 1, "one spurious detection fails");

  std::vector<Detection> shifted = ref.detections;
  shifted[0].threshold += 1e-3;
  c = CompareDetections(ref, shifted);
  Expect(!c.ok() && c.value_mismatch == 1, "a wrong threshold value fails");

  // t2's window average moved past the threshold by the smallest step the
  // doubles allow: the reference flips exactly there, and a program that
  // agrees with either side is excused as a tie, never silently matched.
  std::vector<RefTrace> nudged = stream;
  nudged[1].attr[kDelay] = std::nextafter(40.0, 100.0);
  RefResult ulp = EvaluateRules(nudged, {rule}, thresholds, 1.0);
  Expect(ulp.detections.size() == 4 && ulp.detections[0].timestamp == 2 &&
             ulp.detections[0].value > 30.0,
         "a one-ulp shift past the threshold moves the boundary detection");
  c = CompareDetections(ref, ulp.detections);
  Expect(c.ok() && c.excused_ties == 1 && c.matched == 3 && c.value_mismatch == 0,
         "the boundary detection counts as an excused tie");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
