#include "geo/bus_stops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace insight {
namespace geo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kHalfPi = 3.14159265358979323846 / 2;
/// Slack on the cell-size bounds, both relative and absolute (radians): far
/// above HaversineMeters' rounding, so a stop it puts at exactly
/// max_assign_distance is still in the 3x3 cells around the query.
constexpr double kSlack = 1e-6;
/// Below this cos(latitude) the longitude bound is too loose to bucket by.
constexpr double kMinCos = 1e-3;
/// Cells widen until there are at most this many per stop (plus
/// kMinCellBudget), which bounds memory for a tiny max_assign_distance.
constexpr double kMaxCellsPerStop = 8.0;
constexpr double kMinCellBudget = 64.0;

/// (distance, stop id) order: the lowest id wins a tie, as in a scan of the
/// stops in id order with a strict `<`. A NaN distance is never closer.
bool Closer(double d, int64_t id, double best, int64_t best_id) {
  return d < best || (d == best && id < best_id);
}

}  // namespace

size_t BusStopIndex::Build(const std::vector<StopReport>& reports) {
  stops_.clear();
  if (reports.empty()) {
    BuildGrid();
    return 0;
  }

  // Project around the reports' centroid.
  double clat = 0.0, clon = 0.0;
  for (const auto& r : reports) {
    clat += r.position.lat;
    clon += r.position.lon;
  }
  LocalProjection proj({clat / static_cast<double>(reports.size()),
                        clon / static_cast<double>(reports.size())});

  std::vector<Denclue::Point> points(reports.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    proj.ToXY(reports[i].position, &points[i].x, &points[i].y);
  }

  Denclue denclue(options_.denclue);
  Denclue::ClusterResult clusters = denclue.Cluster(points);

  // Per cluster: average entry angle per (line, direction), then group those
  // (line, direction) keys into angle subclusters.
  struct LineDirStats {
    double sum_sin = 0.0, sum_cos = 0.0;
    double sum_x = 0.0, sum_y = 0.0;
    size_t count = 0;
    double MeanAngle() const { return NormalizeDeg(std::atan2(sum_sin, sum_cos)); }
    static double NormalizeDeg(double rad) {
      double deg = RadToDeg(rad);
      if (deg < 0) deg += 360.0;
      return deg;
    }
  };
  std::map<std::pair<int, std::pair<int, bool>>, LineDirStats> stats;
  for (size_t i = 0; i < reports.size(); ++i) {
    int cluster = clusters.labels[i];
    if (cluster < 0) continue;
    auto key = std::make_pair(cluster,
                              std::make_pair(reports[i].line_id, reports[i].direction));
    LineDirStats& s = stats[key];
    double rad = DegToRad(reports[i].entry_angle_deg);
    s.sum_sin += std::sin(rad);
    s.sum_cos += std::cos(rad);
    s.sum_x += points[i].x;
    s.sum_y += points[i].y;
    ++s.count;
  }

  // Greedy angle grouping inside each cluster: each (line, dir) joins the
  // first subcluster whose representative angle is within angle_split_deg,
  // otherwise starts a new subcluster.
  struct SubCluster {
    double angle_deg = 0.0;
    double sum_x = 0.0, sum_y = 0.0;
    size_t count = 0;
    std::vector<std::pair<int, bool>> lines;
  };
  std::map<int, std::vector<SubCluster>> per_cluster;
  for (const auto& [key, s] : stats) {
    int cluster = key.first;
    double angle = s.MeanAngle();
    auto& subs = per_cluster[cluster];
    SubCluster* target = nullptr;
    for (auto& sub : subs) {
      if (AngleDifference(sub.angle_deg, angle) <= options_.angle_split_deg) {
        target = &sub;
        break;
      }
    }
    if (target == nullptr) {
      subs.emplace_back();
      target = &subs.back();
      target->angle_deg = angle;
    }
    target->sum_x += s.sum_x;
    target->sum_y += s.sum_y;
    target->count += s.count;
    target->lines.push_back(key.second);
  }

  int64_t next_id = 0;
  for (auto& [cluster, subs] : per_cluster) {
    for (auto& sub : subs) {
      BusStop stop;
      stop.id = next_id++;
      stop.cluster_id = cluster;
      stop.angle_deg = sub.angle_deg;
      stop.lines = std::move(sub.lines);
      std::sort(stop.lines.begin(), stop.lines.end());
      stop.report_count = sub.count;
      stop.center = proj.FromXY(sub.sum_x / static_cast<double>(sub.count),
                                sub.sum_y / static_cast<double>(sub.count));
      stops_.push_back(std::move(stop));
    }
  }
  BuildGrid();
  return stops_.size();
}

void BusStopIndex::BuildGrid() {
  lat_axis_ = {0.0, kInf, 1};
  lon_axis_ = {0.0, kInf, 1};
  lon_center_ = 0.0;
  bool finite = true;
  double lat_min = kInf, lat_max = -kInf, lon_min = kInf, lon_max = -kInf;
  for (const BusStop& stop : stops_) {
    finite = finite && std::isfinite(stop.center.lat) &&
             std::isfinite(stop.center.lon);
    lat_min = std::min(lat_min, stop.center.lat);
    lat_max = std::max(lat_max, stop.center.lat);
    lon_min = std::min(lon_min, stop.center.lon);
    lon_max = std::max(lon_max, stop.center.lon);
  }
  // With h = sin^2(dlat/2) + cos(lat1) cos(lat2) sin^2(dlon/2), a stop within
  // D has |dlat| <= D/R and sin(|dlon|/2) <= sin(D/2R) / c_min, where c_min
  // is the smallest cos(lat) over the stops' latitudes widened by D/R. An
  // axis without such a bound keeps one infinitely wide cell: with both, the
  // grid is one cell and Locate() scans every stop.
  const double b = options_.max_assign_distance / kEarthRadiusMeters;
  if (!stops_.empty() && finite && b >= 0 && b < kHalfPi && lat_min >= -90 &&
      lat_max <= 90) {
    double lat_width = RadToDeg(b * (1 + kSlack) + kSlack);
    double lon_width = kInf;
    const double lo = DegToRad(lat_min) - b;
    const double hi = DegToRad(lat_max) + b;
    const double c_min = std::min(std::cos(lo), std::cos(hi));
    if (lo > -kHalfPi && hi < kHalfPi && c_min > kMinCos) {
      const double s = std::sin(b / 2) / c_min * (1 + kSlack) + kSlack;
      if (s < 1) lon_width = RadToDeg(2 * std::asin(s));
    }
    auto cells = [](double span, double width) {
      return std::floor(span / width) + 1;
    };
    const double budget = kMaxCellsPerStop * static_cast<double>(stops_.size()) +
                          kMinCellBudget;
    while (cells(lat_max - lat_min, lat_width) *
               cells(lon_max - lon_min, lon_width) >
           budget) {
      lat_width *= 2;
      lon_width *= 2;
    }
    // A wrapped query longitude has one representative near the stops only
    // while their span plus a cell either side is under a full turn.
    if (lon_max - lon_min + 2 * lon_width >= 360) lon_width = kInf;
    lat_axis_ = {lat_min, lat_width,
                 static_cast<int>(cells(lat_max - lat_min, lat_width))};
    lon_axis_ = {lon_min, lon_width,
                 static_cast<int>(cells(lon_max - lon_min, lon_width))};
    lon_center_ = (lon_min + lon_max) / 2;
  }

  // Stops with a non-finite center (never within any distance) land in
  // cell 0 of an unbucketed grid.
  auto index = [](const GridAxis& axis, double v) {
    const double cell = axis.Cell(v);
    return cell >= 0 && cell < axis.cells ? static_cast<size_t>(cell) : 0;
  };
  const size_t cols = static_cast<size_t>(lon_axis_.cells);
  cell_start_.assign(static_cast<size_t>(lat_axis_.cells) * cols + 1, 0);
  std::vector<size_t> cell_of(stops_.size());
  for (size_t i = 0; i < stops_.size(); ++i) {
    cell_of[i] = index(lat_axis_, stops_[i].center.lat) * cols +
                 index(lon_axis_, stops_[i].center.lon);
    ++cell_start_[cell_of[i] + 1];
  }
  std::partial_sum(cell_start_.begin(), cell_start_.end(), cell_start_.begin());
  std::vector<uint32_t> next(cell_start_.begin(), cell_start_.end() - 1);
  cell_stops_.resize(stops_.size());
  for (size_t i = 0; i < stops_.size(); ++i) {
    cell_stops_[next[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
}

int64_t BusStopIndex::Locate(const LatLon& position, int line_id,
                             bool direction) const {
  // A non-finite coordinate makes the haversine to every stop NaN.
  if (stops_.empty() || !std::isfinite(position.lat) ||
      !std::isfinite(position.lon)) {
    return -1;
  }
  // Bucket the query as the same point of the sphere with its latitude in
  // [-90, 90] and its longitude within 180 degrees of the stops; distances
  // use the position as given, so the result is the one a scan of every stop
  // would give.
  double lat = std::remainder(position.lat, 360.0);
  double lon = position.lon;
  if (std::abs(lat) > 90) {
    lat = std::copysign(180.0, lat) - lat;
    lon += 180;
  }
  lon = lon_center_ + std::remainder(lon - lon_center_, 360.0);
  const double row = lat_axis_.Cell(lat);
  const double col = lon_axis_.Cell(lon);
  const double row_lo = std::max(row - 1, 0.0);
  const double row_hi = std::min(row + 1, lat_axis_.cells - 1.0);
  const double col_lo = std::max(col - 1, 0.0);
  const double col_hi = std::min(col + 1, lon_axis_.cells - 1.0);
  if (row_lo > row_hi || col_lo > col_hi) return -1;

  const std::pair<int, bool> key{line_id, direction};
  double best_known = kInf;
  int64_t best_known_id = -1;
  double best_any = kInf;
  int64_t best_any_id = -1;
  const size_t cols = static_cast<size_t>(lon_axis_.cells);
  for (size_t r = static_cast<size_t>(row_lo); r <= static_cast<size_t>(row_hi);
       ++r) {
    // Cells col_lo..col_hi of a row are contiguous in cell_stops_.
    const uint32_t end = cell_start_[r * cols + static_cast<size_t>(col_hi) + 1];
    for (uint32_t k = cell_start_[r * cols + static_cast<size_t>(col_lo)]; k < end;
         ++k) {
      const BusStop& stop = stops_[cell_stops_[k]];
      const double d = HaversineMeters(position, stop.center);
      if (Closer(d, stop.id, best_any, best_any_id)) {
        best_any = d;
        best_any_id = stop.id;
      }
      if (Closer(d, stop.id, best_known, best_known_id) &&
          std::binary_search(stop.lines.begin(), stop.lines.end(), key)) {
        best_known = d;
        best_known_id = stop.id;
      }
    }
  }
  if (best_known_id >= 0 && best_known <= options_.max_assign_distance) {
    return best_known_id;
  }
  if (best_any <= options_.max_assign_distance) return best_any_id;
  return -1;
}

Result<BusStop> BusStopIndex::GetStop(int64_t id) const {
  if (id < 0 || static_cast<uint64_t>(id) >= stops_.size()) {
    return Status::NotFound("no bus stop with id " + std::to_string(id));
  }
  return stops_[static_cast<size_t>(id)];
}

}  // namespace geo
}  // namespace insight
