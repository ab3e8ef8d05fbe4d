#ifndef INSIGHT_GEO_BUS_STOPS_H_
#define INSIGHT_GEO_BUS_STOPS_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/denclue.h"
#include "geo/latlon.h"

namespace insight {
namespace geo {

/// One noisy "bus reached a stop" report, the input of the bus-stop
/// canonicalisation tool of Section 4.1.2.
struct StopReport {
  LatLon position;
  int line_id = 0;
  bool direction = false;
  /// Bearing (degrees) the bus had when entering the stop area.
  double entry_angle_deg = 0.0;
};

/// A canonical bus stop (a DENCLUE subcluster). Clusters found by DENCLUE are
/// split further by the average entry angle per (line, direction) so that the
/// two directions of a road get distinct stops.
struct BusStop {
  int64_t id = 0;
  LatLon center;
  /// Representative entry angle of the subcluster.
  double angle_deg = 0.0;
  /// (line, direction) pairs observed at this subcluster.
  std::vector<std::pair<int, bool>> lines;
  /// Parent DENCLUE cluster.
  int cluster_id = 0;
  size_t report_count = 0;
};

/// Builds canonical stops from noisy reports and answers nearest-stop queries
/// for new (position, line, direction) tuples.
class BusStopIndex {
 public:
  struct Options {
    Denclue::Options denclue;
    /// Subclusters within one cluster merge when their mean entry angles are
    /// closer than this (degrees).
    double angle_split_deg = 60.0;
    /// Reports farther than this from every stop get kInvalidStop (meters).
    double max_assign_distance = 250.0;
  };

  BusStopIndex() = default;
  explicit BusStopIndex(const Options& options) : options_(options) {}

  /// Runs DENCLUE + angle splitting over the reports. Replaces any previous
  /// content. Stops are numbered 0..n-1 in stops() order. Returns the number
  /// of canonical stops.
  size_t Build(const std::vector<StopReport>& reports);

  /// Closest canonical stop for a new observation; prefers subclusters that
  /// have seen the same (line, direction), falling back to the nearest stop
  /// of any line. Equal distances go to the lowest stop id. Returns -1 when
  /// nothing is within max_assign_distance (and for non-finite positions).
  int64_t Locate(const LatLon& position, int line_id, bool direction) const;

  const std::vector<BusStop>& stops() const { return stops_; }
  Result<BusStop> GetStop(int64_t id) const;

 private:
  /// One axis of the lookup grid, in degrees: cell k holds values in
  /// [origin + k*width, origin + (k+1)*width). An infinite width puts every
  /// finite value in cell 0.
  struct GridAxis {
    double origin = 0.0;
    double width = 0.0;
    int cells = 1;
    /// Cell of `v` as a floored double, so that values far outside the grid
    /// never reach an integer conversion.
    double Cell(double v) const { return std::floor((v - origin) / width); }
  };

  /// Buckets stops_ into a lat/lon grid whose cells are at least
  /// max_assign_distance wide, so the 3x3 cells around a query hold every
  /// stop Locate() could return.
  void BuildGrid();

  Options options_;
  std::vector<BusStop> stops_;
  GridAxis lat_axis_;
  GridAxis lon_axis_;
  /// Query longitudes are wrapped to within 180 degrees of this before
  /// bucketing (haversine is periodic in the longitude difference).
  double lon_center_ = 0.0;
  /// CSR buckets: cell (row, col) = row * lon_axis_.cells + col holds the
  /// stop indexes cell_stops_[cell_start_[cell] .. cell_start_[cell + 1]),
  /// in ascending order.
  std::vector<uint32_t> cell_start_;
  std::vector<uint32_t> cell_stops_;
};

}  // namespace geo
}  // namespace insight

#endif  // INSIGHT_GEO_BUS_STOPS_H_
