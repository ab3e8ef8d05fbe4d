#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "geo/bus_stops.h"
#include "geo/denclue.h"
#include "geo/latlon.h"
#include "geo/quadtree.h"
#include "traffic/generator.h"

namespace insight {
namespace geo {
namespace {

// ---------------------------------------------------------------------------
// LatLon math
// ---------------------------------------------------------------------------

TEST(LatLonTest, HaversineKnownDistance) {
  // O'Connell Bridge to Heuston Station is roughly 2.6 km.
  LatLon bridge{53.3472, -6.2592};
  LatLon heuston{53.3464, -6.2921};
  double d = HaversineMeters(bridge, heuston);
  EXPECT_GT(d, 2000.0);
  EXPECT_LT(d, 2500.0);
  EXPECT_DOUBLE_EQ(HaversineMeters(bridge, bridge), 0.0);
}

TEST(LatLonTest, BearingCardinalDirections) {
  LatLon origin{53.35, -6.26};
  EXPECT_NEAR(BearingDegrees(origin, {53.36, -6.26}), 0.0, 1.0);    // north
  EXPECT_NEAR(BearingDegrees(origin, {53.35, -6.20}), 90.0, 1.0);   // east
  EXPECT_NEAR(BearingDegrees(origin, {53.34, -6.26}), 180.0, 1.0);  // south
  EXPECT_NEAR(BearingDegrees(origin, {53.35, -6.32}), 270.0, 1.0);  // west
}

TEST(LatLonTest, AngleDifferenceWraps) {
  EXPECT_DOUBLE_EQ(AngleDifference(350.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(AngleDifference(90.0, 270.0), 180.0);
  EXPECT_DOUBLE_EQ(AngleDifference(45.0, 45.0), 0.0);
}

TEST(LatLonTest, ProjectionRoundTrip) {
  LocalProjection proj({53.35, -6.26});
  LatLon p{53.36, -6.28};
  double x, y;
  proj.ToXY(p, &x, &y);
  LatLon back = proj.FromXY(x, y);
  EXPECT_NEAR(back.lat, p.lat, 1e-9);
  EXPECT_NEAR(back.lon, p.lon, 1e-9);
  // 0.01 deg latitude is ~1.11 km.
  EXPECT_NEAR(y, 1112.0, 15.0);
}

// ---------------------------------------------------------------------------
// RegionQuadtree
// ---------------------------------------------------------------------------

class QuadtreeTest : public ::testing::Test {
 protected:
  RegionQuadtree MakeTree(size_t capacity = 2, int max_depth = 8) {
    RegionQuadtree::Options options;
    options.capacity = capacity;
    options.max_depth = max_depth;
    return RegionQuadtree(DublinBounds(), options);
  }
};

TEST_F(QuadtreeTest, SplitsWhenCapacityExceeded) {
  auto tree = MakeTree(2);
  // Cluster points in one corner to force local splits.
  ASSERT_TRUE(tree.Insert({53.29, -6.44}).ok());
  ASSERT_TRUE(tree.Insert({53.291, -6.441}).ok());
  ASSERT_TRUE(tree.Insert({53.292, -6.442}).ok());
  tree.Build();
  EXPECT_GT(tree.max_layer(), 0);
  EXPECT_GT(tree.num_regions(), 1u);
}

TEST_F(QuadtreeTest, RejectsOutOfBounds) {
  auto tree = MakeTree();
  EXPECT_FALSE(tree.Insert({0.0, 0.0}).ok());
  EXPECT_TRUE(tree.Insert({53.35, -6.26}).ok());
}

TEST_F(QuadtreeTest, FrozenAfterBuild) {
  auto tree = MakeTree();
  ASSERT_TRUE(tree.Insert({53.35, -6.26}).ok());
  tree.Build();
  EXPECT_EQ(tree.Insert({53.36, -6.27}).code(), StatusCode::kFailedPrecondition);
}

TEST_F(QuadtreeTest, LocateFindsContainingRegion) {
  auto tree = BuildDublinQuadtree(11, 400);
  LatLon p{53.3501, -6.2605};  // near the centre, deeply split
  RegionId leaf = tree.LocateLeaf(p);
  ASSERT_GE(leaf, 0);
  auto info = tree.GetRegion(leaf);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->box.Contains(p));
  EXPECT_TRUE(info->is_leaf);
  // Layer-0 lookup is always the root.
  EXPECT_EQ(tree.Locate(p, 0), 0);
  // Out of bounds -> invalid.
  EXPECT_EQ(tree.LocateLeaf({10.0, 10.0}), kInvalidRegion);
}

TEST_F(QuadtreeTest, LayerLookupClampsToLeaf) {
  auto tree = BuildDublinQuadtree(11, 400);
  // A point in an empty corner sits in a shallow leaf; asking for a deep
  // layer must return that leaf, not fail.
  LatLon corner{53.415, -6.06};
  RegionId at_deep = tree.Locate(corner, 10);
  RegionId leaf = tree.LocateLeaf(corner);
  EXPECT_EQ(at_deep, leaf);
}

TEST_F(QuadtreeTest, CoveringLayerTilesTheCity) {
  auto tree = BuildDublinQuadtree(13, 500);
  for (int layer : {1, 2, 3}) {
    auto regions = tree.RegionsCoveringLayer(layer);
    ASSERT_FALSE(regions.empty());
    // Random points must fall in exactly one covering region.
    Rng rng(99);
    auto bounds = DublinBounds();
    for (int i = 0; i < 200; ++i) {
      LatLon p{rng.Uniform(bounds.min_lat, bounds.max_lat),
               rng.Uniform(bounds.min_lon, bounds.max_lon)};
      int hits = 0;
      for (const auto& region : regions) {
        if (region.box.Contains(p)) ++hits;
      }
      EXPECT_EQ(hits, 1) << "layer " << layer;
    }
  }
}

TEST_F(QuadtreeTest, DublinTreeIsUnbalanced) {
  // Seeds concentrate near the centre (Figure 6), so leaves near the centre
  // must be deeper than corner leaves.
  auto tree = BuildDublinQuadtree(17, 800);
  auto centre_info = tree.GetRegion(tree.LocateLeaf({53.3498, -6.2603}));
  auto corner_info = tree.GetRegion(tree.LocateLeaf({53.4150, -6.0600}));
  ASSERT_TRUE(centre_info.ok());
  ASSERT_TRUE(corner_info.ok());
  EXPECT_GT(centre_info->layer, corner_info->layer);
}

TEST_F(QuadtreeTest, QueryFindsIntersectingRegions) {
  auto tree = BuildDublinQuadtree(11, 400);
  BoundingBox query{53.34, -6.28, 53.36, -6.24};
  auto regions = tree.Query(query, 3);
  ASSERT_FALSE(regions.empty());
  for (const auto& region : regions) {
    EXPECT_TRUE(region.box.Intersects(query));
  }
}

// ---------------------------------------------------------------------------
// DENCLUE
// ---------------------------------------------------------------------------

TEST(DenclueTest, SeparatesTwoBlobs) {
  Rng rng(5);
  std::vector<Denclue::Point> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.Gaussian(0.0, 8.0), rng.Gaussian(0.0, 8.0)});
    points.push_back({rng.Gaussian(300.0, 8.0), rng.Gaussian(0.0, 8.0)});
  }
  Denclue::Options options;
  options.sigma = 20.0;
  Denclue denclue(options);
  auto result = denclue.Cluster(points);
  EXPECT_EQ(result.num_clusters, 2u);
  // Points of each blob must share a label.
  for (size_t i = 2; i < points.size(); i += 2) {
    EXPECT_EQ(result.labels[i], result.labels[0]);
    EXPECT_EQ(result.labels[i + 1], result.labels[1]);
  }
}

TEST(DenclueTest, SingleBlobSingleCluster) {
  Rng rng(6);
  std::vector<Denclue::Point> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.Gaussian(50.0, 10.0), rng.Gaussian(-20.0, 10.0)});
  }
  Denclue denclue(Denclue::Options{});
  auto result = denclue.Cluster(points);
  EXPECT_EQ(result.num_clusters, 1u);
}

TEST(DenclueTest, EmptyInput) {
  Denclue denclue(Denclue::Options{});
  auto result = denclue.Cluster({});
  EXPECT_EQ(result.num_clusters, 0u);
  EXPECT_TRUE(result.labels.empty());
}

TEST(DenclueTest, DensityPeaksAtBlobCentre) {
  Rng rng(8);
  std::vector<Denclue::Point> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.Gaussian(0.0, 10.0), rng.Gaussian(0.0, 10.0)});
  }
  Denclue denclue(Denclue::Options{});
  EXPECT_GT(denclue.DensityAt(points, 0, 0), denclue.DensityAt(points, 200, 200));
}

// ---------------------------------------------------------------------------
// BusStopIndex
// ---------------------------------------------------------------------------

TEST(BusStopIndexTest, SplitsClusterByDirection) {
  // One physical stop area served in two directions: reports at the same
  // location with opposite entry angles must become two canonical stops.
  std::vector<StopReport> reports;
  LatLon stop{53.35, -6.26};
  Rng rng(9);
  LocalProjection proj(stop);
  for (int i = 0; i < 30; ++i) {
    StopReport r;
    r.position = proj.FromXY(rng.Gaussian(0, 8), rng.Gaussian(0, 8));
    r.line_id = 1;
    r.direction = i % 2 == 0;
    r.entry_angle_deg = r.direction ? 90.0 + rng.Gaussian(0, 8)
                                    : 270.0 + rng.Gaussian(0, 8);
    reports.push_back(r);
  }
  BusStopIndex index;
  size_t n = index.Build(reports);
  EXPECT_EQ(n, 2u);

  // Locate prefers the subcluster that has seen this (line, direction).
  int64_t eastbound = index.Locate(stop, 1, true);
  int64_t westbound = index.Locate(stop, 1, false);
  ASSERT_GE(eastbound, 0);
  ASSERT_GE(westbound, 0);
  EXPECT_NE(eastbound, westbound);
}

TEST(BusStopIndexTest, SeparateClustersForDistantStops) {
  std::vector<StopReport> reports;
  Rng rng(10);
  LatLon a{53.35, -6.26};
  LatLon b{53.36, -6.22};  // ~2.9 km away
  for (const LatLon& stop : {a, b}) {
    LocalProjection proj(stop);
    for (int i = 0; i < 20; ++i) {
      StopReport r;
      r.position = proj.FromXY(rng.Gaussian(0, 6), rng.Gaussian(0, 6));
      r.line_id = 7;
      r.direction = true;
      r.entry_angle_deg = 45.0;
      reports.push_back(r);
    }
  }
  BusStopIndex index;
  EXPECT_EQ(index.Build(reports), 2u);
  int64_t near_a = index.Locate(a, 7, true);
  int64_t near_b = index.Locate(b, 7, true);
  EXPECT_NE(near_a, near_b);
}

TEST(BusStopIndexTest, FarQueryReturnsNoStop) {
  std::vector<StopReport> reports;
  for (int i = 0; i < 10; ++i) {
    reports.push_back({{53.35, -6.26}, 1, true, 90.0});
  }
  BusStopIndex index;
  index.Build(reports);
  EXPECT_EQ(index.Locate({53.42, -6.05}, 1, true), -1);
}

TEST(BusStopIndexTest, EmptyIndex) {
  BusStopIndex index;
  EXPECT_EQ(index.Build({}), 0u);
  EXPECT_EQ(index.Locate({53.35, -6.26}, 1, true), -1);
  for (int64_t id : {int64_t{-1}, int64_t{0}, int64_t{1}}) {
    auto stop = index.GetStop(id);
    ASSERT_FALSE(stop.ok());
    EXPECT_EQ(stop.status().code(), StatusCode::kNotFound);
  }
}

TEST(BusStopIndexTest, GetStopByIdAndOutOfRange) {
  traffic::TraceGenerator::Options options;
  options.seed = 1;
  traffic::TraceGenerator generator(options);
  BusStopIndex index;
  const size_t n = index.Build(generator.CollectStopReports(2000));
  ASSERT_GT(n, 0u);
  for (size_t i = 0; i < n; ++i) {
    auto stop = index.GetStop(static_cast<int64_t>(i));
    ASSERT_TRUE(stop.ok());
    EXPECT_EQ(stop->id, static_cast<int64_t>(i));
    EXPECT_EQ(stop->center, index.stops()[i].center);
  }
  for (int64_t id : {static_cast<int64_t>(n), static_cast<int64_t>(n) + 1000,
                     int64_t{-1}, std::numeric_limits<int64_t>::min(),
                     std::numeric_limits<int64_t>::max()}) {
    auto stop = index.GetStop(id);
    ASSERT_FALSE(stop.ok()) << id;
    EXPECT_EQ(stop.status().code(), StatusCode::kNotFound);
  }
}

// ---------------------------------------------------------------------------
// BusStopIndex::Locate against a scan of every stop
// ---------------------------------------------------------------------------

/// The reference: one haversine per stop in id order, nearest known
/// (line, direction) first, then nearest of any line, strict `<`.
int64_t ScanLocate(const BusStopIndex& index, double max_distance,
                   const LatLon& position, int line_id, bool direction) {
  const std::pair<int, bool> key{line_id, direction};
  double best_known = std::numeric_limits<double>::infinity();
  int64_t best_known_id = -1;
  double best_any = std::numeric_limits<double>::infinity();
  int64_t best_any_id = -1;
  for (const BusStop& stop : index.stops()) {
    double d = HaversineMeters(position, stop.center);
    if (d < best_any) {
      best_any = d;
      best_any_id = stop.id;
    }
    if (std::binary_search(stop.lines.begin(), stop.lines.end(), key) &&
        d < best_known) {
      best_known = d;
      best_known_id = stop.id;
    }
  }
  if (best_known_id >= 0 && best_known <= max_distance) return best_known_id;
  if (best_any <= max_distance) return best_any_id;
  return -1;
}

/// Counts the queries on which Locate and the scan disagree.
class LocateOracle {
 public:
  LocateOracle(const BusStopIndex& index, double max_distance)
      : index_(index), max_distance_(max_distance) {}

  void Check(const LatLon& position, int line_id, bool direction) {
    ++queries_;
    int64_t got = index_.Locate(position, line_id, direction);
    int64_t want = ScanLocate(index_, max_distance_, position, line_id, direction);
    if (got >= 0) ++assigned_;
    if (got != want) {
      ++mismatches_;
      ADD_FAILURE() << "Locate(" << position.lat << ", " << position.lon << ", "
                    << line_id << ", " << direction << ") = " << got
                    << ", scan = " << want;
    }
  }

  size_t queries() const { return queries_; }
  size_t assigned() const { return assigned_; }
  size_t mismatches() const { return mismatches_; }

 private:
  const BusStopIndex& index_;
  double max_distance_;
  size_t queries_ = 0;
  size_t assigned_ = 0;
  size_t mismatches_ = 0;
};

BusStopIndex IndexForSeed(uint64_t seed, double max_distance) {
  traffic::TraceGenerator::Options options;
  options.seed = seed;
  traffic::TraceGenerator generator(options);
  BusStopIndex::Options index_options;
  index_options.max_assign_distance = max_distance;
  BusStopIndex index(index_options);
  index.Build(generator.CollectStopReports(2000));
  return index;
}

std::vector<traffic::BusTrace> TracesForSeed(uint64_t seed, size_t count) {
  traffic::TraceGenerator::Options options;
  options.seed = seed + 100;
  traffic::TraceGenerator generator(options);
  return generator.GenerateAll(count);
}

constexpr double kDefaultDistance = 250.0;

TEST(BusStopLocateTest, MatchesScanOnTracesAndRingProbes) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    BusStopIndex index = IndexForSeed(seed, kDefaultDistance);
    ASSERT_GT(index.stops().size(), 100u);
    LocateOracle oracle(index, kDefaultDistance);
    for (const traffic::BusTrace& trace : TracesForSeed(seed, 10000)) {
      oracle.Check(trace.position, trace.line_id, trace.direction);
    }
    // Probes on a ring straddling max_assign_distance around every stop.
    Rng rng(seed);
    for (const BusStop& stop : index.stops()) {
      LocalProjection proj(stop.center);
      for (int probe = 0; probe < 4; ++probe) {
        double radius = rng.Uniform(240.0, 260.0);
        double angle = rng.Uniform(0.0, 2 * 3.14159265358979323846);
        const auto& line = stop.lines[rng.NextUint(stop.lines.size())];
        oracle.Check(proj.FromXY(radius * std::cos(angle), radius * std::sin(angle)),
                     line.first, rng.NextUint(2) == 1);
      }
    }
    EXPECT_EQ(oracle.mismatches(), 0u);
    // Both outcomes occur, so the comparison is not vacuous.
    EXPECT_GT(oracle.assigned(), oracle.queries() / 4);
    EXPECT_LT(oracle.assigned(), oracle.queries());
  }
}

TEST(BusStopLocateTest, WrappedCoordinatesMatchScan) {
  // Haversine is periodic in the longitude difference, and (180 - lat,
  // lon + 180) is the same point of the sphere; Locate buckets the wrapped
  // point but measures the position as given, like the scan.
  BusStopIndex index = IndexForSeed(1, kDefaultDistance);
  LocateOracle oracle(index, kDefaultDistance);
  std::vector<traffic::BusTrace> traces = TracesForSeed(1, 3000);
  for (const traffic::BusTrace& t : traces) {
    const LatLon p = t.position;
    for (const LatLon& q : {LatLon{p.lat, p.lon + 360.0}, LatLon{p.lat, p.lon - 360.0},
                            LatLon{p.lat, p.lon + 720.0},
                            LatLon{p.lat + 360.0, p.lon},
                            LatLon{180.0 - p.lat, p.lon + 180.0},
                            LatLon{-180.0 - p.lat, p.lon - 180.0}}) {
      oracle.Check(q, t.line_id, t.direction);
    }
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
  EXPECT_GT(oracle.assigned(), oracle.queries() / 4);
}

TEST(BusStopLocateTest, NonFinitePositionsFindNothing) {
  BusStopIndex index = IndexForSeed(2, kDefaultDistance);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const LatLon& p : {LatLon{nan, -6.26}, LatLon{53.35, nan}, LatLon{nan, nan},
                          LatLon{inf, -6.26}, LatLon{-inf, -6.26},
                          LatLon{53.35, inf}, LatLon{53.35, -inf},
                          LatLon{inf, -inf}}) {
    EXPECT_EQ(index.Locate(p, 1, true), -1);
    EXPECT_EQ(ScanLocate(index, kDefaultDistance, p, 1, true), -1);
  }
  // Finite but far outside any cell range.
  for (const LatLon& p : {LatLon{1e300, -6.26}, LatLon{53.35, -1e300},
                          LatLon{-1e300, 1e300}}) {
    EXPECT_EQ(index.Locate(p, 1, true), ScanLocate(index, kDefaultDistance, p, 1, true));
  }
}

TEST(BusStopLocateTest, ZeroAndInfiniteDistanceMatchScan) {
  for (double max_distance : {0.0, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(max_distance);
    BusStopIndex index = IndexForSeed(3, max_distance);
    LocateOracle oracle(index, max_distance);
    for (const traffic::BusTrace& trace : TracesForSeed(3, 2000)) {
      oracle.Check(trace.position, trace.line_id, trace.direction);
    }
    for (const BusStop& stop : index.stops()) {
      oracle.Check(stop.center, stop.lines.front().first, stop.lines.front().second);
      oracle.Check(stop.center, -1, true);
    }
    EXPECT_EQ(oracle.mismatches(), 0u);
    // Every stop center finds itself at distance 0; an infinite distance
    // assigns every query.
    EXPECT_GE(oracle.assigned(), 2 * index.stops().size());
    if (std::isinf(max_distance)) {
      EXPECT_EQ(oracle.assigned(), oracle.queries());
    }
  }
}

TEST(BusStopLocateTest, IdenticalCentersGoToLowestId) {
  // Same position, opposite entry angles: two stops with one center.
  std::vector<StopReport> reports;
  for (int i = 0; i < 20; ++i) {
    reports.push_back({{53.35, -6.26}, 1, i % 2 == 0, i % 2 == 0 ? 90.0 : 270.0});
  }
  BusStopIndex index;
  ASSERT_EQ(index.Build(reports), 2u);
  const std::vector<BusStop>& stops = index.stops();
  ASSERT_EQ(stops[0].center, stops[1].center);
  LocateOracle oracle(index, kDefaultDistance);
  LocalProjection proj(stops[0].center);
  for (double meters : {0.0, 10.0, 249.0}) {
    const LatLon p = proj.FromXY(meters, 0.0);
    // An unknown line ties on distance: the lower id wins.
    EXPECT_EQ(index.Locate(p, 9, true), 0);
    oracle.Check(p, 9, true);
    // A known (line, direction) picks its own stop.
    for (bool direction : {false, true}) {
      const int64_t got = index.Locate(p, 1, direction);
      ASSERT_GE(got, 0);
      EXPECT_TRUE(std::binary_search(stops[static_cast<size_t>(got)].lines.begin(),
                                     stops[static_cast<size_t>(got)].lines.end(),
                                     std::make_pair(1, direction)));
      oracle.Check(p, 1, direction);
    }
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
}

TEST(BusStopLocateTest, SingleStop) {
  std::vector<StopReport> reports;
  for (int i = 0; i < 10; ++i) reports.push_back({{53.35, -6.26}, 4, true, 45.0});
  BusStopIndex index;
  ASSERT_EQ(index.Build(reports), 1u);
  LocateOracle oracle(index, kDefaultDistance);
  LocalProjection proj(index.stops()[0].center);
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    double radius = rng.Uniform(0.0, 400.0);
    double angle = rng.Uniform(0.0, 2 * 3.14159265358979323846);
    oracle.Check(proj.FromXY(radius * std::cos(angle), radius * std::sin(angle)),
                 i % 3 == 0 ? 4 : 5, i % 2 == 0);
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
  EXPECT_EQ(index.Locate(index.stops()[0].center, 5, false), 0);
  EXPECT_EQ(index.Locate({53.42, -6.05}, 4, true), -1);
}

}  // namespace
}  // namespace geo
}  // namespace insight
