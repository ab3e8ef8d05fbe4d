#ifndef INSIGHT_CORE_SYSTEM_H_
#define INSIGHT_CORE_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/allocation.h"
#include "core/dynamic.h"
#include "core/partitioning.h"
#include "core/retrieval.h"
#include "core/rule_template.h"
#include "dfs/mini_dfs.h"
#include "dsps/local_runtime.h"
#include "geo/bus_stops.h"
#include "geo/quadtree.h"
#include "model/latency_model.h"
#include "storage/table_store.h"
#include "traffic/bolts.h"
#include "traffic/generator.h"

namespace insight {
namespace core {

/// Offline enrichment of traces (speed, actual delay, hour, date type, area
/// and bus-stop annotations) — the same computation the PreProcess / Area
/// Tracker / BusStops Tracker bolts perform online, used to bootstrap the
/// DFS history before the first batch cycle.
void EnrichTraces(std::vector<traffic::BusTrace>* traces,
                  const geo::RegionQuadtree& quadtree,
                  const geo::BusStopIndex& stops);

/// Per-region tuple counts over a trace set (seed rates for Algorithm 1).
std::vector<RegionRate> ComputeRegionRates(
    const std::vector<traffic::BusTrace>& traces, bool by_bus_stop);

/// The Esper bolt's configuration for one run. Tasks go to the groupings in
/// order, engines_per_grouping[g] tasks to grouping g (the size of `setups`);
/// each task gets its grouping's rules, preload and before_send. before_send
/// is installed only when some setup has one, because EsperBolt falls back
/// from its columnar ExecuteBatch path to per-tuple Execute whenever it is.
std::shared_ptr<const traffic::EsperBoltConfig> MakeEsperBoltConfig(
    std::vector<RetrievalSetup> setups,
    const std::vector<int>& engines_per_grouping);

/// The end-to-end system of Figure 3 / Figure 8: workload generation,
/// spatial indexing, batch bootstrap, rule partitioning/allocation, the
/// Storm-like topology with one Esper engine per Esper-bolt task, and the
/// events store.
class TrafficManagementSystem {
 public:
  struct Config {
    traffic::TraceGenerator::Options generator;
    /// Traces fed through the topology (per run).
    size_t max_traces = 20000;
    /// Traces used to bootstrap history / region rates / bus stops.
    size_t bootstrap_traces = 20000;
    size_t stop_report_samples = 2000;

    geo::RegionQuadtree::Options quadtree;
    size_t quadtree_seed_points = 600;

    std::vector<RuleTemplate> rules;
    int num_esper_engines = 4;
    ThresholdRetrieval retrieval = ThresholdRetrieval::kThresholdStream;
    RetrievalOptions retrieval_options;

    /// Topology parallelism (the Esper bolt gets num_esper_engines tasks).
    int reader_executors = 1;
    /// Values above 1 shuffle the enriched stream across executors, which
    /// reorders each location's input to the count-window rules, so the
    /// detections no longer match a sequential evaluation.
    int preprocess_executors = 1;
    int tracker_executors = 1;
    int splitter_executors = 1;
    int storer_executors = 1;
    int num_workers = 1;
    dsps::LocalRuntime::Options runtime;
  };

  struct RunReport {
    size_t traces_fed = 0;
    size_t detections = 0;
    double wall_seconds = 0.0;
    /// Esper-bolt totals (the bolt the paper's evaluation focuses on).
    dsps::MetricsRegistry::ComponentTotals esper;
    /// Tuples/second through the Esper bolt.
    double esper_throughput = 0.0;
    /// Engines granted per grouping by Algorithm 2.
    std::vector<int> engines_per_grouping;
  };

  explicit TrafficManagementSystem(Config config);

  /// Builds the quadtree and canonical bus stops, generates the bootstrap
  /// history, runs the first batch cycle and computes seed region rates.
  Status Initialize();

  /// Builds the topology, runs the stream to completion and reports metrics.
  /// Region rates observed by the splitter update the rate trackers, so a
  /// subsequent Run() re-partitions with fresher estimates (the paper's
  /// periodic Start-Up Optimization, Section 4.2).
  Result<RunReport> Run();

  /// Registers additional rules after Initialize(); groupings and the
  /// allocation are recomputed on the next Run() ("the component's
  /// optimizations can be invoked ... when new rules are submitted").
  Status AddRules(const std::vector<RuleTemplate>& rules);

  // ---- introspection ----
  storage::TableStore* store() { return &store_; }
  dfs::MiniDfs* dfs() { return &dfs_; }
  const geo::RegionQuadtree& quadtree() const { return *quadtree_; }
  const geo::BusStopIndex& bus_stops() const { return *bus_stops_; }
  DynamicRuleManager* dynamic_manager() { return dynamic_.get(); }
  const std::vector<RuleGrouping>& groupings() const { return groupings_; }
  const RegionRateTracker& area_rates() const { return area_tracker_; }
  const RegionRateTracker& stop_rates() const { return stop_tracker_; }

 private:
  Result<SpatialRouter> BuildRouter(const AllocationResult& allocation) const;

  Config config_;
  storage::TableStore store_;
  dfs::MiniDfs dfs_;
  std::shared_ptr<const geo::RegionQuadtree> quadtree_;
  std::shared_ptr<const geo::BusStopIndex> bus_stops_;
  Status RebuildGroupings();

  std::unique_ptr<DynamicRuleManager> dynamic_;
  std::vector<RuleGrouping> groupings_;
  RegionRateTracker area_tracker_;
  RegionRateTracker stop_tracker_;
  model::LatencyModel latency_model_ = model::LatencyModel::Default();
  bool initialized_ = false;
};

}  // namespace core
}  // namespace insight

#endif  // INSIGHT_CORE_SYSTEM_H_
