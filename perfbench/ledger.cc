#include "ledger.h"

#include <sstream>

#include "core/partitioning.h"
#include "core/retrieval.h"
#include "net/wire.h"
#include "traffic/bolts.h"

namespace perfbench {

namespace core = insight::core;
namespace traffic = insight::traffic;
using traffic::BusTrace;

namespace {

/// Esper engines the routing ledger allocates, as fig8_local runs them.
constexpr int kRouteEngines = 2;

/// Keeps a result observable so timed loops are not optimised away.
volatile int64_t g_sink = 0;

double NsPerOp(int64_t start_ns, size_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(NowNs() - start_ns) / static_cast<double>(ops);
}

std::vector<std::string> AttributeKeys() {
  std::vector<std::string> keys;
  for (const char* attr : {traffic::kAttrDelay, traffic::kAttrActualDelay,
                           traffic::kAttrSpeed, traffic::kAttrCongestion}) {
    for (const char* suffix : {"", "_stop"}) keys.push_back(std::string(attr) + suffix);
  }
  return keys;
}

/// One engine holding the Table-6 rules as an Esper-bolt task installs them,
/// with matches collected as detections.
struct RuleEngine {
  insight::cep::Engine engine;
  insight::cep::EventTypePtr bus;
  std::vector<Detection> matches;
};

void InstallRules(RuleEngine* e) {
  auto& engine = e->engine;
  (void)engine.RegisterEventType("bus", traffic::BusEventFields({}));
  for (const std::string& key : AttributeKeys()) {
    (void)engine.RegisterEventType(traffic::ThresholdEventTypeName(key),
                                   traffic::ThresholdEventFields());
  }
  e->bus = *engine.GetEventType("bus");
  for (const core::RuleTemplate& rule : core::Table6Rules(10)) {
    auto stmt = engine.AddStatement(*rule.ToEpl(), rule.name);
    if (!stmt.ok()) continue;
    (*stmt)->AddListener([e, name = rule.name](const insight::cep::MatchResult& m) {
      auto get = [&m](const char* column) { return *m.Get(column); };
      e->matches.push_back({name, get("location").AsInt(), get("timestamp").AsInt(),
                            get("value").AsDouble(), get("threshold").AsDouble()});
    });
  }
}

/// Preloads the store's current thresholds; returns elapsed seconds.
double Preload(RuleEngine* e, const insight::storage::TableStore& store) {
  int64_t start = NowNs();
  std::vector<std::pair<std::string, double>> keys;
  for (const std::string& key : AttributeKeys()) {
    keys.emplace_back(key, key.rfind("speed", 0) == 0 ? -1.0 : 1.0);
  }
  for (const auto& [key, s] : keys) {
    auto rows = insight::storage::QueryThresholds(store, key, s);
    if (!rows.ok()) continue;
    for (const auto& row : *rows) (void)core::SendThresholdEvent(&e->engine, key, row);
  }
  return Seconds(NowNs() - start);
}

/// The two public calls behind the splitter's routes: Algorithm 2 allocates
/// `engines` over the system's groupings (RulesAllocator::Allocate), then
/// each grouping's regions are partitioned over its engines by their
/// observed rates (PartitionRegions).
insight::Result<std::vector<core::SpatialRouter::GroupingRoute>> AllocateRoutes(
    const core::TrafficManagementSystem& system, int engines) {
  insight::model::LatencyModel model = insight::model::LatencyModel::Default();
  INSIGHT_ASSIGN_OR_RETURN(
      core::AllocationResult allocation,
      core::RulesAllocator(&model).Allocate(system.groupings(), engines));
  std::vector<core::SpatialRouter::GroupingRoute> routes;
  int task_base = 0;
  for (size_t g = 0; g < system.groupings().size(); ++g) {
    const bool is_stops = system.groupings()[g].name == "bus_stops";
    int granted = allocation.engines_per_grouping[g];
    INSIGHT_ASSIGN_OR_RETURN(
        auto assignment,
        core::PartitionRegions(
            (is_stops ? system.stop_rates() : system.area_rates()).Estimates(),
            granted));
    core::SpatialRouter::GroupingRoute route;
    route.location_field = is_stops ? "bus_stop" : "area_leaf";
    for (const auto& [region, engine] : assignment) {
      route.region_to_engine[region] = task_base + engine;
    }
    for (int e = 0; e < granted; ++e) route.fallback_engines.push_back(task_base + e);
    routes.push_back(std::move(route));
    task_base += granted;
  }
  return routes;
}

}  // namespace

void RunLedger(const LedgerInputs& in, RunOutput* out) {
  core::TrafficManagementSystem& system = *in.system;
  const std::vector<BusTrace>& traces = *in.enriched;
  auto add = [out](const std::string& name, double value, const std::string& unit) {
    out->per_layer.push_back({name, value, unit});
  };

  // ---- geo ----
  const size_t n = std::min<size_t>(traces.size(), 5000);
  int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const BusTrace& t = traces[i];
    g_sink = g_sink + system.bus_stops().Locate(t.position, t.line_id, t.direction);
  }
  add("geo.stop_locate_ns", NsPerOp(start, n), "ns");
  constexpr int kPasses = 20;
  start = NowNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < n; ++i) g_sink = g_sink + system.quadtree().LocateLeaf(traces[i].position);
  }
  add("geo.leaf_locate_ns", NsPerOp(start, n * kPasses), "ns");
  {
    traffic::TraceGenerator sampler(in.generator);
    auto reports = sampler.CollectStopReports(2000);
    insight::geo::BusStopIndex index;
    start = NowNs();
    g_sink = g_sink + static_cast<int64_t>(index.Build(reports));
    add("geo.stop_index_build_s", Seconds(NowNs() - start), "s");
  }

  // ---- traffic / core enrichment ----
  {
    traffic::TraceGenerator generator(in.generator);
    BusTrace trace;
    constexpr size_t kGenerate = 50000;
    start = NowNs();
    size_t made = 0;
    while (made < kGenerate && generator.Next(&trace)) ++made;
    add("traffic.generate_ns", NsPerOp(start, made), "ns");
  }
  {
    std::vector<BusTrace> raw = traffic::TraceGenerator(in.generator).GenerateAll(5000);
    size_t fed = raw.size();
    start = NowNs();
    core::EnrichTraces(&raw, system.quadtree(), system.bus_stops());
    add("core.enrich_ns", NsPerOp(start, fed), "ns");
  }

  // ---- core routing and allocation ----
  start = NowNs();
  auto routes = AllocateRoutes(system, kRouteEngines);
  add("core.allocate_ms", Seconds(NowNs() - start) * 1e3, "ms");
  {
    core::SpatialRouter router(routes.ok() ? std::move(*routes)
                                           : std::vector<core::SpatialRouter::GroupingRoute>{});
    auto fields = std::make_shared<const insight::dsps::Fields>(traffic::EnrichedFields({}));
    std::vector<insight::dsps::Tuple> tuples;
    for (size_t i = 0; i < n; ++i) {
      tuples.emplace_back(fields, traffic::TraceToEnrichedValues(traces[i]));
    }
    std::vector<int> targets;
    start = NowNs();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& tuple : tuples) {
        router.Route(tuple, &targets);
        g_sink = g_sink + static_cast<int64_t>(targets.size());
      }
    }
    add("core.route_ns", NsPerOp(start, n * kPasses), "ns");
  }

  // ---- cep: one engine, every rule, the whole stream in order ----
  const size_t events = std::min<size_t>(traces.size(), 20000);
  {
    RuleEngine row;
    InstallRules(&row);
    add("cep.preload_ms", Preload(&row, *system.store()) * 1e3, "ms");
    auto& pool = row.engine.event_pool();
    start = NowNs();
    for (size_t i = 0; i < events; ++i) {
      const BusTrace& t = traces[i];
      row.engine.SendEvent(pool.Create(row.bus, traffic::TraceToEnrichedValues(t), t.timestamp));
    }
    add("cep.row_ns_per_event", NsPerOp(start, events), "ns");
    add("cep.matches_per_kevent",
        1000.0 * static_cast<double>(row.matches.size()) / static_cast<double>(events),
        "count");

    std::vector<RefTrace> stream;
    for (size_t i = 0; i < events; ++i) {
      stream.push_back(ToRefTrace(traces[i], traces[i].timestamp));
    }
    CompareResult cmp = CompareDetections(
        EvaluateRules(stream, Table6RefRules(10), *in.thresholds, 1.0), row.matches);
    std::ostringstream note;
    note << "sequential single-engine baseline == reference (" << cmp.matched
         << " matched, " << cmp.excused_ties << " ties)";
    if (!cmp.ok()) note << "; " << cmp.first_problem;
    out->Check(cmp.ok(), note.str());

    RuleEngine batch;
    InstallRules(&batch);
    Preload(&batch, *system.store());
    insight::cep::EventBatch block(batch.bus);
    constexpr size_t kBlock = 64;
    start = NowNs();
    for (size_t i = 0; i < events; i += kBlock) {
      block.Clear();
      for (size_t j = i; j < std::min(events, i + kBlock); ++j) {
        block.AppendRow(traffic::TraceToEnrichedValues(traces[j]), traces[j].timestamp);
      }
      batch.engine.SendBatch(block);
    }
    add("cep.batch_ns_per_event", NsPerOp(start, events), "ns");
    double fast = 0;
    for (const std::string& name : batch.engine.StatementNames()) {
      auto stmt = batch.engine.GetStatement(name);
      if (stmt.ok() && (*stmt)->UsingBatchFastPath()) fast += 1;
    }
    add("cep.fastpath_statements", fast, "count");
    out->Check(batch.matches.size() == row.matches.size(),
               "batch path matches == row path matches (" +
                   std::to_string(batch.matches.size()) + ")");
  }

  // ---- storage ----
  {
    insight::storage::TableStore store;
    (void)store.CreateTable(traffic::EventsStorerBolt::kTableName,
                            traffic::EventsStorerBolt::TableColumns());
    constexpr size_t kRows = 20000;
    start = NowNs();
    for (size_t i = 0; i < kRows; ++i) {
      (void)store.Insert(traffic::EventsStorerBolt::kTableName,
                         {insight::cep::Value(std::string("delay_bus_stop_w10")),
                          insight::cep::Value(std::string("delay")),
                          insight::cep::Value(static_cast<int64_t>(i % 500)),
                          insight::cep::Value(1.5), insight::cep::Value(1.0),
                          insight::cep::Value(static_cast<int64_t>(i))});
    }
    add("storage.insert_ns", NsPerOp(start, kRows), "ns");
    start = NowNs();
    size_t queries = 0;
    for (const std::string& key : AttributeKeys()) {
      auto rows = insight::storage::QueryThresholds(*system.store(), key, 1.0);
      if (rows.ok()) g_sink = g_sink + static_cast<int64_t>(rows->size());
      ++queries;
    }
    add("storage.threshold_query_ms", NsPerOp(start, queries) * 1e-6, "ms");
  }

  // ---- batch (timed in the workload's refresh) ----
  add("batch.history_append_s", in.history_append_s, "s");
  add("batch.cycle_s", in.cycle_s, "s");

  // ---- net wire format on 64-tuple blocks of the workload's tuples ----
  {
    insight::net::TupleBatch block;
    block.stream = "spout";
    for (uint32_t i = 0; i < 64 && i < traces.size(); ++i) {
      block.payloads.push_back(std::make_shared<const std::vector<insight::cep::Value>>(
          traffic::TraceToEnrichedValues(traces[i])));
      block.tuples.push_back({i, i + 1, traces[i].timestamp, 1});
    }
    constexpr int kReps = 2000;
    std::string encoded;
    start = NowNs();
    for (int r = 0; r < kReps; ++r) {
      encoded.clear();
      insight::net::EncodeTupleBatch(block, &encoded);
    }
    add("net.wire_encode_ns_per_tuple", NsPerOp(start, kReps * block.tuples.size()), "ns");
    insight::net::TupleBatch decoded;
    start = NowNs();
    for (int r = 0; r < kReps; ++r) {
      decoded = insight::net::TupleBatch();
      (void)insight::net::DecodeTupleBatch(encoded, &decoded);
    }
    add("net.wire_decode_ns_per_tuple", NsPerOp(start, kReps * block.tuples.size()), "ns");
  }
}

}  // namespace perfbench
