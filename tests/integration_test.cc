#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/system.h"

namespace insight {
namespace core {
namespace {

traffic::TraceGenerator::Options SmallCity() {
  traffic::TraceGenerator::Options options;
  options.num_buses = 60;
  options.num_lines = 10;
  options.stops_per_line = 12;
  options.start_hour = 7;
  options.end_hour = 10;
  options.seed = 7;
  options.incidents_per_hour = 4.0;  // make sure anomalies exist
  return options;
}

TrafficManagementSystem::Config SmallConfig() {
  TrafficManagementSystem::Config config;
  config.generator = SmallCity();
  config.max_traces = 6000;
  config.bootstrap_traces = 8000;
  config.stop_report_samples = 800;
  config.rules = {
      MakeRule("delay_areas", "delay", "area_leaf", 10),
      MakeRule("speed_areas", "speed", "area_leaf", 10),
      MakeRule("delay_stops", "delay", "bus_stop", 10),
  };
  config.num_esper_engines = 4;
  config.retrieval = ThresholdRetrieval::kThresholdStream;
  config.retrieval_options.s = 1.5;
  return config;
}

TEST(IntegrationTest, FullPipelineDetectsEventsWithThresholdStream) {
  TrafficManagementSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());

  // The batch bootstrap must have produced statistics tables for both
  // location namespaces.
  EXPECT_TRUE(system.store()->HasTable("statistics_delay"));
  EXPECT_TRUE(system.store()->HasTable("statistics_delay_stop"));
  EXPECT_TRUE(system.store()->HasTable("statistics_speed"));
  auto rows = system.store()->RowCount("statistics_delay");
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(*rows, 10u);

  auto report = system.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->traces_fed, 6000u);
  // Every trace flows through the splitter to at least one engine; the
  // esper bolt must have processed a comparable volume.
  EXPECT_GT(report->esper.executed, 4000u);
  // With injected incidents and s=1.5, some anomalies must fire.
  EXPECT_GT(report->detections, 0u);
  // Two groupings (areas + stops) split the four engines.
  ASSERT_EQ(report->engines_per_grouping.size(), 2u);
  EXPECT_EQ(report->engines_per_grouping[0] + report->engines_per_grouping[1],
            4);
  EXPECT_GE(report->engines_per_grouping[0], 1);
  EXPECT_GE(report->engines_per_grouping[1], 1);
}

/// The events table as a sorted list of printed rows.
std::vector<std::string> DetectionRows(TrafficManagementSystem* system) {
  std::vector<std::string> rows;
  auto table = system->store()->SelectAll(traffic::EventsStorerBolt::kTableName);
  if (!table.ok()) return rows;
  for (const storage::RowValues& row : table->rows) {
    std::string line;
    for (const auto& value : row) line += value.ToString() + "|";
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(IntegrationTest, DefaultConfigDetectionsRepeatAcrossRuns) {
  // With the default executor counts, each location's stream reaches its
  // count windows in generation order, so fresh systems with one seed
  // detect the same events on every run.
  const auto config = SmallConfig();
  std::vector<std::string> first;
  for (int run = 0; run < 3; ++run) {
    TrafficManagementSystem system(config);
    ASSERT_TRUE(system.Initialize().ok());
    auto report = system.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::vector<std::string> rows = DetectionRows(&system);
    EXPECT_EQ(rows.size(), report->detections);
    if (run == 0) {
      ASSERT_GT(rows.size(), 0u);
      first = std::move(rows);
    } else {
      EXPECT_TRUE(rows == first) << "run " << run << ": " << rows.size()
                                 << " rows against " << first.size();
    }
  }
}

TEST(IntegrationTest, SecondRunRepartitionsWithObservedRates) {
  TrafficManagementSystem system(SmallConfig());
  ASSERT_TRUE(system.Initialize().ok());
  EXPECT_EQ(system.area_rates().observed_total(), 0u);
  auto first = system.Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The splitter fed the trackers during the run.
  EXPECT_GT(system.area_rates().observed_total(), 1000u);
  EXPECT_GT(system.stop_rates().observed_total(), 0u);
  // A new rule can be submitted and the system re-optimizes and runs again.
  ASSERT_TRUE(
      system.AddRules({MakeRule("speed_stops2", "speed", "bus_stop", 10)}).ok());
  auto second = system.Run();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->esper.executed, 4000u);
  // Invalid rules are rejected up front.
  RuleTemplate bad;
  bad.name = "broken";
  EXPECT_FALSE(system.AddRules({bad}).ok());
}

TEST(IntegrationTest, StaticRetrievalRunsWithoutStatistics) {
  auto config = SmallConfig();
  config.retrieval = ThresholdRetrieval::kStatic;
  config.retrieval_options.static_threshold = 120.0;
  TrafficManagementSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  auto report = system.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->esper.executed, 4000u);
}

TEST(IntegrationTest, JoinWithDatabaseStrategyEndToEnd) {
  auto config = SmallConfig();
  config.retrieval = ThresholdRetrieval::kJoinWithDatabase;
  config.max_traces = 3000;
  TrafficManagementSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());
  size_t queries_before = system.store()->query_count();
  auto report = system.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->esper.executed, 2000u);
  // The strategy's signature: a storage query per tuple per lookup.
  EXPECT_GT(system.store()->query_count() - queries_before,
            report->esper.executed);
  EXPECT_GT(report->detections, 0u);
}

TEST(IntegrationTest, DynamicRefreshReplacesThresholds) {
  auto config = SmallConfig();
  TrafficManagementSystem system(config);
  ASSERT_TRUE(system.Initialize().ok());

  // Re-run the batch cycle after appending more history: the row count can
  // grow (new locations) but the cycle must succeed and refresh must send
  // threshold events into a fresh engine.
  auto cycle = system.dynamic_manager()->RunBatchCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_GT(*cycle, 0u);
  EXPECT_EQ(system.dynamic_manager()->cycles_completed(), 2u);

  cep::Engine engine;
  ASSERT_TRUE(engine.RegisterEventType("bus", traffic::BusEventFields({})).ok());
  for (const char* attr : {"delay", "speed", "actual_delay", "congestion"}) {
    for (const char* suffix : {"", "_stop"}) {
      ASSERT_TRUE(engine
                      .RegisterEventType(
                          traffic::ThresholdEventTypeName(
                              std::string(attr) + suffix),
                          traffic::ThresholdEventFields())
                      .ok());
    }
  }
  auto sent = system.dynamic_manager()->RefreshEngine(
      &engine, SmallConfig().rules);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  EXPECT_GT(*sent, 0u);
  // Refresh again: std:unique means the engine retains the same number of
  // thresholds, not double.
  auto again = system.dynamic_manager()->RefreshEngine(&engine,
                                                       SmallConfig().rules);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*sent, *again);
}

}  // namespace
}  // namespace core
}  // namespace insight
