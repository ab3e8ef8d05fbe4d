// The benchmark's own pipeline pieces: a replay spout (full speed or paced
// open loop), a timing sink, an optional timing wrapper around the Esper
// bolt, and the topology that wires them to the program's components.
// Every component writes what it observed to a file in the run directory
// when it closes, so results escape worker processes the same way they
// escape the in-process runtime.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dsps/topology.h"
#include "storage/table_store.h"
#include "traffic/bolts.h"
#include "reference.h"
#include "traffic/trace.h"

namespace perfbench {

/// Timestamp offset between replay rounds of the same traces, so every
/// emission carries a distinct trigger timestamp (service ends at 27 h).
inline constexpr int64_t kRoundOffsetMicros = int64_t{100} * 3600 * 1000000;

/// One timed phase. Serialized to the run directory so worker processes
/// rebuild exactly the topology the supervisor built.
struct PhaseSpec {
  std::string name;          // file prefix: "full<r>" | "paced<r>"
  uint64_t tuples = 0;       // emissions
  double rate = 0.0;         // tuples/s; 0 = full speed
  bool acking = false;
  bool timed_esper = false;  // wrap the Esper bolt in a timing wrapper
  int esper_tasks = 1;       // per Esper component

  std::string Serialize() const;
  static bool Parse(const std::string& text, PhaseSpec* out);
};

/// Everything a topology build needs besides the spec: the pre-enriched
/// traces and one Esper component per location kind.
struct PipelineInputs {
  std::string dir;
  std::shared_ptr<const std::vector<insight::traffic::BusTrace>> traces;
  std::shared_ptr<const insight::traffic::EsperBoltConfig> esper_stop;
  std::shared_ptr<const insight::traffic::EsperBoltConfig> esper_area;
};

/// The enriched trace as the reference evaluates it, triggering at
/// `timestamp`.
RefTrace ToRefTrace(const insight::traffic::BusTrace& trace, int64_t timestamp);

/// Trace timestamp of emission `i` (round offset applied).
int64_t EmissionTimestamp(const std::vector<insight::traffic::BusTrace>& traces,
                          uint64_t i);

insight::Result<insight::dsps::Topology> BuildPipeline(
    const PipelineInputs& inputs, const PhaseSpec& spec);

/// Esper components of the pipeline, one per location kind.
inline const char* const kEsperStop = "esper_stop";
inline const char* const kEsperArea = "esper_area";

struct SinkRecord {
  std::string rule;
  int64_t location = 0;
  int64_t timestamp = 0;
  double value = 0.0;
  double threshold = 0.0;
  int64_t arrival_ns = 0;
};

struct ExecRecord {
  int64_t timestamp = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// What the components of one phase wrote when they closed.
struct PhaseFiles {
  uint64_t emitted = 0;
  uint64_t acks = 0;
  uint64_t fails = 0;
  int64_t start_ns = 0;     // paced schedule origin (first NextTuple)
  int64_t last_ack_ns = 0;
  std::vector<int64_t> emit_ns;  // per emission index
  std::vector<SinkRecord> detections;
  /// Esper component -> executions (timing wrapper only).
  std::map<std::string, std::vector<ExecRecord>> executions;
};

insight::Status ReadPhaseFiles(const std::string& dir, const PhaseSpec& spec,
                               PhaseFiles* out);

/// Threshold rows per attribute key, as the Listing-2 query returned them.
using ThresholdRows =
    std::map<std::string, std::vector<insight::storage::ThresholdRow>>;
insight::Status WriteThresholds(const std::string& path,
                                const ThresholdRows& rows);
insight::Result<ThresholdRows> ReadThresholds(const std::string& path);

/// Esper-bolt config holding `rules` on every task and preloading the
/// threshold stream from `rows`.
std::shared_ptr<const insight::traffic::EsperBoltConfig> MakeEsperConfig(
    const std::vector<std::pair<std::string, std::string>>& rules, int tasks,
    std::shared_ptr<const ThresholdRows> rows);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
