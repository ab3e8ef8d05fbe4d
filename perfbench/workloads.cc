// The three workloads (see README.md for why each exists).
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "common/csv.h"
#include "common/thread.h"
#include "core/retrieval.h"
#include "core/system.h"
#include "dist/runtime.h"
#include "ledger.h"
#include "pipeline.h"
#include "reference.h"

namespace perfbench {

namespace core = insight::core;
namespace traffic = insight::traffic;
using insight::Status;
using traffic::BusTrace;

namespace {

/// Table-6 rule window (count of reports per location).
constexpr size_t kWindow = 10;
/// Listing 2's s: thresholds sit one standard deviation from the mean.
constexpr double kS = 1.0;
/// Bootstrap history traces (Initialize) in every workload.
constexpr size_t kBootstrapTraces = 20000;
/// Share of each paced phase treated as warm-up and left out of the
/// latency percentiles (reported on its own).
constexpr double kWarmupShare = 0.2;
/// Esper engines: fig8_local as Algorithm 2 grants 2 engines over the two
/// groupings; the pre-enriched pipeline runs one task per location kind.
constexpr int kFig8Engines = 2;
constexpr int kCepTasksPerKind = 1;
/// Offered rate of the paced phases (tuples/s), well below capacity.
constexpr double kCepPacedRate = 4000;
/// A run is a sequence of slots. Each slot runs one full-speed repetition
/// and one paced repetition, each on a fresh runtime, and every other slot
/// also runs one batch cycle, so every kind of measurement samples the whole
/// run. Slots start until the run's seconds have passed since the first
/// one, and at least this many run:
constexpr int kMinSlots = 3;
/// Work of one slot: full-speed traces (each about half a second) and
/// paced emissions (half a second at kCepPacedRate).
constexpr size_t kFig8TracesPerRun = 6000;
constexpr uint64_t kCepFullTuples = 40000;
constexpr uint64_t kPacedTuples = 2000;
/// Distinct pre-enriched traces replayed by the cep workloads.
constexpr size_t kCepDistinctTraces = 20000;

core::TrafficManagementSystem::Config SystemConfig(uint64_t seed,
                                                   size_t stream_traces) {
  core::TrafficManagementSystem::Config config;
  config.generator.seed = 2015 + seed;
  config.max_traces = stream_traces;
  config.bootstrap_traces = kBootstrapTraces;
  config.rules = core::Table6Rules(kWindow);
  config.num_esper_engines = kFig8Engines;
  // One executor per enrichment stage: parallel shuffle-grouped enrichment
  // reorders each location's stream and changes the detections.
  config.preprocess_executors = 1;
  config.tracker_executors = 1;
  return config;
}

/// core::EnrichTraces over vehicle partitions on 4 threads; enrichment state
/// is per vehicle, so the result equals one sequential call.
std::vector<BusTrace> EnrichParallel(const std::vector<BusTrace>& raw,
                                     const insight::geo::RegionQuadtree& tree,
                                     const insight::geo::BusStopIndex& stops) {
  constexpr int kParts = 4;
  std::vector<std::vector<BusTrace>> parts(kParts);
  for (const BusTrace& t : raw) parts[static_cast<size_t>(t.vehicle_id % kParts)].push_back(t);
  std::vector<insight::Thread> threads;
  for (auto& part : parts) {
    threads.emplace_back([&part, &tree, &stops] {
      core::EnrichTraces(&part, tree, stops);
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<BusTrace> out;
  for (auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  // Generator timestamps are distinct, so this restores stream order.
  std::sort(out.begin(), out.end(), [](const BusTrace& a, const BusTrace& b) {
    return a.timestamp < b.timestamp;
  });
  return out;
}

/// Parses the DFS history into reference statistics. Returns lines parsed
/// (0 on a malformed line).
size_t LoadHistory(core::TrafficManagementSystem* system, RefThresholds* out) {
  auto text = system->dfs()->ReadAll(
      system->dynamic_manager()->config().history_path);
  if (!text.ok()) return 0;
  std::istringstream in(*text);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    RefTrace trace;
    if (!RefThresholds::ParseHistoryLine(line, &trace)) return 0;
    out->Add(trace);
    ++lines;
  }
  out->Finish();
  return lines;
}

size_t StatisticsRows(core::TrafficManagementSystem* system) {
  size_t rows = 0;
  for (const char* attr : {traffic::kAttrDelay, traffic::kAttrActualDelay,
                           traffic::kAttrSpeed, traffic::kAttrCongestion}) {
    for (const char* suffix : {"", "_stop"}) {
      auto count = system->store()->RowCount(
          insight::storage::StatisticsTableName(std::string(attr) + suffix));
      if (count.ok()) rows += *count;
    }
  }
  return rows;
}

std::string ListNote(const std::string& title, const std::vector<double>& values) {
  std::string note = title;
  for (double v : values) note += " " + std::to_string(v);
  return note;
}

/// The figure a run reports from its repetitions. Each vCPU of the host
/// runs at one of two speeds about 1.7x apart, switching every 0.1-2 s,
/// and the share of time spent at the fast speed drifts from under 20% to
/// over 80% within minutes. The median repetition follows that share; the
/// best repetition measures the program at the fast speed whatever the
/// share, as long as one repetition of the run met it.
double BestTime(const std::vector<double>& times) { return Quantile(times, 0.0); }
double BestRate(const std::vector<double>& rates) { return Quantile(rates, 1.0); }

/// The periodic threshold refresh: the streamed traces are appended to the
/// DFS history once, then the batch cycle (statistics jobs + store load)
/// runs over the same history in every other slot of the run.
struct Refresh {
  double append_s = 0;
  std::vector<double> cycles_s;
  size_t rows = 0;  // statistics rows the last cycle loaded
};

Status AppendStream(core::TrafficManagementSystem* system,
                    const std::vector<BusTrace>& enriched, Refresh* refresh) {
  int64_t start = NowNs();
  Status status = system->dynamic_manager()->AppendHistory(enriched);
  refresh->append_s = Seconds(NowNs() - start);
  return status;
}

Status RunCycle(core::TrafficManagementSystem* system, Refresh* refresh) {
  int64_t start = NowNs();
  auto refreshed = system->dynamic_manager()->RunBatchCycle();
  refresh->cycles_s.push_back(Seconds(NowNs() - start));
  if (!refreshed.ok()) return refreshed.status();
  refresh->rows = *refreshed;
  return Status::OK();
}

/// Fills `history` with the reference statistics of the full history and
/// checks the refreshed row count against it.
void FinishRefresh(core::TrafficManagementSystem* system, const Refresh& refresh,
                   RefThresholds* history, RunOutput* out) {
  out->notes.push_back(ListNote("batch cycles (s):", refresh.cycles_s));
  LoadHistory(system, history);
  out->Check(refresh.rows == history->distinct_keys(),
             "refreshed statistics rows == distinct history keys (" +
                 std::to_string(history->distinct_keys()) + ")");
}

/// Whether another slot starts, `done` slots after the first began at
/// `start_ns`.
bool MoreSlots(const RunArgs& args, int64_t start_ns, int done) {
  return done < kMinSlots || NowNs() - start_ns < int64_t{args.seconds} * 1000000000;
}

void CheckDetections(const std::string& what, const RefResult& reference,
                     std::vector<Detection> program, const RunArgs& args,
                     RunOutput* out) {
  if (args.inject == "drop_detection" && !program.empty()) program.pop_back();
  CompareResult cmp = CompareDetections(reference, program);
  std::ostringstream note;
  note << what << ": " << program.size() << " detections, reference "
       << reference.detections.size() << ", matched " << cmp.matched
       << ", excused ties " << cmp.excused_ties;
  if (!cmp.ok()) note << "; " << cmp.first_problem;
  // A tie is excused only while ties stay rare.
  bool ok = cmp.ok() && cmp.excused_ties * 100 <= reference.detections.size() &&
            !reference.detections.empty();
  out->Check(ok, note.str());
}

/// Peak resident set of this process plus that of its largest worker
/// process. Workers report their own VmHWM, read after exec: a forked
/// child's ru_maxrss starts at the parent's resident set, so RUSAGE_CHILDREN
/// would count this process a second time.
double PeakRssMb(double worker_peak_kb) {
  struct rusage self {};
  getrusage(RUSAGE_SELF, &self);
  return (static_cast<double>(self.ru_maxrss) + worker_peak_kb) / 1024.0;
}

std::string WorkerPeakPath(const std::string& dir, uint32_t worker) {
  return dir + "/worker" + std::to_string(worker) + ".hwm";
}

/// Worker side: writes this process's peak resident set (kB).
void WriteWorkerPeak(const std::string& dir, uint32_t worker) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::ofstream(WorkerPeakPath(dir, worker), std::ios::trunc) << line.substr(6) << '\n';
    return;
  }
}

/// Supervisor side: the largest peak the workers of the last run wrote (kB).
double ReadWorkerPeakKb(const std::string& dir, uint32_t workers) {
  double peak = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    std::ifstream in(WorkerPeakPath(dir, w));
    double kb = 0;
    if (in >> kb) peak = std::max(peak, kb);
  }
  return peak;
}

struct Latency {
  double p50_us = 0, p90_us = 0, p95_us = 0, p99_us = 0, warmup_p99_us = 0,
         lateness_p99_us = 0;
  std::vector<double> steady_us;  // samples after warm-up
  size_t samples = 0;
};

Latency SummarizeLatency(const PhaseFiles& files, const PhaseSpec& spec,
                         const std::unordered_map<int64_t, uint64_t>& index) {
  Latency out;
  std::vector<double> steady, warmup;
  uint64_t warm_end = static_cast<uint64_t>(kWarmupShare *
                                            static_cast<double>(spec.tuples));
  for (const SinkRecord& d : files.detections) {
    auto it = index.find(d.timestamp);
    if (it == index.end()) continue;
    double us = static_cast<double>(d.arrival_ns - files.emit_ns[it->second]) / 1e3;
    (it->second < warm_end ? warmup : steady).push_back(us);
  }
  out.samples = steady.size();
  out.p50_us = Quantile(steady, 0.50);
  out.p90_us = Quantile(steady, 0.90);
  out.p95_us = Quantile(steady, 0.95);
  out.p99_us = Quantile(steady, 0.99);
  out.warmup_p99_us = Quantile(warmup, 0.99);
  out.steady_us = std::move(steady);
  std::vector<double> late;
  double period = 1e9 / spec.rate;
  for (uint64_t i = 0; i < files.emit_ns.size(); ++i) {
    double due = static_cast<double>(files.start_ns) + static_cast<double>(i) * period;
    late.push_back((static_cast<double>(files.emit_ns[i]) - due) / 1e3);
  }
  out.lateness_p99_us = Quantile(late, 0.99);
  return out;
}

/// Mean spout-emission -> Esper-execute-start and Esper-execute-end -> sink
/// waits of a timed phase.
void WaitLedger(const PhaseFiles& files,
                const std::unordered_map<int64_t, uint64_t>& index,
                RunOutput* out) {
  std::vector<double> to_esper, to_sink;
  std::map<std::pair<std::string, int64_t>, int64_t> end_of;
  for (const auto& [component, records] : files.executions) {
    for (const ExecRecord& r : records) {
      auto it = index.find(r.timestamp);
      if (it == index.end()) continue;
      to_esper.push_back(static_cast<double>(r.start_ns - files.emit_ns[it->second]) / 1e3);
      end_of[{component, r.timestamp}] = r.end_ns;
    }
  }
  for (const SinkRecord& d : files.detections) {
    std::string component =
        d.rule.find("_bus_stop_") != std::string::npos ? kEsperStop : kEsperArea;
    auto it = end_of.find({component, d.timestamp});
    if (it != end_of.end()) {
      to_sink.push_back(static_cast<double>(d.arrival_ns - it->second) / 1e3);
    }
  }
  out->per_layer.push_back({"dsps.wait_to_esper_us", Mean(to_esper), "us"});
  out->per_layer.push_back({"dsps.wait_to_sink_us", Mean(to_sink), "us"});
}

std::vector<Detection> ToDetections(const std::vector<SinkRecord>& records) {
  std::vector<Detection> out;
  out.reserve(records.size());
  for (const SinkRecord& r : records) {
    out.push_back({r.rule, r.location, r.timestamp, r.value, r.threshold});
  }
  return out;
}

struct ComponentLoad {
  uint64_t executed = 0;
  double latency_sum_us = 0;
  int tasks = 0;
};

void AddLoadMetrics(const std::string& prefix, const ComponentLoad& load,
                    double wall_s, RunOutput* out) {
  double mean = load.executed ? load.latency_sum_us / static_cast<double>(load.executed) : 0;
  double busy = (wall_s > 0 && load.tasks > 0)
                    ? load.latency_sum_us * 1e-6 / (wall_s * load.tasks)
                    : 0;
  out->per_layer.push_back({"dsps." + prefix + ".exec_us", mean, "us"});
  out->per_layer.push_back({"dsps." + prefix + ".busy_share", busy, "share"});
}

ComponentLoad LocalLoad(insight::dsps::LocalRuntime& runtime,
                        const std::vector<std::string>& components) {
  ComponentLoad load;
  for (const std::string& c : components) {
    auto totals = runtime.metrics()->Totals(c);
    load.executed += totals.executed;
    load.latency_sum_us += static_cast<double>(totals.latency_sum_micros);
    load.tasks += runtime.metrics()->TaskCount(c);
  }
  return load;
}

/// Sums a cluster counter over samples whose labels mention `component`
/// (empty: every sample).
double ClusterCounter(const insight::observability::MetricsSnapshot& snapshot,
                      const std::string& family, const std::string& component) {
  double sum = 0;
  for (const auto& f : snapshot.counters) {
    if (f.name != family) continue;
    for (const auto& s : f.samples) {
      if (component.empty() ||
          s.labels.find("component=\"" + component + "\"") != std::string::npos) {
        sum += s.value;
      }
    }
  }
  return sum;
}

ComponentLoad ClusterLoad(const insight::observability::MetricsSnapshot& snapshot,
                          const std::vector<std::string>& components, int tasks) {
  ComponentLoad load;
  for (const std::string& c : components) {
    load.executed += static_cast<uint64_t>(
        ClusterCounter(snapshot, "insight_tuples_executed_total", c));
    for (const auto& f : snapshot.histograms) {
      if (f.name != "insight_execute_latency_micros") continue;
      for (const auto& s : f.samples) {
        if (s.labels.find("component=\"" + c + "\"") != std::string::npos) {
          load.latency_sum_us += s.sum;
        }
      }
    }
    load.tasks += tasks;
  }
  return load;
}


// ---------------------------------------------------------------------------
// Pre-enriched CEP pipeline (cep_local, cep_dist2, and fig8_local's paced
// phase)
// ---------------------------------------------------------------------------

std::string TracesPath(const std::string& dir) { return dir + "/traces.csv"; }
std::string ThresholdsPath(const std::string& dir) { return dir + "/thresholds.txt"; }
std::string PhasePath(const std::string& dir) { return dir + "/phase.txt"; }

/// Rules of one location kind as (name, EPL).
std::vector<std::pair<std::string, std::string>> KindRules(bool by_stop) {
  std::vector<std::pair<std::string, std::string>> rules;
  for (const core::RuleTemplate& rule : core::Table6Rules(kWindow)) {
    if ((rule.location_field == "bus_stop") != by_stop) continue;
    rules.emplace_back(rule.name, *rule.ToEpl());
  }
  return rules;
}

/// Writes the pipeline's inputs to the run directory: the enriched traces
/// and the Listing-2 thresholds the store holds now.
Status WriteCepInputs(core::TrafficManagementSystem* system,
                      const std::vector<BusTrace>& enriched, const std::string& dir) {
  {
    std::ofstream csv(TracesPath(dir), std::ios::trunc);
    insight::CsvWriter writer(&csv);
    for (const BusTrace& t : enriched) writer.Write(t.ToCsvRow());
  }
  ThresholdRows rows;
  for (const core::RuleTemplate& rule : core::Table6Rules(kWindow)) {
    for (const core::RuleAttribute& attr : rule.attributes) {
      std::string key = rule.AttributeKey(attr.name);
      if (rows.count(key)) continue;
      INSIGHT_ASSIGN_OR_RETURN(rows[key], insight::storage::QueryThresholds(
                                              *system->store(), key, attr.below ? -kS : kS));
    }
  }
  return WriteThresholds(ThresholdsPath(dir), rows);
}

/// Builds the pipeline inputs from the files of the run directory; the
/// supervisor and every worker process call this.
insight::Result<PipelineInputs> LoadCepInputs(const std::string& dir) {
  std::ifstream in(TracesPath(dir));
  if (!in) return Status::Internal("missing " + TracesPath(dir));
  INSIGHT_ASSIGN_OR_RETURN(auto traces, traffic::LoadTracesCsv(&in));
  INSIGHT_ASSIGN_OR_RETURN(ThresholdRows rows, ReadThresholds(ThresholdsPath(dir)));
  auto stop_rows = std::make_shared<ThresholdRows>();
  auto area_rows = std::make_shared<ThresholdRows>();
  for (auto& [key, list] : rows) {
    bool stop = key.size() > 5 && key.compare(key.size() - 5, 5, "_stop") == 0;
    (stop ? *stop_rows : *area_rows)[key] = list;
  }
  PipelineInputs inputs;
  inputs.dir = dir;
  inputs.traces = std::make_shared<const std::vector<BusTrace>>(std::move(traces));
  inputs.esper_stop = MakeEsperConfig(KindRules(true), kCepTasksPerKind, stop_rows);
  inputs.esper_area = MakeEsperConfig(KindRules(false), kCepTasksPerKind, area_rows);
  return inputs;
}

/// Writes the inputs once, then loads them back as the workers will.
insight::Result<PipelineInputs> PrepareCepInputs(core::TrafficManagementSystem* system,
                                                 const std::vector<BusTrace>& enriched,
                                                 const std::string& dir) {
  INSIGHT_RETURN_NOT_OK(WriteCepInputs(system, enriched, dir));
  return LoadCepInputs(dir);
}

constexpr uint32_t kDistWorkers = 2;

insight::dist::DistOptions CepDistOptions(const std::string& dir) {
  insight::dist::DistOptions options;
  options.num_workers = kDistWorkers;
  // Replay and sink on worker 0, both Esper components on worker 1: both
  // edges of the pipeline cross the loopback transport.
  options.placement.worker_of = {
      {"spout", 0}, {"sink", 0}, {kEsperStop, 1}, {kEsperArea, 1}};
  options.runtime.enable_acking = true;
  options.worker_args = {"--perfbench-dir=" + dir};
  return options;
}

insight::dsps::LocalRuntime::Options CepLocalOptions() {
  insight::dsps::LocalRuntime::Options options;
  options.enable_acking = true;
  return options;
}

struct PhaseRun {
  PhaseFiles files;
  double wall_s = 0;  // first emission -> last ack
  ComponentLoad esper, sink;
  double frames_sent = 0, bytes_sent = 0;
  double worker_peak_kb = 0;  // largest worker's peak resident set
};

Status RunCepPhase(const PipelineInputs& inputs, const PhaseSpec& spec,
                   bool distributed, PhaseRun* run) {
  {
    std::ofstream out(PhasePath(inputs.dir), std::ios::trunc);
    out << spec.Serialize();
  }
  INSIGHT_ASSIGN_OR_RETURN(auto topology, BuildPipeline(inputs, spec));
  if (distributed) {
    insight::dist::DistributedRuntime runtime(std::move(topology),
                                              CepDistOptions(inputs.dir));
    INSIGHT_RETURN_NOT_OK(runtime.Start());
    if (runtime.WaitForCompletion(150'000'000) != 0) {
      return Status::Internal("distributed run failed");
    }
    auto cluster = runtime.ClusterMetrics();
    run->esper = ClusterLoad(cluster, {kEsperStop, kEsperArea}, spec.esper_tasks);
    run->sink = ClusterLoad(cluster, {"sink"}, 1);
    run->frames_sent = ClusterCounter(cluster, "insight_net_frames_sent_total", "");
    run->bytes_sent = ClusterCounter(cluster, "insight_net_bytes_sent_total", "");
    // Completion waits until every worker process has exited, so their
    // peak files are written.
    run->worker_peak_kb = ReadWorkerPeakKb(inputs.dir, kDistWorkers);
  } else {
    insight::dsps::LocalRuntime runtime(std::move(topology), CepLocalOptions());
    INSIGHT_RETURN_NOT_OK(runtime.Start());
    runtime.AwaitCompletion();
    run->esper = LocalLoad(runtime, {kEsperStop, kEsperArea});
    run->sink = LocalLoad(runtime, {"sink"});
  }
  INSIGHT_RETURN_NOT_OK(ReadPhaseFiles(inputs.dir, spec, &run->files));
  const PhaseFiles& f = run->files;
  if (!f.emit_ns.empty()) {
    run->wall_s = Seconds(f.last_ack_ns - f.emit_ns.front());
  }
  return Status::OK();
}

/// Trigger timestamp -> emission index of the first `tuples` emissions.
std::unordered_map<int64_t, uint64_t> EmissionIndex(const std::vector<BusTrace>& traces,
                                                    uint64_t tuples) {
  std::unordered_map<int64_t, uint64_t> index;
  for (uint64_t i = 0; i < tuples; ++i) index[EmissionTimestamp(traces, i)] = i;
  return index;
}

/// One paced open-loop repetition at `kCepPacedRate`.
struct Paced {
  PhaseSpec spec;
  PhaseRun run;
  Latency latency;
};

Status RunPaced(const PipelineInputs& inputs, bool distributed, const RunArgs& args,
                int repetition, Paced* paced) {
  paced->spec = {"paced" + std::to_string(repetition), kPacedTuples, kCepPacedRate, true,
                 args.trace, kCepTasksPerKind};
  INSIGHT_RETURN_NOT_OK(RunCepPhase(inputs, paced->spec, distributed, &paced->run));
  paced->latency = SummarizeLatency(paced->run.files, paced->spec,
                                    EmissionIndex(*inputs.traces, paced->spec.tuples));
  return Status::OK();
}

/// Paced repetitions pooled for the latency percentiles: the ones with the
/// lowest p50 (see BestTime). One repetition holds a few hundred
/// detections, too few for a steady p90 on its own.
constexpr size_t kPooledRepetitions = 3;

/// Latency percentiles over the pooled best repetitions; the warm-up tail
/// and the generator lateness are medians over all repetitions.
Latency BestLatency(const std::vector<Paced>& paced, RunOutput* out) {
  auto values = [&paced](double Latency::*field) {
    std::vector<double> v;
    for (const Paced& p : paced) v.push_back(p.latency.*field);
    return v;
  };
  std::vector<const Paced*> order;
  for (const Paced& p : paced) order.push_back(&p);
  std::sort(order.begin(), order.end(), [](const Paced* a, const Paced* b) {
    return a->latency.p50_us < b->latency.p50_us;
  });
  std::vector<double> pool;
  for (size_t i = 0; i < order.size() && i < kPooledRepetitions; ++i) {
    pool.insert(pool.end(), order[i]->latency.steady_us.begin(),
                order[i]->latency.steady_us.end());
  }
  Latency latency;
  latency.samples = pool.size();
  latency.p50_us = Quantile(pool, 0.50);
  latency.p90_us = Quantile(pool, 0.90);
  latency.p95_us = Quantile(pool, 0.95);
  latency.p99_us = Quantile(pool, 0.99);
  latency.warmup_p99_us = Quantile(values(&Latency::warmup_p99_us), 0.5);
  latency.lateness_p99_us = Quantile(values(&Latency::lateness_p99_us), 0.5);
  out->notes.push_back(ListNote("paced repetitions p50 (us):", values(&Latency::p50_us)));
  out->notes.push_back(ListNote("paced repetitions p90 (us):", values(&Latency::p90_us)));
  out->notes.push_back("pooled best repetitions: " + std::to_string(pool.size()) +
                       " detections, p90 " + std::to_string(latency.p90_us) + " us, p99 " +
                       std::to_string(latency.p99_us) + " us");
  return latency;
}

/// Checks one phase of the pipeline against the reference and the
/// delivery properties, and counts its operations.
void CheckCepPhase(const PhaseSpec& phase, const PhaseRun& run,
                   const std::vector<BusTrace>& traces, const RefThresholds& thresholds,
                   const RunArgs& args, RunOutput* out) {
  std::vector<RefTrace> stream;
  stream.reserve(phase.tuples);
  for (uint64_t i = 0; i < phase.tuples; ++i) {
    stream.push_back(ToRefTrace(traces[i % traces.size()], EmissionTimestamp(traces, i)));
  }
  RefResult reference = EvaluateRules(stream, Table6RefRules(kWindow), thresholds, kS);
  CheckDetections(phase.name + " detections", reference,
                  ToDetections(run.files.detections), args, out);
  out->Check(run.files.emitted == phase.tuples && run.files.acks == phase.tuples &&
                 run.files.fails == 0,
             phase.name + ": acked roots == emitted roots (" +
                 std::to_string(run.files.acks) + "), no failed trees");
  out->Check(run.esper.executed == 2 * phase.tuples,
             phase.name + ": each Esper component executed every trace once");
  out->attempted += phase.tuples;
  out->failed += run.files.fails +
                 (phase.tuples - std::min<uint64_t>(phase.tuples, run.files.acks));
}

/// Per-layer metrics of the paced phases: wrapper waits of the first
/// repetition, medians of the warm-up tail and of the generator lateness.
void PacedLedger(const std::vector<Paced>& paced, const Latency& latency,
                 const std::vector<BusTrace>& traces, RunOutput* out) {
  WaitLedger(paced.front().run.files, EmissionIndex(traces, paced.front().spec.tuples), out);
  out->per_layer.push_back({"dsps.warmup_detect_p99_us", latency.warmup_p99_us, "us"});
  out->per_layer.push_back({"dsps.spout_lateness_p99_us", latency.lateness_p99_us, "us"});
}

}  // namespace

bool MaybeRunWorker(int argc, char** argv, int* exit_code) {
  insight::dist::WorkerSpec spec;
  if (!insight::dist::ParseWorkerSpec(argc, argv, &spec)) return false;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--perfbench-dir=", 16) == 0) dir = argv[i] + 16;
  }
  *exit_code = 2;
  std::ifstream in(PhasePath(dir));
  std::stringstream text;
  text << in.rdbuf();
  PhaseSpec phase;
  if (dir.empty() || !PhaseSpec::Parse(text.str(), &phase)) return true;
  auto inputs = LoadCepInputs(dir);
  if (!inputs.ok()) return true;
  auto topology = BuildPipeline(*inputs, phase);
  if (!topology.ok()) return true;
  *exit_code = insight::dist::RunWorker(spec, std::move(*topology),
                                        CepDistOptions(dir));
  WriteWorkerPeak(dir, spec.worker_id);
  return true;
}

int RunCep(const RunArgs& args, bool distributed, RunOutput* out) {
  // ---- set-up: the system's batch bootstrap, then the replay inputs ----
  core::TrafficManagementSystem system(SystemConfig(args.seed, 0));
  Status status = system.Initialize();
  if (!status.ok()) {
    std::fprintf(stderr, "Initialize: %s\n", status.ToString().c_str());
    return 2;
  }
  RefThresholds thresholds;
  size_t history_lines = LoadHistory(&system, &thresholds);
  out->Check(history_lines > 0 && StatisticsRows(&system) == thresholds.distinct_keys(),
             "bootstrap statistics rows == distinct history keys (" +
                 std::to_string(thresholds.distinct_keys()) + ")");

  traffic::TraceGenerator::Options stream_options = SystemConfig(args.seed, 0).generator;
  stream_options.seed += 2;  // another day than bootstrap and fig8 stream
  std::vector<BusTrace> enriched =
      EnrichParallel(traffic::TraceGenerator(stream_options).GenerateAll(kCepDistinctTraces),
                     system.quadtree(), system.bus_stops());
  auto inputs = PrepareCepInputs(&system, enriched, args.dir);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 2;
  }
  const std::vector<BusTrace>& traces = *inputs->traces;

  // The refresh times batch cycles over bootstrap + streamed history.
  Refresh refresh;
  status = AppendStream(&system, enriched, &refresh);
  if (!status.ok()) {
    std::fprintf(stderr, "AppendHistory: %s\n", status.ToString().c_str());
    return 2;
  }

  // ---- slots: full-speed and paced repetitions, batch cycles ----
  std::vector<PhaseSpec> phases;
  std::vector<PhaseRun> runs;
  std::vector<Paced> paced;
  const int64_t slots_start = NowNs();
  for (int r = 0; MoreSlots(args, slots_start, r); ++r) {
    phases.push_back({"full" + std::to_string(r), kCepFullTuples, 0.0, true, args.trace,
                      kCepTasksPerKind});
    runs.emplace_back();
    paced.emplace_back();
    status = RunCepPhase(*inputs, phases.back(), distributed, &runs.back());
    if (status.ok()) status = RunPaced(*inputs, distributed, args, r, &paced.back());
    if (status.ok() && r % 2 == 0) status = RunCycle(&system, &refresh);
    if (!status.ok()) {
      std::fprintf(stderr, "slot %d: %s\n", r, status.ToString().c_str());
      return 2;
    }
  }
  const PhaseRun& full_run = runs.front();
  double setup_s = Seconds(full_run.files.emit_ns.front() - args.start_ns);
  std::vector<double> rates;
  double worker_peak_kb = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    rates.push_back(static_cast<double>(kCepFullTuples) / runs[r].wall_s);
    worker_peak_kb = std::max({worker_peak_kb, runs[r].worker_peak_kb,
                               paced[r].run.worker_peak_kb});
  }
  out->notes.push_back(ListNote("full-speed repetitions (tuples/s):", rates));
  Latency latency = BestLatency(paced, out);
  RefThresholds all_history;
  FinishRefresh(&system, refresh, &all_history, out);

  // ---- checks ----
  for (size_t r = 0; r < runs.size(); ++r) {
    CheckCepPhase(phases[r], runs[r], traces, thresholds, args, out);
    CheckCepPhase(paced[r].spec, paced[r].run, traces, thresholds, args, out);
  }

  out->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"tuples_per_s", BestRate(rates), "tuples/s"},
      {"refresh_s", BestTime(refresh.cycles_s), "s"},
      {"detect_p50_us", latency.p50_us, "us"},
      {"detect_p95_us", latency.p95_us, "us"},
  };
  if (args.trace) {
    out->per_layer.push_back({"mem.peak_rss_mb", PeakRssMb(worker_peak_kb), "MB"});
    LedgerInputs ledger;
    ledger.system = &system;
    ledger.enriched = &traces;
    ledger.generator = stream_options;
    ledger.thresholds = &all_history;
    ledger.history_append_s = refresh.append_s;
    ledger.cycle_s = BestTime(refresh.cycles_s);
    RunLedger(ledger, out);
    AddLoadMetrics("esper", full_run.esper, full_run.wall_s, out);
    AddLoadMetrics("sink", full_run.sink, full_run.wall_s, out);
    PacedLedger(paced, latency, traces, out);
    const double full_tuples = static_cast<double>(kCepFullTuples);
    out->per_layer.push_back({"reliability.acked_per_tuple",
                              static_cast<double>(full_run.files.acks) / full_tuples, "ratio"});
    out->per_layer.push_back({"net.bytes_per_tuple", full_run.bytes_sent / full_tuples, "B"});
    out->per_layer.push_back(
        {"net.frames_per_ktuple", full_run.frames_sent * 1000.0 / full_tuples, "count"});
  }
  return 0;
}

// ---------------------------------------------------------------------------
// fig8_local
// ---------------------------------------------------------------------------

int RunFig8Local(const RunArgs& args, RunOutput* out) {
  core::TrafficManagementSystem::Config config = SystemConfig(args.seed, kFig8TracesPerRun);
  core::TrafficManagementSystem system(config);
  Status status = system.Initialize();
  if (!status.ok()) {
    std::fprintf(stderr, "Initialize: %s\n", status.ToString().c_str());
    return 2;
  }
  double setup_s = Seconds(NowNs() - args.start_ns);
  RefThresholds thresholds;
  size_t history_lines = LoadHistory(&system, &thresholds);
  out->Check(history_lines > 0 && StatisticsRows(&system) == thresholds.distinct_keys(),
             "bootstrap statistics rows == distinct history keys (" +
                 std::to_string(thresholds.distinct_keys()) + ")");

  // Run() has no paced mode and exposes no per-detection timing, so the
  // paced repetitions run this workload's stream, enriched once, through the
  // pre-enriched pipeline of the cep workloads, with the bootstrap
  // thresholds.
  std::vector<BusTrace> enriched = EnrichParallel(
      traffic::TraceGenerator(config.generator).GenerateAll(kFig8TracesPerRun),
      system.quadtree(), system.bus_stops());
  auto inputs = PrepareCepInputs(&system, enriched, args.dir);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 2;
  }
  Refresh refresh;
  status = AppendStream(&system, enriched, &refresh);
  if (!status.ok()) {
    std::fprintf(stderr, "AppendHistory: %s\n", status.ToString().c_str());
    return 2;
  }

  // ---- slots: batch cycle, the system's own Run(), paced repetition ----
  // The first cycle comes before the first Run(), so every Run() holds the
  // thresholds of bootstrap + streamed history.
  std::vector<core::TrafficManagementSystem::RunReport> reports;
  std::vector<double> rates;
  std::vector<Paced> paced;
  const int64_t slots_start = NowNs();
  for (int r = 0; MoreSlots(args, slots_start, r); ++r) {
    status = r % 2 == 0 ? RunCycle(&system, &refresh) : Status::OK();
    if (!status.ok()) {
      std::fprintf(stderr, "slot %d: %s\n", r, status.ToString().c_str());
      return 2;
    }
    auto run = system.Run();
    paced.emplace_back();
    status = run.ok() ? RunPaced(*inputs, false, args, r, &paced.back()) : run.status();
    if (!status.ok()) {
      std::fprintf(stderr, "slot %d: %s\n", r, status.ToString().c_str());
      return 2;
    }
    reports.push_back(*run);
    rates.push_back(static_cast<double>(run->traces_fed) / run->wall_seconds);
  }
  const core::TrafficManagementSystem::RunReport& report = reports.front();
  out->notes.push_back(ListNote("full-speed repetitions (tuples/s):", rates));
  Latency latency = BestLatency(paced, out);
  RefThresholds all_history;
  FinishRefresh(&system, refresh, &all_history, out);

  // ---- checks ----
  {
    std::vector<RefTrace> stream;
    for (const BusTrace& t : enriched) stream.push_back(ToRefTrace(t, t.timestamp));
    auto rows = system.store()->SelectAll(traffic::EventsStorerBolt::kTableName);
    std::vector<Detection> program;
    if (rows.ok()) {
      for (const auto& row : rows->rows) {
        program.push_back({row[0].AsString(), row[2].AsInt(), row[5].AsInt(),
                           row[3].AsDouble(), row[4].AsDouble()});
      }
    }
    // Every Run() replays the same stream into the same table.
    RefResult once = EvaluateRules(stream, Table6RefRules(kWindow), all_history, kS);
    RefResult all = once;
    for (size_t r = 1; r < reports.size(); ++r) {
      all.detections.insert(all.detections.end(), once.detections.begin(),
                            once.detections.end());
    }
    CheckDetections("full detections (all runs)", all, std::move(program), args, out);
  }
  for (const auto& run : reports) {
    const size_t groupings = run.engines_per_grouping.size();
    out->Check(run.esper.executed == groupings * enriched.size(),
               "esper.executed == groupings x (fed - first report per vehicle) (" +
                   std::to_string(run.esper.executed) + ")");
    out->attempted += run.traces_fed;
  }
  for (const Paced& p : paced) {
    CheckCepPhase(p.spec, p.run, *inputs->traces, thresholds, args, out);
  }

  out->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"tuples_per_s", BestRate(rates), "tuples/s"},
      {"refresh_s", BestTime(refresh.cycles_s), "s"},
      {"detect_p50_us", latency.p50_us, "us"},
      {"detect_p95_us", latency.p95_us, "us"},
  };
  if (args.trace) {
    out->per_layer.push_back({"mem.peak_rss_mb", PeakRssMb(0), "MB"});
    LedgerInputs ledger;
    ledger.system = &system;
    ledger.enriched = &enriched;
    ledger.generator = config.generator;
    ledger.thresholds = &all_history;
    ledger.history_append_s = refresh.append_s;
    ledger.cycle_s = BestTime(refresh.cycles_s);
    RunLedger(ledger, out);
    ComponentLoad esper{report.esper.executed,
                        static_cast<double>(report.esper.latency_sum_micros), kFig8Engines};
    AddLoadMetrics("esper", esper, report.wall_seconds, out);
    // Run() exposes only the Esper bolt's totals.
    AddLoadMetrics("sink", ComponentLoad{}, 0, out);
    PacedLedger(paced, latency, *inputs->traces, out);
    out->per_layer.push_back({"reliability.acked_per_tuple", 0.0, "ratio"});
    out->per_layer.push_back({"net.bytes_per_tuple", 0.0, "B"});
    out->per_layer.push_back({"net.frames_per_ktuple", 0.0, "count"});
  }
  return 0;
}

}  // namespace perfbench
