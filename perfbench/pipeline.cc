#include "pipeline.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/retrieval.h"

namespace perfbench {

using insight::Result;
using insight::Status;
using insight::dsps::Bolt;
using insight::dsps::Collector;
using insight::dsps::Fields;
using insight::dsps::Spout;
using insight::dsps::TaskContext;
using insight::dsps::TopologyBuilder;
using insight::dsps::Tuple;
using insight::dsps::Value;
using insight::traffic::BusTrace;

std::string PhaseSpec::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << name << ' ' << tuples << ' ' << rate << ' ' << acking << ' '
      << timed_esper << ' ' << esper_tasks << '\n';
  return out.str();
}

bool PhaseSpec::Parse(const std::string& text, PhaseSpec* out) {
  std::istringstream in(text);
  return static_cast<bool>(in >> out->name >> out->tuples >> out->rate >>
                           out->acking >> out->timed_esper >> out->esper_tasks);
}

RefTrace ToRefTrace(const BusTrace& t, int64_t timestamp) {
  RefTrace r;
  r.timestamp = timestamp;
  r.hour = t.hour;
  r.day = t.date_type;
  r.area = t.area_leaf;
  r.stop = t.bus_stop;
  r.attr[kDelay] = t.delay_seconds;
  r.attr[kActualDelay] = t.actual_delay;
  r.attr[kSpeed] = t.speed_kmh;
  r.attr[kCongestion] = t.congestion ? 1.0 : 0.0;
  return r;
}

int64_t EmissionTimestamp(const std::vector<BusTrace>& traces, uint64_t i) {
  uint64_t round = i / traces.size();
  return traces[i % traces.size()].timestamp +
         static_cast<int64_t>(round) * kRoundOffsetMicros;
}

namespace {

std::string SpoutPath(const std::string& dir, const PhaseSpec& spec) {
  return dir + "/" + spec.name + ".spout";
}
std::string SinkPath(const std::string& dir, const PhaseSpec& spec) {
  return dir + "/" + spec.name + ".sink";
}
std::string ExecPath(const std::string& dir, const PhaseSpec& spec,
                     const std::string& component, int task) {
  return dir + "/" + spec.name + "." + component + "." + std::to_string(task) +
         ".exec";
}

/// Replays `spec.tuples` emissions over the traces, round after round. Full
/// speed emits one trace per call; paced mode is an open loop that emits
/// trace i once its slot start + i / rate is due and otherwise returns
/// without emitting (NextTuple never blocks).
class ReplaySpout : public Spout {
 public:
  ReplaySpout(std::shared_ptr<const std::vector<BusTrace>> traces,
              PhaseSpec spec, std::string path)
      : traces_(std::move(traces)),
        spec_(std::move(spec)),
        path_(std::move(path)),
        period_ns_(spec_.rate > 0 ? 1e9 / spec_.rate : 0.0),
        emit_ns_(spec_.tuples, 0) {}

  bool NextTuple(Collector* collector) override {
    if (next_ >= spec_.tuples) return false;
    int64_t now = NowNs();
    if (start_ns_ == 0) start_ns_ = now;
    if (period_ns_ > 0 &&
        now < start_ns_ + static_cast<int64_t>(static_cast<double>(next_) *
                                               period_ns_)) {
      // Not due yet: give the core to the pipeline's threads instead of
      // spinning on the runtime's locks.
      std::this_thread::yield();
      return true;
    }
    const BusTrace& trace = (*traces_)[next_ % traces_->size()];
    std::vector<Value> values = insight::traffic::TraceToEnrichedValues(trace);
    values[0] = Value(EmissionTimestamp(*traces_, next_));
    emit_ns_[next_] = now;
    if (spec_.acking) {
      collector->EmitRooted(next_ + 1, std::move(values));
    } else {
      collector->Emit(std::move(values));
    }
    ++next_;
    return next_ < spec_.tuples;
  }

  void Ack(uint64_t /*message_id*/) override {
    ++acks_;
    last_ack_ns_ = NowNs();
  }
  void Fail(uint64_t /*message_id*/) override { ++fails_; }

  void Close() override {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) return;
    int64_t header[5] = {static_cast<int64_t>(next_),
                         static_cast<int64_t>(acks_),
                         static_cast<int64_t>(fails_), start_ns_, last_ack_ns_};
    std::fwrite(header, sizeof(header), 1, f);
    std::fwrite(emit_ns_.data(), sizeof(int64_t), emit_ns_.size(), f);
    std::fclose(f);
  }

 private:
  std::shared_ptr<const std::vector<BusTrace>> traces_;
  PhaseSpec spec_;
  std::string path_;
  double period_ns_;
  std::vector<int64_t> emit_ns_;
  uint64_t next_ = 0;
  uint64_t acks_ = 0;
  uint64_t fails_ = 0;
  int64_t start_ns_ = 0;
  int64_t last_ack_ns_ = 0;
};

/// Records every detection with its arrival time.
class TimingSink : public Bolt {
 public:
  explicit TimingSink(std::string path) : path_(std::move(path)) {}

  void Execute(const Tuple& input, Collector* /*collector*/) override {
    int64_t now = NowNs();
    records_.push_back({input.Get(0).AsString(), input.Get(2).AsInt(),
                        input.Get(5).AsInt(), input.Get(3).AsDouble(),
                        input.Get(4).AsDouble(), now});
  }

  void Cleanup() override {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return;
    for (const SinkRecord& r : records_) {
      std::fprintf(f, "%s %lld %lld %.17g %.17g %lld\n", r.rule.c_str(),
                   static_cast<long long>(r.location),
                   static_cast<long long>(r.timestamp), r.value, r.threshold,
                   static_cast<long long>(r.arrival_ns));
    }
    std::fclose(f);
  }

 private:
  std::string path_;
  std::vector<SinkRecord> records_;
};

/// Times each call into the wrapped bolt (traced runs only). Forwards the
/// batch entry point unchanged, so the runtime picks the same execution
/// path it would pick for the bare bolt.
class TimedBolt : public Bolt {
 public:
  TimedBolt(std::unique_ptr<Bolt> inner, std::string dir, PhaseSpec spec)
      : inner_(std::move(inner)), dir_(std::move(dir)), spec_(std::move(spec)) {}

  void Prepare(const TaskContext& context) override {
    component_ = context.component;
    task_ = context.task_index;
    inner_->Prepare(context);
  }
  void Execute(const Tuple& input, Collector* collector) override {
    int64_t start = NowNs();
    inner_->Execute(input, collector);
    records_.push_back({input.Get(0).AsInt(), start, NowNs()});
  }
  bool SupportsExecuteBatch() const override {
    return inner_->SupportsExecuteBatch();
  }
  void ExecuteBatch(const Tuple* inputs, size_t count,
                    Collector* collector) override {
    int64_t start = NowNs();
    inner_->ExecuteBatch(inputs, count, collector);
    int64_t end = NowNs();
    for (size_t i = 0; i < count; ++i) {
      records_.push_back({inputs[i].Get(0).AsInt(), start, end});
    }
  }
  void Cleanup() override {
    inner_->Cleanup();
    std::FILE* f =
        std::fopen(ExecPath(dir_, spec_, component_, task_).c_str(), "wb");
    if (f == nullptr) return;
    std::fwrite(records_.data(), sizeof(ExecRecord), records_.size(), f);
    std::fclose(f);
  }

 private:
  std::unique_ptr<Bolt> inner_;
  std::string dir_;
  PhaseSpec spec_;
  std::string component_;
  int task_ = 0;
  std::vector<ExecRecord> records_;
};

insight::dsps::BoltFactory EsperFactory(
    std::shared_ptr<const insight::traffic::EsperBoltConfig> config,
    const std::string& dir, const PhaseSpec& spec) {
  return [config, dir, spec]() -> std::unique_ptr<Bolt> {
    auto bolt = std::make_unique<insight::traffic::EsperBolt>(config);
    if (!spec.timed_esper) return bolt;
    return std::make_unique<TimedBolt>(std::move(bolt), dir, spec);
  };
}

}  // namespace

Result<insight::dsps::Topology> BuildPipeline(const PipelineInputs& in,
                                              const PhaseSpec& spec) {
  namespace traffic = insight::traffic;
  TopologyBuilder builder;
  auto traces = in.traces;
  std::string spout_path = SpoutPath(in.dir, spec);
  builder.SetSpout(
      "spout",
      [traces, spec, spout_path] {
        return std::make_unique<ReplaySpout>(traces, spec, spout_path);
      },
      traffic::EnrichedFields({}));
  builder
      .SetBolt(kEsperStop, EsperFactory(in.esper_stop, in.dir, spec),
               traffic::DetectionFields(), spec.esper_tasks, spec.esper_tasks)
      .FieldsGrouping("spout", {"bus_stop"});
  builder
      .SetBolt(kEsperArea, EsperFactory(in.esper_area, in.dir, spec),
               traffic::DetectionFields(), spec.esper_tasks, spec.esper_tasks)
      .FieldsGrouping("spout", {"area_leaf"});
  std::string sink_path = SinkPath(in.dir, spec);
  builder
      .SetBolt("sink", [sink_path] { return std::make_unique<TimingSink>(sink_path); },
               Fields({}))
      .GlobalGrouping(kEsperStop)
      .GlobalGrouping(kEsperArea);
  return builder.Build();
}

Status ReadPhaseFiles(const std::string& dir, const PhaseSpec& spec,
                      PhaseFiles* out) {
  {
    std::FILE* f = std::fopen(SpoutPath(dir, spec).c_str(), "rb");
    if (f == nullptr) return Status::Internal("no spout output for " + spec.name);
    int64_t header[5] = {0, 0, 0, 0, 0};
    bool ok = std::fread(header, sizeof(header), 1, f) == 1;
    out->emit_ns.assign(spec.tuples, 0);
    ok = ok && std::fread(out->emit_ns.data(), sizeof(int64_t), spec.tuples,
                          f) == spec.tuples;
    std::fclose(f);
    if (!ok) return Status::Internal("truncated spout output");
    out->emitted = static_cast<uint64_t>(header[0]);
    out->acks = static_cast<uint64_t>(header[1]);
    out->fails = static_cast<uint64_t>(header[2]);
    out->start_ns = header[3];
    out->last_ack_ns = header[4];
  }
  {
    std::ifstream in(SinkPath(dir, spec));
    if (!in) return Status::Internal("no sink output for " + spec.name);
    SinkRecord r;
    long long location = 0, timestamp = 0, arrival = 0;
    while (in >> r.rule >> location >> timestamp >> r.value >> r.threshold >>
           arrival) {
      r.location = location;
      r.timestamp = timestamp;
      r.arrival_ns = arrival;
      out->detections.push_back(r);
    }
  }
  if (spec.timed_esper) {
    for (const std::string& component : {kEsperStop, kEsperArea}) {
      for (int task = 0;; ++task) {
        std::FILE* f =
            std::fopen(ExecPath(dir, spec, component, task).c_str(), "rb");
        if (f == nullptr) break;
        std::vector<ExecRecord>& records = out->executions[component];
        ExecRecord r;
        while (std::fread(&r, sizeof(r), 1, f) == 1) records.push_back(r);
        std::fclose(f);
      }
    }
  }
  return Status::OK();
}

Status WriteThresholds(const std::string& path, const ThresholdRows& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  for (const auto& [key, list] : rows) {
    for (const insight::storage::ThresholdRow& row : list) {
      std::fprintf(f, "%s %lld %lld %s %.17g\n", key.c_str(),
                   static_cast<long long>(row.location),
                   static_cast<long long>(row.hour), row.date_type.c_str(),
                   row.threshold);
    }
  }
  std::fclose(f);
  return Status::OK();
}

Result<ThresholdRows> ReadThresholds(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::Internal("cannot read " + path);
  ThresholdRows rows;
  std::string key;
  insight::storage::ThresholdRow row;
  long long location = 0, hour = 0;
  while (in >> key >> location >> hour >> row.date_type >> row.threshold) {
    row.location = location;
    row.hour = hour;
    rows[key].push_back(row);
  }
  return rows;
}

std::shared_ptr<const insight::traffic::EsperBoltConfig> MakeEsperConfig(
    const std::vector<std::pair<std::string, std::string>>& rules, int tasks,
    std::shared_ptr<const ThresholdRows> rows) {
  auto config = std::make_shared<insight::traffic::EsperBoltConfig>();
  config->rules_per_task.assign(static_cast<size_t>(tasks), rules);
  config->preload = [rows](insight::cep::Engine* engine, int /*task*/) {
    for (const auto& [key, list] : *rows) {
      for (const insight::storage::ThresholdRow& row : list) {
        (void)insight::core::SendThresholdEvent(engine, key, row);
      }
    }
  };
  return config;
}

}  // namespace perfbench
