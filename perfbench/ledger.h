// Per-layer ledger of the traced run: times calls into each module's public
// functions from outside the program, on the workload's own inputs.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <vector>

#include "bench.h"
#include "core/system.h"
#include "pipeline.h"
#include "reference.h"

namespace perfbench {

struct LedgerInputs {
  insight::core::TrafficManagementSystem* system = nullptr;
  /// The workload's enriched stream (as the Esper engines see it).
  const std::vector<insight::traffic::BusTrace>* enriched = nullptr;
  insight::traffic::TraceGenerator::Options generator;
  /// Reference statistics matching the thresholds currently in the store.
  const RefThresholds* thresholds = nullptr;
  double history_append_s = 0;
  double cycle_s = 0;
};

/// Appends the module-level metrics (geo, traffic, core, cep, storage,
/// batch, net) to out->per_layer; checks the sequential single-engine run
/// against the reference.
void RunLedger(const LedgerInputs& in, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
