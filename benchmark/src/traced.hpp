// The traced pass: per-layer wall time measured from outside the
// simulator, by timing calls into each module's public functions, plus
// engine / fabric / PGAS totals from the machine's telemetry registry
// (enabled only here, never in a measured end-to-end pass).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "sim/machine.hpp"

namespace hb {

/// Totals read off machines after traced runs, summed over cases.
struct SimCounters {
  double events = 0.0;
  double run_ns = 0.0;  // MdRunner::run wall time
  double trace_records = 0.0;
  double fabric_bytes = 0.0;
  double fabric_messages = 0.0;
  double pgas_calls = 0.0;
  double windows = 0.0;
  double window_ns_sum = 0.0;
  double window_count = 0.0;
  double busy_ns = 0.0;     // parallel-engine lane run time (host clock)
  double barrier_ns = 0.0;  // parallel-engine lane barrier wait

  void add(hs::sim::Machine& machine, double run_ms);
  /// The sim.* / fabric.* / pgas.* per-layer rows.
  void put(Metrics& rows) const;
};

/// Child entry (`--child traced --workload W`): one traced pass of a
/// campaign or serve workload. Prints one JSON line: the layer rows, the
/// traced total, and a reference-hash -> metric-digest map of every case
/// it simulated.
int traced_child_main(const Paths& paths, const std::string& workload,
                      std::uint64_t seed);

}  // namespace hb
