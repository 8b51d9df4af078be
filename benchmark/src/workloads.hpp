// The four workloads, their untraced passes (each in a fresh child
// process) and the end-to-end metrics derived from them. Why each
// workload exists is in benchmark/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace hb {

struct Context {
  Paths paths;
  BenchSpec spec;
  Expected expected;
  std::uint64_t seed = 1;
  /// Measuring budget per mode (untraced, traced): passes are started
  /// while they are predicted to end within it; at least one always runs.
  double seconds = 0.0;
  /// Absolute now_s() time at which any child still running is killed.
  double deadline = 0.0;
};

/// Campaign spec the workload expands (fig5_cold and pdes_w4 run it,
/// serve_mixed draws its requests from it); "" for md_functional.
std::string workload_spec_path(const Paths& paths, const std::string& workload);

struct ServeRequest {
  std::string line;      // one-line halosim-campaign-spec-v1 document
  std::string hash;      // case hash the reply must carry
  std::string ref_hash;  // key into Expected::cases
  int steps = 0;
};

/// serve_mixed's request stream for pass `pass` of a run with `seed`:
/// 5,000 draws from a Zipf(1.1) popularity law over the workload
/// grid's configs, the popularity order itself a seeded shuffle. Every
/// pass draws its own stream because the server's peak RSS depends on
/// the order configs first arrive in (±10% across streams), so a run's
/// medians should cover several orders.
std::vector<ServeRequest> serve_requests(const Paths& paths,
                                         std::uint64_t seed, int pass);

struct WorkloadRun {
  RunResult end_to_end;  // from untraced passes
  RunResult layers;      // from traced passes
};

/// Measure one workload: untraced passes for the end-to-end metrics,
/// traced passes for the per-layer ones (each budgeted ctx.seconds).
WorkloadRun run_workload(const Context& ctx, const std::string& workload,
                         bool end_to_end, bool layers);

/// Recompute benchmark/expected.json: campaign cases simulated in-process
/// (pdes_w4 at workers = 0), and the md_functional final state for this
/// host's ISA.
void record_expected(const Context& ctx);

}  // namespace hb
