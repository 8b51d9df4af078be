// md_functional: the one workload with real MD math. A seeded grappa
// system of 13,824 atoms on one DGX-H100 node (4 ranks, 2x2x1 DD),
// default RunConfig (shmem halo, drift-triggered pair-list rebuilds),
// 10 steps: a rep takes about a second, so a run medians some twenty
// reps, and every rank rebuilds its lists twice.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace hb {

/// Child entry (`--child md --seed N [--trace]`): one rep in this process.
/// Prints one JSON line: setup_ms, run_ms, total_ms, steps, final_state
/// digest, momentum ratio |sum p| / sum |p|; with trace, the layer rows
/// and the counters and replayed MD estimates as well.
int md_child_main(std::uint64_t seed, bool traced);

/// Final-state digest of one in-process rep (for recording expected.json).
std::string md_final_state(std::uint64_t seed);

}  // namespace hb
