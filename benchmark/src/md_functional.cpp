#include "md_functional.hpp"

#include <cmath>
#include <iostream>
#include <optional>
#include <span>
#include <vector>

#include "dd/decomposition.hpp"
#include "halo/workload.hpp"
#include "md/cluster_nonbonded.hpp"
#include "md/simd/isa.hpp"
#include "md/system.hpp"
#include "msg/comm.hpp"
#include "pgas/world.hpp"
#include "runner/case.hpp"
#include "runner/md_runner.hpp"
#include "traced.hpp"
#include "util/hash.hpp"

namespace hb {

namespace {

using namespace hs;

constexpr int kMdSteps = 10;
constexpr int kAtoms = 13824;      // 24^3 on the lattice
constexpr double kDensity = 50.0;  // atoms / nm^3
constexpr double kCutoff = 0.9;    // force cutoff, nm
constexpr double kRlist = 1.0;     // pair-list radius = halo width, nm

struct Rep {
  double setup_ms = 0.0;  // system + DD + initial lists + runner ctor
  double run_ms = 0.0;    // MdRunner::run
  double total_ms = 0.0;
  std::int64_t rebuilds = 0;
  std::string final_state;
  double momentum = 0.0;
  LayerClock clock;  // traced: leaf rows that partition total_ms
  Metrics extra;     // traced: counters and replayed estimates
};

std::string state_digest(const md::System& system) {
  std::string bytes;
  bytes.append(reinterpret_cast<const char*>(system.x.data()),
               system.x.size() * sizeof(md::Vec3));
  bytes.append(reinterpret_cast<const char*>(system.v.data()),
               system.v.size() * sizeof(md::Vec3));
  return util::hex64(util::fnv1a64(bytes));
}

/// |sum m v| / sum |m v|: zero for exact momentum conservation.
double momentum_ratio(const md::System& system, const md::ForceField& ff) {
  double px = 0.0;
  double py = 0.0;
  double pz = 0.0;
  double magnitude = 0.0;
  for (std::size_t i = 0; i < system.v.size(); ++i) {
    const double m = ff.type(system.type[i]).mass;
    const md::Vec3& v = system.v[i];
    px += m * v.x;
    py += m * v.y;
    pz += m * v.z;
    magnitude += m * std::sqrt(static_cast<double>(v.x) * v.x +
                               static_cast<double>(v.y) * v.y +
                               static_cast<double>(v.z) * v.z);
  }
  return std::sqrt(px * px + py * py + pz * pz) / magnitude;
}

/// Replay, on the final state, the two MD costs that MdRunner::run hides
/// from outside timers: one pair-list build for every rank and one
/// nonbonded evaluation per rank. These are estimates of the in-run cost,
/// not measurements of it.
void replay_estimates(const dd::Decomposition& dd, const md::ForceField& ff,
                      Rep& rep) {
  const int ranks = dd.num_ranks();
  double start = now_s();
  const std::vector<dd::RankPairLists> lists = dd::build_pair_lists(dd, kRlist);
  const double rebuild_ms = (now_s() - start) * 1e3 / ranks;

  double cluster_pairs = 0.0;
  const md::NbParamTable params(ff);
  md::NbWorkspace ws;
  const md::simd::KernelIsa isa = md::simd::active_isa();
  const md::Box& box = dd.grid().box();
  double nonbonded_s = 0.0;
  for (int r = 0; r < ranks; ++r) {
    const dd::DomainState& st = dd.states()[static_cast<std::size_t>(r)];
    const dd::RankPairLists& l = lists[static_cast<std::size_t>(r)];
    cluster_pairs += static_cast<double>(l.cluster_local.pair_count() +
                                         l.cluster_nonlocal.pair_count());
    const auto nh = static_cast<std::size_t>(st.n_home);
    std::vector<md::Vec3> f_local(nh);
    std::vector<md::Vec3> f(st.x.size());
    start = now_s();
    md::compute_nonbonded_clusters(
        box, params, l.cluster_local,
        std::span<const md::Vec3>(st.x.data(), nh),
        std::span<const int>(st.type.data(), nh), f_local, ws, isa);
    md::compute_nonbonded_clusters(box, params, l.cluster_nonlocal, st.x,
                                   st.type, f, ws, isa);
    nonbonded_s += now_s() - start;
  }
  const double nonbonded_ms = nonbonded_s * 1e3 / ranks;

  rep.extra["md.list_rebuilds"] = static_cast<double>(rep.rebuilds);
  rep.extra["md.rebuild_ms_per_call"] = rebuild_ms;
  rep.extra["md.nonbonded_ms_per_rank_step"] = nonbonded_ms;
  rep.extra["md.cluster_pairs"] = cluster_pairs;
  rep.extra["md.attributed_rebuild_ms"] =
      static_cast<double>(rep.rebuilds) * rebuild_ms;
  rep.extra["md.attributed_nonbonded_ms"] =
      nonbonded_ms * ranks * kMdSteps;
}

Rep run_rep(std::uint64_t seed, bool traced) {
  Rep rep;
  LayerClock* clock = traced ? &rep.clock : nullptr;
  const double start = now_s();

  md::GrappaSpec spec;
  spec.target_atoms = kAtoms;
  spec.density = kDensity;
  spec.seed = seed;
  std::optional<md::System> system;
  {
    Span s(clock, "md.build_system_ms");
    system.emplace(md::build_grappa(spec));
  }
  const md::ForceField ff(md::grappa_atom_types(), kCutoff);
  std::optional<dd::Decomposition> decomposition;
  {
    Span s(clock, "dd.decompose_ms");
    decomposition.emplace(std::move(*system), dd::GridDims{2, 2, 1}, kRlist);
  }
  std::optional<runner::PreparedFunctional> prepared;
  {
    Span s(clock, "dd.pair_lists_ms");
    prepared.emplace(runner::prepare_functional(*decomposition, kRlist));
  }

  std::optional<sim::Machine> machine;
  std::optional<pgas::World> world;
  std::optional<msg::Comm> comm;
  std::optional<runner::MdRunner> md_runner;
  {
    Span s(clock, "sim.machine_ms");
    machine.emplace(sim::Topology::dgx_h100(1, 4), sim::CostModel::h100_eos());
    if (traced) machine->enable_telemetry();
  }
  {
    Span s(clock, "pgas.world_ms");
    world.emplace(*machine);
  }
  {
    Span s(clock, "runner.ctor_ms.shmem");
    comm.emplace(*machine);
    md_runner.emplace(*machine, *world, *comm,
                      halo::make_functional_workload(*decomposition),
                      runner::RunConfig{}, &ff, &prepared->lists);
  }
  rep.setup_ms = (now_s() - start) * 1e3;

  const double run_start = now_s();
  {
    Span s(clock, "runner.run_ms.shmem");
    md_runner->run(kMdSteps);
  }
  rep.run_ms = (now_s() - run_start) * 1e3;

  {
    Span s(clock, "runner.analyze_ms");
    for (const std::int64_t n : md_runner->list_rebuilds()) rep.rebuilds += n;
    const md::System final_state = decomposition->gather();
    rep.final_state = state_digest(final_state);
    rep.momentum = momentum_ratio(final_state, ff);
  }
  SimCounters counters;
  if (traced) counters.add(*machine, rep.run_ms);
  {
    Span s(clock, "runner.teardown_ms");
    md_runner.reset();
    comm.reset();
    world.reset();
    machine.reset();
    prepared.reset();
  }
  rep.total_ms = (now_s() - start) * 1e3;

  if (traced) {
    counters.put(rep.extra);
    replay_estimates(*decomposition, ff, rep);
  }
  return rep;
}

}  // namespace

int md_child_main(std::uint64_t seed, bool traced) {
  const Rep rep = run_rep(seed, traced);
  std::string out = "{\"setup_ms\":" + num(rep.setup_ms) +
                    ",\"run_ms\":" + num(rep.run_ms) +
                    ",\"total_ms\":" + num(rep.total_ms) +
                    ",\"steps\":" + std::to_string(kMdSteps) +
                    ",\"final_state\":" + quote(rep.final_state) +
                    ",\"momentum\":" + num(rep.momentum);
  if (traced) {
    double attributed = 0.0;
    for (const auto& [row, ms] : rep.clock.ms) attributed += ms;
    out += ",\"unattributed_ms\":" + num(rep.total_ms - attributed) +
           ",\"rows\":" + rows_json(rep.clock.ms) +
           ",\"derived\":" + rows_json(rep.extra);
  }
  std::cout << out << "}\n";
  return 0;
}

std::string md_final_state(std::uint64_t seed) {
  return run_rep(seed, false).final_state;
}

}  // namespace hb
