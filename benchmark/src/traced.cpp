#include "traced.hpp"

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "msg/comm.hpp"
#include "pgas/world.hpp"
#include "runner/case.hpp"
#include "runner/critical_path.hpp"
#include "runner/md_runner.hpp"
#include "runner/timing.hpp"
#include "sweep/cache.hpp"
#include "sweep/output.hpp"
#include "sweep/prepared.hpp"
#include "sweep/runner.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"

namespace hb {

namespace {

using namespace hs;
namespace json = util::json;

/// The case document sweep::simulate_case_document renders, from the
/// replica's results: same metric keys, same text.
std::string render_case_document(const sweep::CaseConfig& config,
                                  const runner::CaseSpec& spec,
                                  const dd::GridDims& grid,
                                  const runner::PerfReport& perf,
                                  const runner::DeviceTimingReport& timing,
                                  const runner::TraceAggregate& agg,
                                  const runner::CriticalPathReport& crit) {
  std::map<std::string, double> metrics;
  metrics["gpus"] = static_cast<double>(spec.topology.device_count());
  metrics["dd_x"] = grid.nx;
  metrics["dd_y"] = grid.ny;
  metrics["dd_z"] = grid.nz;
  metrics["dd_dim"] = grid.dimensionality();
  metrics["ns_per_day"] = perf.ns_per_day;
  metrics["ms_per_step"] = perf.ms_per_step;
  metrics["measured_steps"] = perf.measured_steps;
  metrics["local_us"] = timing.local_us;
  metrics["nonlocal_us"] = timing.nonlocal_us;
  metrics["nonoverlap_us"] = timing.nonoverlap_us;
  metrics["step_us"] = timing.step_us;
  metrics["other_us"] = timing.other_us;
  metrics["exchange_mean_us"] = agg.exchange_us.mean();
  metrics["exchange_p50_us"] = agg.exchange_percentile(50.0);
  metrics["exchange_p90_us"] = agg.exchange_percentile(90.0);
  metrics["exchange_p99_us"] = agg.exchange_percentile(99.0);
  metrics["exchange_max_us"] = agg.exchange_us.max();
  metrics["exchange_count"] = static_cast<double>(agg.exchange_us.count());
  metrics["crit_window_us"] = crit.window_mean_us();
  for (int c = 0; c < runner::kPathCategoryCount; ++c) {
    const auto cat = static_cast<runner::PathCategory>(c);
    metrics["crit_" + std::string(runner::to_string(cat)) + "_us"] =
        crit.category_mean_us(cat);
  }
  std::string out = "{\"schema\":\"";
  out += util::metrics::kSchema;
  out += "\",\"cases\":{\n  \"";
  out += sweep::case_hash_hex(config);
  out += "\":{";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    if (!std::isfinite(value)) continue;
    if (!first) out += ",";
    first = false;
    out += quote(key);
    out += ":";
    out += json::format_number(value);
  }
  out += "}\n},\n\"config\":";
  out += sweep::canonical_json(config);
  out += "}\n";
  return out;
}

/// One case through a replica of sweep::simulate_case_document and
/// runner::execute_case (warm prepared state and arena scratch, as the
/// sweep pool runs it), each step timed into its layer row, with machine
/// telemetry on. Returns the case document.
std::string simulate_replica(const sweep::CaseConfig& config,
                             sweep::PreparedStateCache& prepared,
                             runner::CaseScratch& scratch, LayerClock& clock,
                             SimCounters& counters) {
  runner::CaseSpec spec;
  std::shared_ptr<const runner::PreparedCase> setup;
  {
    Span s(&clock, "runner.prepare_ms");
    spec = sweep::to_case_spec(config);
    setup = prepared.get(config);
  }
  std::optional<sim::Machine> machine;
  std::optional<pgas::World> world;
  std::optional<msg::Comm> comm;
  std::optional<runner::MdRunner> md_runner;
  {
    Span s(&clock, "sim.machine_ms");
    sim::MachineOptions options;
    options.workers = spec.workers;
    if (spec.workers > 0 && spec.config.transport == halo::Transport::Mpi) {
      options.workers = 0;  // as execute_case: MPI runs on the classic engine
    }
    machine.emplace(spec.topology, spec.cost_model, options);
    machine->trace().set_enabled(true);
    machine->enable_telemetry();
  }
  {
    Span s(&clock, "pgas.world_ms");
    world.emplace(*machine, 64u << 20, &scratch.arenas);
  }
  {
    Span s(&clock, "runner.ctor_ms." + config.transport);
    comm.emplace(*machine);
    md_runner.emplace(*machine, *world, *comm, setup->workload, spec.config);
  }
  const double run_start = now_s();
  {
    Span s(&clock, "runner.run_ms." + config.transport);
    md_runner->run(spec.steps);
  }
  const double run_ms = (now_s() - run_start) * 1e3;
  runner::PerfReport perf;
  runner::DeviceTimingReport timing;
  runner::TraceAggregate agg;
  {
    Span s(&clock, "runner.analyze_ms");
    perf = md_runner->perf(spec.warmup);
    timing = runner::analyze_device_timing(machine->trace(),
                                           md_runner->step_end_times(),
                                           spec.topology.device_count(),
                                           spec.warmup);
    agg = runner::aggregate_trace(machine->trace(), spec.warmup);
  }
  runner::CriticalPathReport crit;
  {
    Span s(&clock, "runner.critical_path_ms");
    crit = runner::compute_critical_path(machine->trace(), spec.warmup);
  }
  std::string document;
  {
    Span s(&clock, "runner.analyze_ms");
    counters.add(*machine, run_ms);
    document = render_case_document(config, spec, setup->dims, perf, timing,
                                    agg, crit);
  }
  {
    Span s(&clock, "runner.teardown_ms");
    md_runner.reset();
    comm.reset();
    world.reset();
    machine.reset();
  }
  return document;
}

/// Expand a spec into an unresolved result: configs, labels, hashes.
sweep::CampaignResult expand_and_hash(std::string_view spec_text,
                                      LayerClock& clock) {
  sweep::Campaign campaign;
  std::vector<std::string> labels;
  {
    Span s(&clock, "sweep.expand_ms");
    campaign = sweep::parse_campaign_text(spec_text);
    labels = sweep::case_labels(campaign.cases);
  }
  sweep::CampaignResult result;
  result.name = campaign.name;
  result.cases.resize(campaign.cases.size());
  for (std::size_t i = 0; i < campaign.cases.size(); ++i) {
    sweep::CaseOutcome& outcome = result.cases[i];
    outcome.config = campaign.cases[i];
    outcome.label = labels[i];
    Span s(&clock, "sweep.hash_ms");
    outcome.hash = sweep::case_hash_hex(outcome.config);
  }
  return result;
}

/// Parse each stored case document back into metrics (as
/// sweep::run_campaign does) and write the campaign document.
void render(sweep::CampaignResult& result, std::ostream& os, bool pretty,
            LayerClock& clock) {
  Span s(&clock, "sweep.render_ms");
  for (sweep::CaseOutcome& outcome : result.cases) {
    const json::Value doc = json::parse(outcome.document);
    outcome.metrics.clear();
    for (const auto& [key, value] :
         doc.at("cases").as_object().begin()->second.as_object()) {
      if (value.is_number()) outcome.metrics.emplace_back(key, value.as_number());
    }
  }
  sweep::write_campaign_json(os, result, pretty);
}

/// Probe the cache for one outcome, timing the load as a hit or a miss.
bool load(const sweep::ResultCache& cache, sweep::CaseOutcome& outcome,
          LayerClock& clock) {
  const double start = now_s();
  std::optional<std::string> document = cache.load(outcome.hash);
  clock.ms[document ? "sweep.load_hit_ms" : "sweep.load_miss_ms"] +=
      (now_s() - start) * 1e3;
  if (!document) return false;
  outcome.hit = true;
  outcome.document = std::move(*document);
  return true;
}

struct TracedRun {
  LayerClock clock;     // leaf rows
  Metrics derived;      // parents, counts, ratios
  SimCounters counters;
  double total_ms = 0.0;
  double simulate_ms = 0.0;
  int hits = 0;
  int misses = 0;
  std::map<std::string, std::string> cases;  // reference hash -> digest
  std::vector<std::pair<std::string, std::string>> simulated;  // ref, doc

  /// Simulate a miss and store it, as the sweep pool does.
  void simulate(sweep::CaseOutcome& outcome, const sweep::ResultCache& cache,
                sweep::PreparedStateCache& prepared,
                runner::CaseScratch& scratch) {
    const double start = now_s();
    outcome.document =
        simulate_replica(outcome.config, prepared, scratch, clock, counters);
    simulate_ms += (now_s() - start) * 1e3;
    {
      Span s(&clock, "sweep.store_ms");
      cache.store(outcome.hash, outcome.document);
    }
    simulated.emplace_back(reference_hash(outcome.config), outcome.document);
    ++misses;
  }
};

/// fig5_cold / pdes_w4: halo_sweep <spec> --shards=1 [--cache-dir=<empty>]
void campaign_traced(const Paths& paths, const std::string& workload,
                     TracedRun& t) {
  const std::string tmp = make_temp_dir(paths.tmp);
  const std::string spec_text = read_file(workload_spec_path(paths, workload));
  const double start = now_s();
  sweep::CampaignResult result = expand_and_hash(spec_text, t.clock);
  const sweep::ResultCache cache(workload == "fig5_cold" ? tmp + "/cache" : "");
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < result.cases.size(); ++i) {
    if (load(cache, result.cases[i], t.clock)) {
      ++t.hits;
    } else {
      misses.push_back(i);
    }
  }
  sweep::PreparedStateCache prepared;
  runner::CaseScratch scratch;
  for (const std::size_t i : misses) {
    t.simulate(result.cases[i], cache, prepared, scratch);
  }
  std::ofstream out(tmp + "/out.json");
  render(result, out, /*pretty=*/true, t.clock);
  t.total_ms = (now_s() - start) * 1e3;
  t.derived["sweep.prepared_hits"] = static_cast<double>(prepared.hits());
  remove_tree(tmp);
}

/// serve_mixed: the halo_sweep --serve loop over the seeded request
/// stream, in-process (memoized cache, session-lifetime warm state).
void serve_traced(const Paths& paths, std::uint64_t seed, TracedRun& t) {
  const std::vector<ServeRequest> requests = serve_requests(paths, seed, 0);
  sweep::ResultCache cache("");
  cache.set_memoize(true);
  sweep::PreparedStateCache prepared;
  runner::CaseScratch scratch;
  std::ostringstream replies;
  const double start = now_s();
  for (const ServeRequest& req : requests) {
    sweep::CampaignResult result = expand_and_hash(req.line, t.clock);
    for (sweep::CaseOutcome& outcome : result.cases) {
      if (load(cache, outcome, t.clock)) {
        ++t.hits;
      } else {
        t.simulate(outcome, cache, prepared, scratch);
      }
    }
    render(result, replies, /*pretty=*/false, t.clock);
  }
  t.total_ms = (now_s() - start) * 1e3;
  t.derived["sweep.prepared_hits"] = static_cast<double>(prepared.hits());
}

}  // namespace

void SimCounters::add(sim::Machine& machine, double run_ms) {
  events += static_cast<double>(machine.events_processed());
  run_ns += run_ms * 1e6;
  trace_records += static_cast<double>(machine.trace().records().size());
  for (const util::telemetry::Metric& m : machine.telemetry().metrics()) {
    const std::string& n = m.name;
    if (n.starts_with("fabric.") && n.ends_with(".bytes")) {
      fabric_bytes += m.total();
    } else if (n.starts_with("fabric.") && n.ends_with(".transfers")) {
      fabric_messages += m.total();
    } else if (n.starts_with("pgas.") && n.ends_with(".calls")) {
      pgas_calls += m.total();
    } else if (n == "pdes.windows") {
      windows += m.total();
    } else if (n == "pdes.window_width_ns") {
      window_ns_sum += m.sum;
      window_count += static_cast<double>(m.count);
    } else if (n.starts_with("pdes.lane") && n.ends_with(".busy_wall_ns")) {
      busy_ns += m.total();
    } else if (n.starts_with("pdes.lane") && n.ends_with(".barrier_wall_ns")) {
      barrier_ns += m.total();
    }
  }
}

void SimCounters::put(Metrics& rows) const {
  rows["sim.events"] = events;
  rows["sim.run_ns_per_event"] = events > 0.0 ? run_ns / events : 0.0;
  rows["sim.trace_records"] = trace_records;
  rows["fabric.bytes"] = fabric_bytes;
  rows["fabric.messages"] = fabric_messages;
  rows["pgas.calls"] = pgas_calls;
  rows["sim.parallel.windows"] = windows;
  rows["sim.parallel.mean_window_ns"] =
      window_count > 0.0 ? window_ns_sum / window_count : 0.0;
  rows["sim.parallel.barrier_share"] =
      busy_ns + barrier_ns > 0.0 ? barrier_ns / (busy_ns + barrier_ns) : 0.0;
}

int traced_child_main(const Paths& paths, const std::string& workload,
                      std::uint64_t seed) {
  TracedRun t;
  if (workload == "fig5_cold" || workload == "pdes_w4") {
    campaign_traced(paths, workload, t);
  } else if (workload == "serve_mixed") {
    serve_traced(paths, seed, t);
  } else {
    throw std::invalid_argument("no traced campaign pass for " + workload);
  }
  for (const auto& [ref, document] : t.simulated) {
    t.cases[ref] = case_document_digest(document);
  }
  double attributed = 0.0;
  for (const auto& [row, ms] : t.clock.ms) attributed += ms;
  t.counters.put(t.derived);
  t.derived["sweep.simulate_ms"] = t.simulate_ms;
  t.derived["sweep.hits"] = t.hits;
  t.derived["sweep.misses"] = t.misses;
  t.derived["sweep.hit_ratio"] =
      t.hits + t.misses > 0 ? static_cast<double>(t.hits) / (t.hits + t.misses)
                            : 0.0;
  std::cout << "{\"total_ms\":" << num(t.total_ms)
            << ",\"unattributed_ms\":" << num(t.total_ms - attributed)
            << ",\"rows\":" << rows_json(t.clock.ms)
            << ",\"derived\":" << rows_json(t.derived)
            << ",\"cases\":" << rows_json(t.cases) << "}\n";
  return 0;
}

}  // namespace hb
