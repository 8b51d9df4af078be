#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "host_speed.hpp"
#include "md/simd/isa.hpp"
#include "md_functional.hpp"
#include "process.hpp"
#include "sweep/runner.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace hb {

namespace {

namespace json = hs::util::json;
using hs::sweep::CaseConfig;

constexpr int kServeRequests = 5000;
constexpr double kSetupProbeSeconds = 0.1;
constexpr double kZipfExponent = 1.1;
constexpr double kMomentumLimit = 1e-6;
/// A traced pass must attribute all but this share of its wall time.
constexpr double kUnattributedLimit = 0.05;
constexpr std::size_t kMaxErrors = 8;

/// One untraced pass: one child process.
struct Pass {
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> unit_ms;  // per case, request or rep
  double step_ms = 0.0;         // host ms per simulated MD step
  /// Host reference kernel time while the pass ran (host_speed.hpp): the
  /// median of the sampler's runs beside it, or for pdes_w4 the mean of
  /// the samples just before and after it; 0 when not sampled (traced).
  double host_ref_ms = 0.0;
  int attempted = 0;
  int failed = 0;
  /// Campaign output, md final state, or serve reply stream.
  std::string digest;
  std::vector<std::string> errors;
};

void note_error(std::vector<std::string>& errors, const std::string& msg) {
  if (errors.size() < kMaxErrors) errors.push_back(msg);
}

std::vector<CaseConfig> expand(const std::string& spec_path) {
  return hs::sweep::parse_campaign_text(read_file(spec_path)).cases;
}

/// The JSON object of the last non-empty stdout line of a child.
json::Value last_line_json(const std::string& out) {
  const std::size_t end = out.find_last_not_of('\n');
  if (end == std::string::npos) throw std::runtime_error("no output");
  const std::size_t newline = out.rfind('\n', end);
  const std::size_t begin = newline == std::string::npos ? 0 : newline + 1;
  return json::parse(out.substr(begin, end + 1 - begin));
}

// ---- campaign workloads (fig5_cold, pdes_w4) --------------------------

Pass campaign_pass(const Context& ctx, const std::string& workload,
                   const std::vector<CaseConfig>& cases) {
  Pass pass;
  pass.attempted = static_cast<int>(cases.size());
  const std::string tmp = make_temp_dir(ctx.paths.tmp);
  // fig5_cold writes every case into an empty cache (the write path);
  // pdes_w4 is about the engine and skips the cache entirely.
  const ChildResult child = run_child(
      {ctx.paths.sweep_exe, workload_spec_path(ctx.paths, workload),
       "--shards=1", "--out=" + tmp + "/out.json",
       workload == "fig5_cold" ? "--cache-dir=" + tmp + "/cache"
                               : std::string("--no-cache")},
      ctx.deadline);
  pass.wall_s = child.wall_s;
  pass.peak_rss_mb = child.peak_rss_mb;
  if (!child.ok()) {
    pass.failed = pass.attempted;
    note_error(pass.errors, "halo_sweep: " + child.why());
    remove_tree(tmp);
    return pass;
  }

  // Per-case latency from the progress lines:
  //   halo_sweep: [i/N] <hash16> miss <wall>ms <label>
  std::istringstream progress(child.err);
  std::string line;
  while (std::getline(progress, line)) {
    if (!line.starts_with("halo_sweep: [")) continue;
    std::istringstream fields(line);
    std::string tag, index, hash, status, unit;
    double ms = 0.0;
    if (fields >> tag >> index >> hash >> status >> ms >> unit && unit == "ms") {
      pass.unit_ms.push_back(ms);
    }
  }

  std::map<std::string, std::string> digest_by_hash;
  try {
    const json::Value doc = json::parse(read_file(tmp + "/out.json"));
    for (const auto& [label, c] : doc.at("cases").as_object()) {
      digest_by_hash[c.at("hash").as_string()] = metrics_digest(c.at("metrics"));
    }
  } catch (const std::exception& e) {
    note_error(pass.errors, std::string("campaign output: ") + e.what());
  }
  remove_tree(tmp);

  std::vector<std::string> digests;
  double steps = 0.0;
  for (const CaseConfig& c : cases) {
    steps += c.steps;
    const auto got = digest_by_hash.find(hs::sweep::case_hash_hex(c));
    digests.push_back(got == digest_by_hash.end() ? "missing" : got->second);
    const auto want = ctx.expected.cases.find(reference_hash(c));
    if (want == ctx.expected.cases.end() || want->second != digests.back()) {
      ++pass.failed;
      note_error(pass.errors, "case '" + hs::sweep::case_label(c) +
                                  "': output digest " + digests.back() +
                                  " differs from expected.json");
    }
  }
  pass.digest = campaign_digest(digests);
  const auto want = ctx.expected.campaigns.find(workload);
  if ((want == ctx.expected.campaigns.end() || want->second != pass.digest) &&
      pass.failed == 0) {
    pass.failed = pass.attempted;
    note_error(pass.errors, "campaign digest " + pass.digest +
                                " differs from expected.json");
  }
  if (pass.unit_ms.size() != cases.size()) {
    note_error(pass.errors, "expected " + std::to_string(cases.size()) +
                                " progress lines, got " +
                                std::to_string(pass.unit_ms.size()));
  }
  double case_ms = 0.0;
  for (const double ms : pass.unit_ms) case_ms += ms;
  pass.step_ms = case_ms / steps;
  return pass;
}

/// Set-up of a campaign run, timed in this process: parse and expand the
/// spec, hash every case, and build each distinct setup's prepared state
/// (the work halo_sweep does before its first simulation). A round takes
/// well under a millisecond to a few, so rounds repeat for
/// kSetupProbeSeconds before every pass; returns their median in s.
double setup_probe(const std::string& spec_text) {
  std::vector<double> rounds;
  const double start = now_s();
  while (now_s() < start + kSetupProbeSeconds) {
    const double t = now_s();
    const hs::sweep::Campaign campaign =
        hs::sweep::parse_campaign_text(spec_text);
    const std::vector<std::string> labels =
        hs::sweep::case_labels(campaign.cases);
    hs::sweep::PreparedStateCache prepared;
    for (const CaseConfig& config : campaign.cases) {
      if (hs::sweep::case_hash_hex(config).empty()) {
        throw std::logic_error("empty case hash");
      }
      prepared.get(config);
    }
    rounds.push_back(now_s() - t);
  }
  return median(rounds);
}

// ---- serve_mixed --------------------------------------------------------

std::string request_line(const CaseConfig& c) {
  std::string grid = "\"machine\":" + quote(c.machine) +
                     ",\"nodes\":" + std::to_string(c.nodes) +
                     ",\"gpus_per_node\":" + std::to_string(c.gpus_per_node) +
                     ",\"atoms\":" + std::to_string(c.atoms) +
                     ",\"transport\":" + quote(c.transport);
  if (c.nvlink_latency_ns >= 0.0) {
    grid += ",\"nvlink_latency_ns\":" + num(c.nvlink_latency_ns);
  }
  return "{\"schema\":\"halosim-campaign-spec-v1\",\"name\":\"serve_mixed\","
         "\"grid\":{" + grid + "}}";
}

Pass serve_pass(const Context& ctx, const std::vector<ServeRequest>& requests) {
  Pass pass;
  pass.attempted = static_cast<int>(requests.size());
  std::vector<std::string> replies;
  replies.reserve(requests.size());
  // The server memoizes, so a config's first request is its one miss.
  std::set<std::string> seen;
  double miss_ms = 0.0;
  double miss_steps = 0.0;
  {
    LineSession session({ctx.paths.sweep_exe, "--serve", "--no-cache", "--quiet"});
    std::string reply;
    for (const ServeRequest& req : requests) {
      const double start = now_s();
      if (!session.request(req.line, reply, ctx.deadline)) break;
      const double ms = (now_s() - start) * 1e3;
      pass.unit_ms.push_back(ms);
      if (seen.insert(req.hash).second) {
        miss_ms += ms;
        miss_steps += req.steps;
      }
      replies.push_back(reply);
    }
    const ChildResult child = session.finish(ctx.deadline);
    pass.wall_s = child.wall_s;
    pass.peak_rss_mb = child.peak_rss_mb;
    if (!child.ok()) note_error(pass.errors, "halo_sweep --serve: " + child.why());
  }

  // Check every reply after the session, so checking is not timed. Equal
  // (config, reply) pairs are checked once.
  std::unordered_map<std::string, bool> verified;
  std::string stream;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServeRequest& req = requests[i];
    if (i >= replies.size()) {
      ++pass.failed;
      continue;
    }
    stream += replies[i] + "\n";
    const auto [it, fresh] = verified.try_emplace(req.hash + replies[i], false);
    if (fresh) {
      try {
        // An {"error": ...} reply has no "cases" and throws here.
        const json::Value doc = json::parse(replies[i]);
        const json::Object& cases = doc.at("cases").as_object();
        const auto want = ctx.expected.cases.find(req.ref_hash);
        it->second =
            cases.size() == 1 && want != ctx.expected.cases.end() &&
            cases.begin()->second.at("hash").as_string() == req.hash &&
            want->second == metrics_digest(cases.begin()->second.at("metrics"));
      } catch (const std::exception&) {
        it->second = false;
      }
      if (!it->second) {
        note_error(pass.errors, "reply for " + req.hash + " failed its check: " +
                                    replies[i].substr(0, 120));
      }
    }
    if (!it->second) ++pass.failed;
  }
  pass.digest = hs::util::hex64(hs::util::fnv1a64(stream));
  pass.step_ms = miss_steps > 0.0 ? miss_ms / miss_steps : 0.0;
  return pass;
}

// ---- md_functional ------------------------------------------------------

std::vector<std::string> md_child_argv(const Context& ctx, bool traced) {
  std::vector<std::string> argv = {ctx.paths.self_exe, "--root", ctx.paths.root,
                                   "--child", "md", "--seed",
                                   std::to_string(ctx.seed)};
  if (traced) argv.push_back("--trace");
  return argv;
}

/// Shared checks of an md child's report; returns false on a failed check.
bool md_report_ok(const json::Value& report, std::vector<std::string>& errors) {
  const double momentum = report.at("momentum").as_number();
  if (!(momentum <= kMomentumLimit)) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "momentum |sum p|/sum |p| = %g exceeds %g",
                  momentum, kMomentumLimit);
    note_error(errors, msg);
    return false;
  }
  return true;
}

Pass md_pass(const Context& ctx) {
  Pass pass;
  pass.attempted = 1;
  const ChildResult child = run_child(md_child_argv(ctx, false), ctx.deadline);
  pass.wall_s = child.wall_s;
  pass.peak_rss_mb = child.peak_rss_mb;
  try {
    if (!child.ok()) throw std::runtime_error("md child " + child.why());
    const json::Value report = last_line_json(child.out);
    const double setup_ms = report.at("setup_ms").as_number();
    const double run_ms = report.at("run_ms").as_number();
    pass.setup_s = setup_ms / 1e3;
    pass.unit_ms.push_back(setup_ms + run_ms);
    pass.step_ms = run_ms / report.at("steps").as_number();
    pass.digest = report.at("final_state").as_string();
    if (!md_report_ok(report, pass.errors)) pass.failed = 1;
  } catch (const std::exception& e) {
    pass.failed = 1;
    note_error(pass.errors, e.what());
  }
  return pass;
}

// ---- pass loop and summaries --------------------------------------------

/// Run passes until the next one is predicted to end after `start` +
/// ctx.seconds; at least one.
std::vector<Pass> run_passes(const Context& ctx, double start,
                             const std::function<Pass()>& one_pass) {
  std::vector<Pass> passes;
  std::vector<double> durations;
  for (;;) {
    const double t = now_s();
    passes.push_back(one_pass());
    durations.push_back(now_s() - t);
    const double next = median(durations);
    if (now_s() + next > start + ctx.seconds || now_s() + next > ctx.deadline) {
      break;
    }
  }
  return passes;
}

/// End-to-end metrics over a run's passes, each the median of per-pass
/// values: latency percentiles too, so one slow pass cannot set the tail
/// of a workload with few units per pass. Every timing is first scaled to
/// the reference host speed measured around its pass (host_speed.hpp);
/// the uncorrected medians are kept as a note. With `same_inputs`, every
/// pass ran the same inputs and must reproduce the first pass's digest.
void summarize(const std::vector<Pass>& passes, bool same_inputs,
               RunResult& r) {
  std::vector<double> walls, rss, step_ms, p50, p99, setup_s, host_refs;
  std::vector<double> raw_walls, raw_step_ms;
  std::size_t samples = 0;
  std::size_t beyond_p99 = 0;
  std::string digests;
  for (const Pass& p : passes) {
    r.attempted += p.attempted;
    r.failed += p.failed;
    for (const std::string& e : p.errors) note_error(r.errors, e);
    double scale = 1.0;
    if (p.host_ref_ms > 0.0) {
      scale = kHostReferenceMs / p.host_ref_ms;
      host_refs.push_back(p.host_ref_ms);
    }
    walls.push_back(p.wall_s * scale);
    raw_walls.push_back(p.wall_s);
    rss.push_back(p.peak_rss_mb);
    step_ms.push_back(p.step_ms * scale);
    raw_step_ms.push_back(p.step_ms);
    if (!p.unit_ms.empty()) {
      const double pass_p99 = percentile(p.unit_ms, 99.0);
      p50.push_back(percentile(p.unit_ms, 50.0) * scale);
      p99.push_back(pass_p99 * scale);
      samples += p.unit_ms.size();
      beyond_p99 += static_cast<std::size_t>(
          std::count_if(p.unit_ms.begin(), p.unit_ms.end(),
                        [&](double u) { return u > pass_p99; }));
    }
    if (!std::isnan(p.setup_s)) setup_s.push_back(p.setup_s * scale);
    if (!same_inputs) {
      digests += (digests.empty() ? "" : " ") + p.digest;
    } else if (p.digest != passes.front().digest) {
      r.failed += p.attempted - p.failed;
      note_error(r.errors, "pass digest " + p.digest + " differs from the "
                           "first pass's " + passes.front().digest);
    }
  }
  // A pass that failed before measuring leaves a series empty; report 0
  // rather than NaN (the run is already marked incorrect).
  for (std::vector<double>* series : {&setup_s, &p50, &p99}) {
    if (series->empty()) series->push_back(0.0);
  }
  r.metrics["wall_s"] = median(walls);
  r.metrics["setup_s"] = median(setup_s);
  r.metrics["md_step_ms"] = median(step_ms);
  r.metrics["p50_ms"] = median(p50);
  r.metrics["p99_ms"] = median(p99);
  r.metrics["peak_rss_mb"] = median(rss);
  r.notes["passes"] = std::to_string(passes.size());
  if (!host_refs.empty()) {
    r.notes["host_ref_ms"] = num(median(host_refs)) + " (timings corrected to " +
                             num(kHostReferenceMs) + ")";
    r.notes["uncorrected"] = "wall_s " + num(median(raw_walls)) +
                             ", md_step_ms " + num(median(raw_step_ms));
  }
  r.notes["latency_samples"] = std::to_string(samples) + " (" +
                               std::to_string(beyond_p99) +
                               " beyond their pass's p99)";
  r.notes["output_digest"] = same_inputs ? passes.front().digest : digests;
  r.notes["error_rate"] =
      num(r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0);
}

// ---- traced passes ------------------------------------------------------

struct TracedPass {
  double total_ms = 0.0;
  Metrics rows;
};

RunResult traced_layers(const Context& ctx, const std::string& workload,
                        const std::vector<Pass>& reference, double start) {
  RunResult r;
  const bool md = workload == "md_functional";
  std::vector<std::string> argv =
      md ? md_child_argv(ctx, true)
         : std::vector<std::string>{ctx.paths.self_exe, "--root", ctx.paths.root,
                                    "--child", "traced", "--workload", workload,
                                    "--seed", std::to_string(ctx.seed)};
  std::vector<TracedPass> passes;
  const std::vector<Pass> runs = run_passes(ctx, start, [&]() {
    Pass p;
    const ChildResult child = run_child(argv, ctx.deadline);
    p.wall_s = child.wall_s;
    try {
      if (!child.ok()) throw std::runtime_error("traced child " + child.why());
      const json::Value report = last_line_json(child.out);
      TracedPass t;
      t.total_ms = report.at("total_ms").as_number();
      for (const char* key : {"rows", "derived"}) {
        for (const auto& [name, value] : report.at(key).as_object()) {
          t.rows[name] = value.as_number();
        }
      }
      t.rows["unattributed_ms"] = report.at("unattributed_ms").as_number();
      t.rows["traced_total_ms"] = t.total_ms;
      if (md) {
        p.attempted = 1;
        // Telemetry observes; it must not change the trajectory.
        if (report.at("final_state").as_string() != reference.front().digest) {
          ++p.failed;
          note_error(p.errors, "traced final state differs from untraced");
        } else if (!md_report_ok(report, p.errors)) {
          ++p.failed;
        }
      } else {
        // Replica parity: every case the traced pass simulated reproduces
        // the committed metrics of simulate_case_document exactly.
        for (const auto& [ref, digest] : report.at("cases").as_object()) {
          ++p.attempted;
          const auto want = ctx.expected.cases.find(ref);
          if (want == ctx.expected.cases.end() ||
              want->second != digest.as_string()) {
            ++p.failed;
            note_error(p.errors, "traced replica of case " + ref +
                                     " differs from expected.json");
          }
        }
      }
      if (t.rows["unattributed_ms"] > kUnattributedLimit * t.total_ms) {
        ++p.failed;
        note_error(p.errors, "unattributed " + num(t.rows["unattributed_ms"]) +
                                 " ms exceeds 5% of the traced total " +
                                 num(t.total_ms) + " ms");
      }
      passes.push_back(std::move(t));
    } catch (const std::exception& e) {
      p.attempted = std::max(p.attempted, 1);
      p.failed = p.attempted;
      note_error(p.errors, e.what());
    }
    return p;
  });
  for (const Pass& p : runs) {
    r.attempted += p.attempted;
    r.failed += p.failed;
    for (const std::string& e : p.errors) note_error(r.errors, e);
  }
  r.notes["traced_passes"] = std::to_string(runs.size());
  for (const MetricSpec& s : ctx.spec.per_layer) r.metrics[s.name] = 0.0;
  if (passes.empty()) return r;

  // Report the pass with the median traced total (rows stay consistent).
  std::sort(passes.begin(), passes.end(),
            [](const TracedPass& a, const TracedPass& b) {
              return a.total_ms < b.total_ms;
            });
  const TracedPass& mid = passes[passes.size() / 2];
  for (const auto& [name, value] : mid.rows) {
    if (r.metrics.count(name) == 0) {
      throw std::logic_error("traced row not in BENCHMARK.json: " + name);
    }
    r.metrics[name] = value;
  }
  std::vector<double> walls;
  for (const Pass& p : reference) walls.push_back(p.wall_s);
  r.metrics["trace_overhead_pct"] =
      (mid.total_ms / 1e3 / median(walls) - 1.0) * 100.0;
  if (md) {
    r.notes["estimates"] =
        "md.rebuild_ms_per_call, md.nonbonded_ms_per_rank_step and "
        "md.attributed_* replay the kernels on the final state";
  }
  return r;
}

}  // namespace

std::string workload_spec_path(const Paths& paths, const std::string& workload) {
  if (workload == "fig5_cold") return paths.root + "/campaigns/fig5_internode.json";
  if (workload == "pdes_w4") return paths.bench + "/workloads/pdes_w4.json";
  if (workload == "serve_mixed") return paths.bench + "/workloads/serve_mixed.json";
  return "";
}

std::vector<ServeRequest> serve_requests(const Paths& paths,
                                         std::uint64_t seed, int pass) {
  const std::vector<CaseConfig> configs =
      expand(workload_spec_path(paths, "serve_mixed"));
  std::vector<ServeRequest> distinct;
  for (const CaseConfig& c : configs) {
    ServeRequest req;
    req.line = request_line(c);
    req.hash = hs::sweep::case_hash_hex(c);
    req.ref_hash = reference_hash(c);
    req.steps = c.steps;
    // The request must name exactly this config, or the check is void.
    const auto parsed = hs::sweep::parse_campaign_text(req.line).cases;
    if (parsed.size() != 1 || hs::sweep::case_hash_hex(parsed[0]) != req.hash) {
      throw std::logic_error("serve request does not round-trip: " + req.line);
    }
    distinct.push_back(std::move(req));
  }

  hs::util::Rng rng(seed * 4096 + static_cast<std::uint64_t>(pass));
  std::vector<std::size_t> order(distinct.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<double> cdf(order.size());
  double total = 0.0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  std::vector<ServeRequest> requests;
  requests.reserve(kServeRequests);
  for (int i = 0; i < kServeRequests; ++i) {
    const double u = rng.next_double() * total;
    const auto k = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    requests.push_back(distinct[order[std::min(k, order.size() - 1)]]);
  }
  return requests;
}

WorkloadRun run_workload(const Context& ctx, const std::string& workload,
                         bool end_to_end, bool layers) {
  const double start = now_s();
  std::function<Pass()> one_pass;
  if (workload == "fig5_cold" || workload == "pdes_w4") {
    const std::vector<CaseConfig> cases =
        expand(workload_spec_path(ctx.paths, workload));
    one_pass = [&ctx, workload, cases]() {
      return campaign_pass(ctx, workload, cases);
    };
  } else if (workload == "serve_mixed") {
    auto pass = std::make_shared<int>(0);
    one_pass = [&ctx, pass]() {
      return serve_pass(ctx, serve_requests(ctx.paths, ctx.seed, (*pass)++));
    };
  } else if (workload == "md_functional") {
    one_pass = [&ctx]() { return md_pass(ctx); };  // its reps time setup_s
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }

  // The traced pass needs an untraced reference (overhead, md parity);
  // when only layers are asked for, that one pass counts against the
  // traced budget.
  WorkloadRun run;
  std::vector<Pass> passes;
  if (end_to_end) {
    // Campaign set-up is probed in-process before each pass (md_functional
    // reps time their own). The host reference is sampled beside each pass;
    // pdes_w4 runs nproc worker threads, so it is sampled between passes
    // instead, one sample shared by neighbouring passes.
    const std::string spec = workload_spec_path(ctx.paths, workload);
    const std::string text = spec.empty() ? "" : read_file(spec);
    const bool beside = workload != "pdes_w4";
    double before = beside ? 0.0 : host_reference_ms();
    const std::function<Pass()> measure = one_pass;
    one_pass = [&before, beside, text, measure]() {
      std::optional<HostSampler> sampler;
      if (beside) sampler.emplace();
      const double setup_s = text.empty() ? 0.0 : setup_probe(text);
      Pass p = measure();
      if (!text.empty()) p.setup_s = setup_s;
      if (beside) {
        p.host_ref_ms = sampler->stop();
      } else {
        const double after = host_reference_ms();
        p.host_ref_ms = (before + after) / 2.0;
        before = after;
      }
      return p;
    };
    passes = run_passes(ctx, start, one_pass);
    summarize(passes, workload != "serve_mixed", run.end_to_end);
    // The md final state is recorded per ISA for information only: the
    // cluster kernels' reduction order differs between ISAs.
    const auto recorded = ctx.expected.md_final_state.find(
        hs::md::simd::isa_name(hs::md::simd::active_isa()));
    if (workload == "md_functional" && ctx.seed == ctx.expected.md_seed &&
        recorded != ctx.expected.md_final_state.end()) {
      run.end_to_end.notes["final_state_vs_recorded"] =
          recorded->second == passes.front().digest ? "match"
                                                    : "differs (not gated)";
    }
  } else {
    passes.push_back(one_pass());
    RunResult reference;
    summarize(passes, true, reference);
    run.layers.attempted = reference.attempted;
    run.layers.failed = reference.failed;
    run.layers.errors = reference.errors;
  }
  if (layers) {
    RunResult traced =
        traced_layers(ctx, workload, passes, end_to_end ? now_s() : start);
    run.layers.attempted += traced.attempted;
    run.layers.failed += traced.failed;
    for (const std::string& e : traced.errors) note_error(run.layers.errors, e);
    run.layers.metrics = std::move(traced.metrics);
    run.layers.notes = std::move(traced.notes);
  }
  return run;
}

void record_expected(const Context& ctx) {
  Expected e = ctx.expected;
  e.cases.clear();
  e.campaigns.clear();
  auto record = [&](CaseConfig c) {
    c.workers = 0;  // the classic engine is the reference
    const std::string d =
        case_document_digest(hs::sweep::simulate_case_document(c));
    e.cases[reference_hash(c)] = d;
    return d;
  };
  for (const std::string workload : {"fig5_cold", "pdes_w4"}) {
    std::vector<std::string> digests;
    for (const CaseConfig& c : expand(workload_spec_path(ctx.paths, workload))) {
      digests.push_back(record(c));
    }
    e.campaigns[workload] = campaign_digest(digests);
  }
  for (const CaseConfig& c :
       expand(workload_spec_path(ctx.paths, "serve_mixed"))) {
    record(c);
  }
  e.md_final_state[hs::md::simd::isa_name(hs::md::simd::active_isa())] =
      md_final_state(e.md_seed);
  save_expected(ctx.paths, e);
}

}  // namespace hb
