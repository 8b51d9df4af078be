// halo_bench: halosim's end-to-end benchmark (see benchmark/README.md).
// benchmark/run.sh builds it and passes --root.
//
//   halo_bench --root DIR                  every workload, untraced + traced
//   halo_bench --root DIR --quick          one pass of each, every check
//   halo_bench --root DIR --workload W --seed N --seconds S --trace 0|1
//   halo_bench --root DIR --compare a.json b.json
//   halo_bench --root DIR --record-expected
//
// Results land in .bench_build/results/. With --workload the last stdout
// line is {"correct","attempted","failed","metrics"}, and the exit code is
// 0 even when a check failed (the line says so). Otherwise the exit code
// is 1 when a check failed or --compare found a bound breached, and 2 on
// usage or setup errors.
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "md_functional.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace hb;
namespace json = hs::util::json;

/// A --workload invocation must end within 180 s: children still running
/// this long after it started are killed.
constexpr double kInvocationLimitS = 170.0;

struct Args {
  std::string root = ".";
  std::string workload;
  std::string child;
  std::uint64_t seed = 1;
  double seconds = -1.0;  // < 0: BENCHMARK.json run_seconds
  int trace = 0;
  bool quick = false;
  bool record = false;
  std::vector<std::string> compare;
};

Args parse_args(int argc, char** argv) {
  Args a;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      a.root = value(i);
    } else if (arg == "--workload") {
      a.workload = value(i);
    } else if (arg == "--seed") {
      a.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value(i));
    } else if (arg == "--trace") {
      // The md child takes a bare --trace; --workload runs take 0|1.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        a.trace = std::stoi(value(i));
      } else {
        a.trace = 1;
      }
      if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace takes 0 or 1");
    } else if (arg == "--child") {
      a.child = value(i);
    } else if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--record-expected") {
      a.record = true;
    } else if (arg == "--compare") {
      a.compare = {value(i), value(i)};
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  return a;
}

std::string section_json(const RunResult& r, const std::vector<MetricSpec>& specs) {
  std::string errors = "[";
  for (const std::string& e : r.errors) {
    if (errors.size() > 1) errors += ",";
    errors += quote(e);
  }
  return std::string("{\"correct\":") + (r.correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"metrics\":" + metrics_json(r.metrics, specs) +
         ",\"notes\":" + rows_json(r.notes) + ",\"errors\":" + errors + "]}";
}

struct Report {
  std::string workload;
  WorkloadRun run;
  bool end_to_end = false;
  bool layers = false;
};

std::string write_results(const Context& ctx, const std::string& label,
                          const std::vector<Report>& reports) {
  std::string out = "{\"schema\":\"halo-bench-results-v1\",\"provenance\":" +
                    provenance_json(ctx.paths) +
                    ",\"seed\":" + std::to_string(ctx.seed) +
                    ",\"seconds\":" + num(ctx.seconds) + ",\"workloads\":{";
  bool first = true;
  for (const Report& r : reports) {
    out += (first ? "\n" : ",\n") + quote(r.workload) + ":{";
    first = false;
    if (r.end_to_end) {
      out += "\"end_to_end\":" + section_json(r.run.end_to_end, ctx.spec.end_to_end);
    }
    if (r.layers) {
      out += std::string(r.end_to_end ? "," : "") + "\"layers\":" +
             section_json(r.run.layers, ctx.spec.per_layer);
    }
    out += "}";
  }
  out += "\n}}\n";
  const std::string dir = ctx.paths.build + "/results";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + label + ".json";
  write_file(path, out);
  return path;
}

void print_report(const Context& ctx, const Report& r) {
  const std::string head = r.workload + " (seed " + std::to_string(ctx.seed) + ")";
  if (r.end_to_end) {
    print_metrics(head + " end-to-end", r.run.end_to_end, ctx.spec.end_to_end);
  }
  if (r.layers) print_metrics(head + " per-layer", r.run.layers, ctx.spec.per_layer);
}

/// Per-workload, per-metric change of b against a, judged against each
/// end-to-end metric's bound. Returns 1 on any breach or missing data.
int compare_results(const BenchSpec& spec, const std::string& a_path,
                    const std::string& b_path) {
  const json::Value a = json::parse(read_file(a_path)).at("workloads");
  const json::Value b = json::parse(read_file(b_path)).at("workloads");
  int breaches = 0;
  std::printf("%-14s %-12s %14s %14s %9s %7s\n", "workload", "metric", "a",
              "b", "change", "bound");
  for (const auto& [workload, wa] : a.as_object()) {
    if (!wa.contains("end_to_end")) continue;
    if (!b.contains(workload) || !b.at(workload).contains("end_to_end")) {
      std::printf("%-14s missing from %s\n", workload.c_str(), b_path.c_str());
      ++breaches;
      continue;
    }
    const json::Value& ma = wa.at("end_to_end").at("metrics");
    const json::Value& mb = b.at(workload).at("end_to_end").at("metrics");
    for (const MetricSpec& m : spec.end_to_end) {
      if (!ma.contains(m.name) || !mb.contains(m.name)) {
        std::printf("%-14s %-12s missing\n", workload.c_str(), m.name.c_str());
        ++breaches;
        continue;
      }
      const double va = ma.at(m.name).at("value").as_number();
      const double vb = mb.at(m.name).at("value").as_number();
      const double change = (vb - va) / va;
      const double worse = m.better == "lower" ? change : -change;
      const bool breach = worse > m.bound;
      breaches += breach ? 1 : 0;
      std::printf("%-14s %-12s %14.6g %14.6g %+8.2f%% %6.1f%% %s\n",
                  workload.c_str(), m.name.c_str(), va, vb, change * 100.0,
                  m.bound * 100.0, breach ? "BREACH" : "ok");
    }
  }
  std::printf("%d breach(es)\n", breaches);
  return breaches > 0 ? 1 : 0;
}

int run(const Args& args) {
  const Paths paths = make_paths(args.root);
  if (args.child == "md") return md_child_main(args.seed, args.trace == 1);
  if (args.child == "traced") {
    return traced_child_main(paths, args.workload, args.seed);
  }
  if (!args.child.empty()) throw std::invalid_argument("unknown child " + args.child);

  Context ctx;
  ctx.paths = paths;
  ctx.spec = load_bench_spec(paths.root);
  if (!args.compare.empty()) {
    return compare_results(ctx.spec, args.compare[0], args.compare[1]);
  }
  require_release_build();
  ctx.expected = load_expected(paths);
  ctx.seed = args.seed;
  if (args.record) {
    record_expected(ctx);
    std::cout << "wrote " << paths.bench << "/expected.json\n";
    return 0;
  }

  if (!args.workload.empty()) {
    const auto& names = ctx.spec.workloads;
    if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    ctx.seconds = args.seconds >= 0.0 ? args.seconds : ctx.spec.run_seconds;
    ctx.deadline = now_s() + kInvocationLimitS;
    const bool traced = args.trace == 1;
    Report report{args.workload,
                  run_workload(ctx, args.workload, !traced, traced), !traced,
                  traced};
    print_report(ctx, report);
    const std::string path =
        write_results(ctx,
                      args.workload + "-seed" + std::to_string(ctx.seed) +
                          "-trace" + std::to_string(args.trace),
                      {report});
    std::cout << "results: " << path << "\n";
    std::cout << (traced ? result_line(report.run.layers, ctx.spec.per_layer)
                         : result_line(report.run.end_to_end,
                                       ctx.spec.end_to_end))
              << std::endl;
    return 0;
  }

  // Every workload, untraced then traced.
  ctx.seconds = args.quick ? 0.0 : (args.seconds >= 0.0 ? args.seconds
                                                         : ctx.spec.run_seconds);
  std::vector<Report> reports;
  bool all_correct = true;
  for (const std::string& workload : ctx.spec.workloads) {
    ctx.deadline = now_s() + 10.0 * kInvocationLimitS;
    reports.push_back({workload, run_workload(ctx, workload, true, true), true, true});
    print_report(ctx, reports.back());
    all_correct = all_correct && reports.back().run.end_to_end.correct() &&
                  reports.back().run.layers.correct();
  }
  std::cout << "provenance: " << provenance_json(paths) << "\n";
  std::cout << "results: "
            << write_results(ctx, std::string(args.quick ? "quick" : "full") +
                                      "-seed" + std::to_string(ctx.seed),
                             reports)
            << "\n";
  return all_correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A dead serve child must surface as a failed write, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "halo_bench: " << e.what() << "\n";
    return 2;
  }
}
