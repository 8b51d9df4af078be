// Shared plumbing for halo_bench: paths, the metric table read from
// BENCHMARK.json, the committed output digests (benchmark/expected.json),
// statistics, result rendering and run provenance.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep/campaign.hpp"
#include "util/json.hpp"

namespace hb {

double now_s();

/// Wall-clock milliseconds accumulated per named layer row. A Span adds
/// its lifetime to one row; a null clock makes Spans free no-ops, so the
/// same code runs traced and untraced.
struct LayerClock {
  std::map<std::string, double> ms;
};

class Span {
 public:
  Span(LayerClock* clock, std::string row)
      : clock_(clock), row_(std::move(row)), start_(now_s()) {}
  ~Span() {
    if (clock_ != nullptr) clock_->ms[row_] += (now_s() - start_) * 1e3;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock* clock_;
  std::string row_;
  double start_;
};

std::string read_file(const std::string& path);  // throws on failure
void write_file(const std::string& path, const std::string& text);
/// Fresh empty directory under `parent` (created as needed).
std::string make_temp_dir(const std::string& parent);
void remove_tree(const std::string& path);

struct Paths {
  std::string root;       // checkout root (holds BENCHMARK.json)
  std::string bench;      // root/benchmark
  std::string build;      // root/.bench_build
  std::string tmp;        // build/tmp: per-pass scratch
  std::string sweep_exe;  // halo_sweep built from the same sources
  std::string self_exe;   // this binary, for child passes
};
Paths make_paths(const std::string& root);

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher"
  double bound = 0.0;  // end-to-end only: allowed relative worsening
};

/// The benchmark definition from BENCHMARK.json: the single source of the
/// metric names, units and regression bounds.
struct BenchSpec {
  int run_seconds = 0;
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};
BenchSpec load_bench_spec(const std::string& root);

/// Committed output digests (benchmark/expected.json).
struct Expected {
  /// Per-case metric digest, keyed by the case hash of the config with
  /// workers = 0, so a parallel-engine case must match the classic one.
  std::map<std::string, std::string> cases;
  /// Whole-campaign digest per campaign workload (see campaign_digest).
  std::map<std::string, std::string> campaigns;
  /// md_functional final state for `md_seed`, per ISA (informational).
  std::uint64_t md_seed = 1;
  std::map<std::string, std::string> md_final_state;
};
Expected load_expected(const Paths& paths);
void save_expected(const Paths& paths, const Expected& expected);

/// FNV-1a over "key=value\n" lines of a case's numeric metrics in key
/// order, values in the canonical number format.
std::string metrics_digest(const hs::util::json::Value& metrics);
/// Digest of the single case in a bench-metrics-v1 case document.
std::string case_document_digest(const std::string& document);
/// Digest over per-case digests in campaign expansion order.
std::string campaign_digest(const std::vector<std::string>& case_digests);
/// The expected-table key of a config: its hash with workers = 0.
std::string reference_hash(hs::sweep::CaseConfig config);

double median(std::vector<double> xs);
double percentile(std::vector<double> xs, double p);

using Metrics = std::map<std::string, double>;

/// What one benchmark invocation reports for one workload.
struct RunResult {
  int attempted = 0;
  int failed = 0;
  Metrics metrics;
  /// Human-facing context: sample counts, digests, estimate labels.
  std::map<std::string, std::string> notes;
  std::vector<std::string> errors;
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// {"name":{"value":v,"unit":u},...} in the order of `specs`; throws if a
/// listed metric is missing or a produced one is not listed.
std::string metrics_json(const Metrics& metrics,
                         const std::vector<MetricSpec>& specs);
/// The line a --workload run prints last:
/// {"correct","attempted","failed","metrics"}.
std::string result_line(const RunResult& result,
                        const std::vector<MetricSpec>& specs);
void print_metrics(const std::string& title, const RunResult& result,
                   const std::vector<MetricSpec>& specs);

/// host_cpus, dispatched ISA, compiler, build type, git HEAD.
std::string provenance_json(const Paths& paths);
/// Throws unless this is an unsanitized Release build.
void require_release_build();

std::string quote(const std::string& s);
std::string num(double v);  // canonical, full precision; throws on NaN/inf
/// {"name":value,...}
std::string rows_json(const std::map<std::string, double>& rows);
std::string rows_json(const std::map<std::string, std::string>& rows);

}  // namespace hb
