#include "common.hpp"

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "md/simd/isa.hpp"
#include "util/hash.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"

namespace hb {

namespace json = hs::util::json;
namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

std::string make_temp_dir(const std::string& parent) {
  fs::create_directories(parent);
  std::string templ = parent + "/pass-XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + parent);
  }
  return templ;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

Paths make_paths(const std::string& root) {
  Paths p;
  p.root = fs::absolute(root).lexically_normal().string();
  if (!p.root.empty() && p.root.back() == '/') p.root.pop_back();
  p.bench = p.root + "/benchmark";
  p.build = p.root + "/.bench_build";
  p.tmp = p.build + "/tmp";
  p.sweep_exe = HALO_BENCH_SWEEP_EXE;
  p.self_exe = fs::read_symlink("/proc/self/exe").string();
  return p;
}

BenchSpec load_bench_spec(const std::string& root) {
  const json::Value doc = json::parse(read_file(root + "/BENCHMARK.json"));
  BenchSpec spec;
  spec.run_seconds = static_cast<int>(doc.at("run_seconds").as_number());
  for (const json::Value& w : doc.at("workloads").as_array()) {
    spec.workloads.push_back(w.at("name").as_string());
  }
  auto metrics = [&](const char* key, bool bounded) {
    std::vector<MetricSpec> out;
    for (const json::Value& m : doc.at(key).as_array()) {
      MetricSpec s;
      s.name = m.at("name").as_string();
      s.unit = m.at("unit").as_string();
      s.better = m.at("better").as_string();
      if (bounded) s.bound = m.at("bound").as_number();
      out.push_back(s);
    }
    return out;
  };
  spec.end_to_end = metrics("end_to_end", true);
  spec.per_layer = metrics("per_layer", false);
  return spec;
}

Expected load_expected(const Paths& paths) {
  Expected e;
  const json::Value doc = json::parse(read_file(paths.bench + "/expected.json"));
  for (const auto& [k, v] : doc.at("cases").as_object()) {
    e.cases[k] = v.as_string();
  }
  for (const auto& [k, v] : doc.at("campaigns").as_object()) {
    e.campaigns[k] = v.as_string();
  }
  const json::Value& md = doc.at("md_functional");
  e.md_seed = static_cast<std::uint64_t>(md.at("seed").as_number());
  for (const auto& [k, v] : md.at("final_state").as_object()) {
    e.md_final_state[k] = v.as_string();
  }
  return e;
}

void save_expected(const Paths& paths, const Expected& e) {
  auto table = [](const std::map<std::string, std::string>& m,
                  const std::string& indent) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
      out += out.size() > 1 ? ",\n" : "\n";
      out += indent + "  " + quote(k) + ": " + quote(v);
    }
    return out + "\n" + indent + "}";
  };
  std::string out = "{\n  \"schema\": \"halo-bench-expected-v1\",\n";
  out += "  \"campaigns\": " + table(e.campaigns, "  ") + ",\n";
  out += "  \"md_functional\": {\n    \"seed\": " + std::to_string(e.md_seed) +
         ",\n    \"final_state\": " + table(e.md_final_state, "    ") +
         "\n  },\n";
  out += "  \"cases\": " + table(e.cases, "  ") + "\n}\n";
  write_file(paths.bench + "/expected.json", out);
}

std::string metrics_digest(const json::Value& metrics) {
  std::string text;
  for (const auto& [key, value] : metrics.as_object()) {
    if (!value.is_number()) continue;
    text += key + "=" + json::format_number(value.as_number()) + "\n";
  }
  return hs::util::hex64(hs::util::fnv1a64(text));
}

std::string case_document_digest(const std::string& document) {
  const json::Value doc = json::parse(document);
  const json::Object& cases = doc.at("cases").as_object();
  if (cases.size() != 1) {
    throw std::runtime_error("case document must hold exactly one case");
  }
  return metrics_digest(cases.begin()->second);
}

std::string campaign_digest(const std::vector<std::string>& case_digests) {
  std::string text;
  for (const std::string& d : case_digests) text += d + "\n";
  return hs::util::hex64(hs::util::fnv1a64(text));
}

std::string reference_hash(hs::sweep::CaseConfig config) {
  config.workers = 0;
  return hs::sweep::case_hash_hex(config);
}

double median(std::vector<double> xs) {
  return hs::util::median(std::span<const double>(xs));
}

double percentile(std::vector<double> xs, double p) {
  return hs::util::percentile(std::span<const double>(xs), p);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  out += json::escape(s);
  out += '"';
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  return json::format_number(v);
}

std::string rows_json(const std::map<std::string, double>& rows) {
  std::string out = "{";
  for (const auto& [name, value] : rows) {
    if (out.size() > 1) out += ",";
    out += quote(name) + ":" + num(value);
  }
  return out + "}";
}

std::string rows_json(const std::map<std::string, std::string>& rows) {
  std::string out = "{";
  for (const auto& [name, value] : rows) {
    if (out.size() > 1) out += ",";
    out += quote(name) + ":" + quote(value);
  }
  return out + "}";
}

std::string metrics_json(const Metrics& metrics,
                         const std::vector<MetricSpec>& specs) {
  for (const auto& [name, value] : metrics) {
    const bool listed = std::any_of(specs.begin(), specs.end(),
                                    [&](const MetricSpec& s) {
                                      return s.name == name;
                                    });
    if (!listed) throw std::logic_error("metric not in BENCHMARK.json: " + name);
  }
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& s : specs) {
    const auto it = metrics.find(s.name);
    if (it == metrics.end()) {
      throw std::logic_error("metric not produced: " + s.name);
    }
    if (!first) out += ",";
    first = false;
    out += quote(s.name) + ":{\"value\":" + num(it->second) +
           ",\"unit\":" + quote(s.unit) + "}";
  }
  return out + "}";
}

std::string result_line(const RunResult& result,
                        const std::vector<MetricSpec>& specs) {
  return std::string("{\"correct\":") + (result.correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(result.attempted) +
         ",\"failed\":" + std::to_string(result.failed) +
         ",\"metrics\":" + metrics_json(result.metrics, specs) + "}";
}

void print_metrics(const std::string& title, const RunResult& result,
                   const std::vector<MetricSpec>& specs) {
  std::cout << title << ": " << (result.correct() ? "correct" : "INCORRECT")
            << ", " << result.failed << " of " << result.attempted
            << " failed\n";
  for (const MetricSpec& s : specs) {
    const auto it = result.metrics.find(s.name);
    if (it == result.metrics.end()) continue;
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %14.6g %s", s.name.c_str(),
                  it->second, s.unit.c_str());
    std::cout << line << "\n";
  }
  for (const auto& [key, value] : result.notes) {
    std::cout << "  # " << key << ": " << value << "\n";
  }
  for (const std::string& e : result.errors) {
    std::cout << "  ! " << e << "\n";
  }
}

namespace {

std::string git_head(const std::string& root) {
  const std::string git = root + "/.git";
  std::string head;
  try {
    head = read_file(git + "/HEAD");
  } catch (const std::exception&) {
    return "unknown (not a git checkout)";
  }
  while (!head.empty() && std::isspace(static_cast<unsigned char>(head.back()))) {
    head.pop_back();
  }
  if (!head.starts_with("ref: ")) return head;
  const std::string ref = head.substr(5);
  try {
    std::string sha = read_file(git + "/" + ref);
    return sha.substr(0, sha.find_first_of(" \n"));
  } catch (const std::exception&) {
  }
  try {
    std::istringstream packed(read_file(git + "/packed-refs"));
    std::string line;
    while (std::getline(packed, line)) {
      const std::size_t sp = line.find(' ');
      if (sp != std::string::npos && line.substr(sp + 1) == ref) {
        return line.substr(0, sp);
      }
    }
  } catch (const std::exception&) {
  }
  return "unknown (" + ref + ")";
}

}  // namespace

std::string provenance_json(const Paths& paths) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"host_cpus\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"isa\":" +
         quote(hs::md::simd::isa_name(hs::md::simd::active_isa())) +
         ",\"compiler\":" + quote(compiler) +
         ",\"build_type\":" + quote(HALO_BENCH_BUILD_TYPE) +
         ",\"git_head\":" + quote(git_head(paths.root)) + "}";
}

void require_release_build() {
  const std::string build_type = HALO_BENCH_BUILD_TYPE;
  if (build_type != "Release") {
    throw std::runtime_error("refusing to measure a '" + build_type +
                             "' build; configure with "
                             "-DCMAKE_BUILD_TYPE=Release");
  }
  const std::string sanitize = HALO_BENCH_SANITIZE;
  bool sanitized = !(sanitize.empty() || sanitize == "OFF" ||
                     sanitize == "0" || sanitize == "FALSE" ||
                     sanitize == "NO" || sanitize == "off");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  if (sanitized) {
    throw std::runtime_error("refusing to measure a sanitized build "
                             "(HALOSIM_SANITIZE=" + sanitize + ")");
  }
}

}  // namespace hb
