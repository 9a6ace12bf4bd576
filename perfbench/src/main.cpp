// sefi_perfbench — the ledger's measuring binary. Started by run.py:
//
//   sefi_perfbench mode=measure workload=fi_campaign seconds=15 ...
//
// It prints JSON lines (host, rep, rss, trace, replay, check, error);
// run.py turns them into the ledger's metrics and checks every verdict
// against the pinned references.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>

#include "common.hpp"
#include "sefi/kernel/kernel.hpp"
#include "sefi/microarch/component.hpp"

namespace perfbench {

namespace {

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  const unsigned long long parsed = std::stoull(value, &used, 10);
  if (used != value.size() || value.empty() || value[0] == '-') {
    throw std::runtime_error("bad integer for " + key + ": " + value);
  }
  return parsed;
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > start) out.push_back(value.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

RunConfig parse_config(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("expected key=value, got " + arg);
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "mode") config.mode = value;
    else if (key == "workload") config.workload = value;
    else if (key == "seconds") config.seconds = std::stod(value);
    else if (key == "threads") config.threads = parse_u64(key, value);
    else if (key == "fi_seed") config.fi_seed = parse_u64(key, value);
    else if (key == "beam_seed") config.beam_seed = parse_u64(key, value);
    else if (key == "input_seed") config.input_seed = parse_u64(key, value);
    else if (key == "fi_faults") config.fi_faults = parse_u64(key, value);
    else if (key == "beam_runs") config.beam_runs = parse_u64(key, value);
    else if (key == "suite_faults")
      config.suite_faults = parse_u64(key, value);
    else if (key == "suite_runs") config.suite_runs = parse_u64(key, value);
    else if (key == "fi_guests") config.fi_guests = split_list(value);
    else if (key == "serve_guest") config.serve_guest = value;
    else if (key == "workdir") config.workdir = value;
    else throw std::runtime_error("unknown key " + key);
  }
  if (config.mode != "measure" && config.mode != "trace") {
    throw std::runtime_error("mode must be measure or trace");
  }
  if (config.workdir.empty()) throw std::runtime_error("workdir is required");
  if (config.threads == 0) throw std::runtime_error("threads must be > 0");
  return config;
}

sefi::fi::CampaignConfig fi_campaign_config(const RunConfig& config,
                                            std::uint64_t faults) {
  sefi::fi::CampaignConfig campaign;
  campaign.faults_per_component = faults;
  campaign.seed = config.fi_seed;
  campaign.input_seed = config.input_seed;
  campaign.rig.uarch = sefi::core::scaled_uarch();
  campaign.threads = config.threads;
  return campaign;
}

sefi::beam::BeamConfig beam_config(const RunConfig& config,
                                   std::uint64_t runs) {
  sefi::beam::BeamConfig beam;
  beam.uarch = sefi::core::scaled_uarch();
  beam.runs = runs;
  beam.seed = config.beam_seed;
  beam.input_seed = config.input_seed;
  beam.threads = config.threads;
  return beam;
}

sefi::core::LabConfig lab_config(const RunConfig& config,
                                 std::uint64_t faults, std::uint64_t runs) {
  sefi::core::LabConfig lab;
  lab.fi = fi_campaign_config(config, faults);
  lab.beam = beam_config(config, runs);
  lab.journal_enabled = true;
  return lab;
}

std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void add_fi_verdicts(const sefi::fi::WorkloadFiResult& result,
                     Verdicts& out) {
  for (const auto kind : sefi::microarch::kAllComponents) {
    const sefi::fi::ClassCounts& c = result.component(kind).counts;
    const std::string name = sefi::microarch::component_name(kind);
    out["fi/" + result.workload + "/" + name] =
        {std::to_string(c.masked),    std::to_string(c.sdc),
         std::to_string(c.app_crash), std::to_string(c.sys_crash),
         std::to_string(c.harness_error), std::to_string(c.detected)};
  }
}

void add_beam_verdict(const sefi::beam::BeamResult& result, Verdicts& out) {
  out["beam/" + result.workload] = {
      std::to_string(result.runs),      std::to_string(result.sdc),
      std::to_string(result.app_crash), std::to_string(result.sys_crash),
      std::to_string(result.detected),  std::to_string(result.strikes),
      std::to_string(result.reboots)};
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonLine::JsonLine(const char* kind) : text_("{\"kind\":") {
  text_ += json_quote(kind);
}

JsonLine::~JsonLine() {
  std::printf("%s}\n", text_.c_str());
  std::fflush(stdout);
}

JsonLine& JsonLine::num(const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  text_ += "," + json_quote(key) + ":" + buffer;
  return *this;
}

JsonLine& JsonLine::u64(const char* key, std::uint64_t value) {
  text_ += "," + json_quote(key) + ":" + std::to_string(value);
  return *this;
}

JsonLine& JsonLine::str(const char* key, const std::string& value) {
  text_ += "," + json_quote(key) + ":" + json_quote(value);
  return *this;
}

JsonLine& JsonLine::nums(const char* key, const std::vector<double>& values) {
  text_ += "," + json_quote(key) + ":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%s%.17g", i == 0 ? "" : ",",
                  values[i]);
    text_ += buffer;
  }
  text_ += "]";
  return *this;
}

JsonLine& JsonLine::verdicts(const char* key, const Verdicts& values) {
  text_ += "," + json_quote(key) + ":{";
  bool first = true;
  for (const auto& [name, fields] : values) {
    text_ += (first ? "" : ",") + json_quote(name) + ":[";
    first = false;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      text_ += (i == 0 ? "" : ",") + json_quote(fields[i]);
    }
    text_ += "]";
  }
  text_ += "}";
  return *this;
}

JsonLine& JsonLine::raw(const char* key, const std::string& json) {
  text_ += "," + json_quote(key) + ":" + json;
  return *this;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_self_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double peak_rss_children_mb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void fresh_dir(const std::string& path) {
  remove_tree(path);
  std::filesystem::create_directories(path);
}

GuestImages build_images(const sefi::workloads::Workload& workload,
                         std::uint64_t input_seed) {
  return GuestImages{sefi::kernel::build_kernel({}),
                     workload.build(input_seed)};
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  {
    JsonLine host("host");
    host.str("build_type", PERFBENCH_BUILD_TYPE)
        .u64("lto", PERFBENCH_LTO ? 1 : 0)
        .str("compiler", PERFBENCH_COMPILER);
  }
  // Timings from an unoptimized build measure the compiler's defaults,
  // not SEFI; refuse rather than print them.
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
    JsonLine("error").str("message", "refusing a Debug build");
    return 3;
  }
  try {
    const RunConfig config = parse_config(argc, argv);
    std::filesystem::create_directories(config.workdir);
    return config.mode == "trace" ? run_trace(config) : run_measure(config);
  } catch (const std::exception& error) {
    JsonLine("error").str("message", error.what());
    return 2;
  }
}
