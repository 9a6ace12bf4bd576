// Shared pieces of sefi_perfbench: the generated run configuration,
// the JSON-lines protocol spoken to run.py, and the verdict records the
// reference gate compares.
//
// sefi_perfbench never chooses inputs itself. run.py derives every seed and
// size from the benchmark seed and passes them as key=value arguments;
// the binary only executes that configuration and reports raw samples.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sefi/beam/session.hpp"
#include "sefi/core/lab.hpp"
#include "sefi/fi/campaign.hpp"
#include "sefi/workloads/workload.hpp"

namespace perfbench {

struct RunConfig {
  std::string mode;      ///< "measure" or "trace"
  std::string workload;  ///< fi_campaign | beam_sweep | paper_suite |
                         ///< golden
  double seconds = 0;    ///< measuring time; at least one repetition runs
  std::uint64_t threads = 1;
  std::uint64_t fi_seed = 0;
  std::uint64_t beam_seed = 0;
  std::uint64_t input_seed = 0;
  std::uint64_t fi_faults = 0;     ///< faults per component, fi_campaign
  std::uint64_t beam_runs = 0;     ///< runs per session, beam_sweep
  std::uint64_t suite_faults = 0;  ///< faults per component, paper_suite
  std::uint64_t suite_runs = 0;    ///< beam runs per session, paper_suite
  std::vector<std::string> fi_guests;
  std::string serve_guest;
  std::string workdir;  ///< working directory owned by this run
};

/// Parses key=value arguments; throws std::runtime_error on anything
/// unknown or malformed.
RunConfig parse_config(int argc, char** argv);

/// Campaign configuration of the fi_campaign workload and serve probe.
sefi::fi::CampaignConfig fi_campaign_config(const RunConfig& config,
                                            std::uint64_t faults);
/// Beam configuration of the beam_sweep workload.
sefi::beam::BeamConfig beam_config(const RunConfig& config,
                                   std::uint64_t runs);
/// Lab configuration of the paper_suite workload (and of the serve
/// probe, whose lab is the serve coordinator's).
sefi::core::LabConfig lab_config(const RunConfig& config,
                                 std::uint64_t faults, std::uint64_t runs);

/// Verdict records, keyed "fi/<guest>/<component>", "beam/<workload>",
/// "suite/aggregate", "golden/<guest>". Values are printed verbatim, so
/// doubles go through %.17g and compare exactly.
using Verdicts = std::map<std::string, std::vector<std::string>>;

void add_fi_verdicts(const sefi::fi::WorkloadFiResult& result,
                     Verdicts& out);
void add_beam_verdict(const sefi::beam::BeamResult& result, Verdicts& out);
std::string exact(double value);

/// One JSON object per line on stdout; run.py reads every line that
/// starts with '{'.
class JsonLine {
 public:
  explicit JsonLine(const char* kind);
  ~JsonLine();
  JsonLine(const JsonLine&) = delete;
  JsonLine& operator=(const JsonLine&) = delete;

  JsonLine& num(const char* key, double value);
  JsonLine& u64(const char* key, std::uint64_t value);
  JsonLine& str(const char* key, const std::string& value);
  JsonLine& nums(const char* key, const std::vector<double>& values);
  JsonLine& verdicts(const char* key, const Verdicts& values);
  /// `json` must already be one JSON value.
  JsonLine& raw(const char* key, const std::string& json);

 private:
  std::string text_;
};

std::string json_quote(const std::string& text);

/// Seconds on the steady clock.
double now_s();

/// Peak resident set of this process and of its reaped children, MiB.
double peak_rss_self_mb();
double peak_rss_children_mb();

/// Creates `path` (and parents) empty; removes everything under it
/// first if it exists.
void fresh_dir(const std::string& path);
void remove_tree(const std::string& path);

/// Images of one guest, built the way InjectionRig builds them.
struct GuestImages {
  sefi::isa::Program kernel;
  sefi::isa::Program app;
};
GuestImages build_images(const sefi::workloads::Workload& workload,
                         std::uint64_t input_seed);

/// One fault-free execution on a fresh detailed machine, timed around
/// Machine::run only (boot excluded).
struct GoldenStats {
  double run_seconds = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  sefi::sim::PerfCounters counters;
  sefi::sim::UopStats uops;
};
GoldenStats golden_run(const sefi::workloads::Workload& workload,
                       std::uint64_t input_seed);
/// Simulated statistics of a golden run as a verdict record; they are
/// invariants of the model, so any simulator-only change keeps them.
void add_golden_verdict(const std::string& guest, const GoldenStats& stats,
                        Verdicts& out);

std::vector<const sefi::workloads::Workload*> resolve_guests(
    const std::vector<std::string>& names);

int run_measure(const RunConfig& config);
int run_trace(const RunConfig& config);

}  // namespace perfbench
