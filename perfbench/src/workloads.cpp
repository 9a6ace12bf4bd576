// End-to-end measurement of the three ledger workloads, without the
// benchmark's own spans: a fixed-size unit repeated until the run's
// seconds are spent. Every unit also times its own set-up, so the
// set-up median covers the same stretch of the run as the wall-time
// median: fi_campaign builds fresh rigs before each campaign, while
// beam_sweep and paper_suite set up inside the measured call itself, so
// their units carry the library's own trace of that call and run.py
// reads the set-up time from its spans. Every unit's verdicts go back to
// run.py, which checks them against the pinned references.
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "sefi/kernel/kernel.hpp"
#include "sefi/microarch/detailed.hpp"
#include "sefi/obs/trace.hpp"
#include "sefi/support/error.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace fi = sefi::fi;
namespace core = sefi::core;
namespace beam = sefi::beam;
using sefi::workloads::Workload;

// Golden runs end long before this; the rig uses the same budget.
constexpr std::uint64_t kGoldenBudget = 500'000'000;

template <typename Unit>
void repeat_for(const RunConfig& config, Unit&& unit) {
  const double deadline = now_s() + config.seconds;
  std::uint64_t rep = 0;
  do {
    unit(rep);
    ++rep;
  } while (now_s() < deadline);
}

std::uint64_t injections_of(const fi::WorkloadFiResult& result) {
  std::uint64_t total = 0;
  for (const fi::ComponentResult& c : result.components) {
    total += c.counts.attempted();
  }
  return total;
}

// The library's own span tracer (obs::Tracer) around one measured call.
// Its golden_run, checkpoint_ladder and beam_session spans mark where
// the call sets up; the tracer records two events per span under a
// mutex, a few spans per injection and per session.
void start_library_trace() {
  sefi::obs::Tracer& tracer = sefi::obs::Tracer::instance();
  tracer.reset();
  tracer.enable("");
}

// Stops the tracer and returns what it recorded as Chrome trace JSON.
std::string stop_library_trace(std::uint64_t* dropped) {
  sefi::obs::Tracer& tracer = sefi::obs::Tracer::instance();
  tracer.disable();
  std::string json = tracer.json();
  *dropped = tracer.dropped();
  tracer.reset();
  return json;
}

void set_cache_dir(const std::string& dir) {
  ::setenv("SEFI_CACHE_DIR", dir.c_str(), 1);
}

void measure_fi_campaign(const RunConfig& config) {
  const auto guests = resolve_guests(config.fi_guests);
  const fi::CampaignConfig campaign =
      fi_campaign_config(config, config.fi_faults);
  std::vector<std::unique_ptr<fi::InjectionRig>> rigs;
  repeat_for(config, [&](std::uint64_t) {
    // The previous unit's rigs go first, outside the timed window, so
    // neither the set-up time nor the peak RSS sees two copies.
    rigs.clear();
    const double setup_start = now_s();
    for (const Workload* guest : guests) {
      rigs.push_back(std::make_unique<fi::InjectionRig>(
          *guest, campaign.rig, campaign.input_seed, campaign.checkpoints));
    }
    const double setup = now_s() - setup_start;
    Verdicts verdicts;
    std::uint64_t injections = 0;
    const double start = now_s();
    for (const auto& rig : rigs) {
      const fi::WorkloadFiResult result = fi::run_fi_campaign(*rig, campaign);
      add_fi_verdicts(result, verdicts);
      injections += injections_of(result);
    }
    const double wall = now_s() - start;
    JsonLine("rep")
        .num("setup_s", setup)
        .num("wall_s", wall)
        .u64("ops", injections)
        .verdicts("verdicts", verdicts);
  });
}

void measure_beam_sweep(const RunConfig& config) {
  const auto& suite = sefi::workloads::all_workloads();
  const beam::BeamConfig sweep = beam_config(config, config.beam_runs);
  repeat_for(config, [&](std::uint64_t) {
    beam::BeamSweepStats stats;
    start_library_trace();
    const double start = now_s();
    const std::vector<beam::BeamResult> results =
        beam::run_beam_sessions(suite, sweep, &stats);
    const double wall = now_s() - start;
    std::uint64_t dropped = 0;
    const std::string trace = stop_library_trace(&dropped);
    Verdicts verdicts;
    std::uint64_t runs = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      // A session that failed leaves a default result in its slot; key
      // it by the workload so the gate books it as a mismatch.
      beam::BeamResult result = results[i];
      result.workload = suite[i]->info().name;
      add_beam_verdict(result, verdicts);
      runs += results[i].runs;
    }
    JsonLine("rep")
        .num("wall_s", wall)
        .u64("ops", runs)
        .u64("harness_errors", stats.harness_errors)
        .u64("journal_replayed", stats.journal_replayed)
        .u64("trace_dropped", dropped)
        .raw("library_trace", trace)
        .verdicts("verdicts", verdicts);
  });
}

void measure_paper_suite(const RunConfig& config) {
  const core::LabConfig lab_cfg =
      lab_config(config, config.suite_faults, config.suite_runs);
  repeat_for(config, [&](std::uint64_t rep) {
    const std::string dir =
        config.workdir + "/suite-" + std::to_string(rep);
    fresh_dir(dir);
    set_cache_dir(dir);
    Verdicts verdicts;
    std::uint64_t ops = 0;
    double wall = 0;
    std::uint64_t dropped = 0;
    std::string trace;
    core::ResultCache::Telemetry cache;
    core::AssessmentLab::SupervisorTelemetry supervisor;
    {
      core::AssessmentLab lab(lab_cfg);
      start_library_trace();
      const double start = now_s();
      const std::vector<core::WorkloadComparison> sweep = lab.compare_all();
      const core::AggregateComparison agg =
          core::AssessmentLab::aggregate(sweep);
      wall = now_s() - start;
      trace = stop_library_trace(&dropped);
      for (const core::WorkloadComparison& c : sweep) {
        add_fi_verdicts(c.fi, verdicts);
        add_beam_verdict(c.beam, verdicts);
        ops += injections_of(c.fi) + c.beam.runs;
      }
      ops += 3 * lab_cfg.beam.runs;  // the FIT_raw calibration session
      verdicts["suite/aggregate"] = {
          exact(agg.beam_sdc), exact(agg.beam_sdc_app), exact(agg.beam_total),
          exact(agg.fi_sdc),   exact(agg.fi_sdc_app),   exact(agg.fi_total)};
      verdicts["suite/fit_raw"] = {exact(lab.fit_raw_per_bit())};
      cache = lab.cache_telemetry();
      supervisor = lab.supervisor_telemetry();
    }
    remove_tree(dir);
    JsonLine("rep")
        .num("wall_s", wall)
        .u64("ops", ops)
        .u64("disk_hits", cache.disk_hits)
        .u64("journal_replayed", supervisor.journal_replayed)
        .u64("harness_errors", supervisor.harness_errors)
        .u64("trace_dropped", dropped)
        .raw("library_trace", trace)
        .verdicts("verdicts", verdicts);
  });
}

// Reference generation only: the golden-run invariants of every FI guest.
void measure_golden(const RunConfig& config) {
  const auto guests = resolve_guests(config.fi_guests);
  const double setup_start = now_s();
  for (const Workload* guest : guests) {
    (void)build_images(*guest, config.input_seed);
  }
  const double setup = now_s() - setup_start;
  Verdicts verdicts;
  const double start = now_s();
  for (const Workload* guest : guests) {
    add_golden_verdict(guest->info().name,
                       golden_run(*guest, config.input_seed), verdicts);
  }
  JsonLine("rep")
      .num("setup_s", setup)
      .num("wall_s", now_s() - start)
      .u64("ops", verdicts.size())
      .verdicts("verdicts", verdicts);
}

}  // namespace

std::vector<const Workload*> resolve_guests(
    const std::vector<std::string>& names) {
  std::vector<const Workload*> guests;
  for (const std::string& name : names) {
    guests.push_back(&sefi::workloads::workload_by_name(name));
  }
  if (guests.empty()) throw std::runtime_error("no FI guests configured");
  return guests;
}

GoldenStats golden_run(const Workload& workload, std::uint64_t input_seed) {
  const GuestImages images = build_images(workload, input_seed);
  sefi::sim::Machine machine =
      sefi::microarch::make_detailed_machine(core::scaled_uarch());
  sefi::kernel::install_system(machine, images.kernel, images.app,
                               sefi::workloads::kWorkloadStackTop);
  machine.boot();
  GoldenStats stats;
  const double start = now_s();
  sefi::sim::RunEvent event{};
  {
    Span span("sim", "machine_run");
    span.set_tag(workload.info().name);
    event = machine.run(kGoldenBudget);
  }
  stats.run_seconds = now_s() - start;
  sefi::support::require(
      event.kind == sefi::sim::RunEventKind::kExit,
      "golden run did not exit for " + workload.info().name);
  sefi::support::require(
      machine.console() == workload.expected_console(input_seed),
      "golden console differs from the host mirror for " +
          workload.info().name);
  stats.cycles = machine.cpu().cycles();
  stats.instructions = machine.cpu().instructions();
  stats.counters = machine.counters();
  stats.uops = machine.cpu().uop_stats();
  return stats;
}

void add_golden_verdict(const std::string& guest, const GoldenStats& stats,
                        Verdicts& out) {
  const sefi::sim::PerfCounters& c = stats.counters;
  out["golden/" + guest] = {
      std::to_string(stats.cycles),       std::to_string(stats.instructions),
      std::to_string(c.branches),         std::to_string(c.branch_misses),
      std::to_string(c.l1d_accesses),     std::to_string(c.l1d_misses),
      std::to_string(c.l1i_misses),       std::to_string(c.dtlb_misses),
      std::to_string(c.itlb_misses),      std::to_string(c.l2_misses)};
}

int run_measure(const RunConfig& config) {
  if (config.workload == "fi_campaign") measure_fi_campaign(config);
  else if (config.workload == "beam_sweep") measure_beam_sweep(config);
  else if (config.workload == "paper_suite") measure_paper_suite(config);
  else if (config.workload == "golden") measure_golden(config);
  else throw std::runtime_error("unknown workload " + config.workload);
  JsonLine("rss")
      .num("self_mb", peak_rss_self_mb())
      .num("children_mb", peak_rss_children_mb());
  return 0;
}

}  // namespace perfbench
