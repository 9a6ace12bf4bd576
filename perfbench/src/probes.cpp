// Traced run: times calls into every layer's public functions through
// spans recorded here (nothing inside the library is instrumented) and
// reports the counts the per-layer metrics divide by. Every verdict the
// probes produce is checked against the pinned references too, so a
// traced run that drifted is as failed as a timed one.
//
// The probes are the same for every ledger workload; their sizes come
// from the run configuration (fi_faults for the FI and serve probes,
// beam_runs for the serial beam probe, suite_* for the lab probe).
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "sefi/core/service.hpp"
#include "sefi/exec/parallel.hpp"
#include "sefi/kernel/kernel.hpp"
#include "sefi/microarch/detailed.hpp"
#include "sefi/obs/metrics.hpp"
#include "sefi/support/journal.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace fi = sefi::fi;
namespace core = sefi::core;
namespace beam = sefi::beam;
namespace microarch = sefi::microarch;
using sefi::workloads::Workload;

// Probe sizes. They bound the traced run's length, not any metric's
// meaning: every timing is reported per call.
constexpr int kImageBuildPasses = 5;
constexpr int kGoldenPasses = 3;
constexpr int kSnapshotSaves = 20;
constexpr int kRestoresPerMode = 50;
constexpr std::uint64_t kRestoreStride = 5'000;  // cycles run between restores
constexpr std::uint32_t kAccessBatch = 4096;
constexpr int kAccessBatches = 16;
constexpr std::size_t kEmptyTasks = 10'000;
constexpr int kEmptyDrains = 20;
constexpr std::uint64_t kJournalAppends = 2'000;
constexpr int kCacheCopies = 10;
constexpr int kExposeCalls = 50;

/// Named numbers of the traced run (counts and denominators).
using Counts = std::map<std::string, double>;

void check(const char* against, const char* what, const Verdicts& verdicts) {
  JsonLine("check").str("against", against).str("what", what).verdicts(
      "verdicts", verdicts);
}

void probe_images(const RunConfig& config) {
  std::vector<const Workload*> all = sefi::workloads::all_workloads();
  all.push_back(&sefi::workloads::l1_pattern_workload());
  for (int pass = 0; pass < kImageBuildPasses; ++pass) {
    for (const Workload* workload : all) {
      Span span("isa", "image_build");
      span.set_tag(workload->info().name);
      (void)build_images(*workload, config.input_seed);
    }
  }
}

void probe_golden(const RunConfig& config,
                  const std::vector<const Workload*>& guests,
                  Counts& counts) {
  Verdicts verdicts;
  GoldenStats total;
  for (const Workload* guest : guests) {
    GoldenStats first;
    for (int pass = 0; pass < kGoldenPasses; ++pass) {
      const GoldenStats stats = golden_run(*guest, config.input_seed);
      if (pass == 0) first = stats;
    }
    add_golden_verdict(guest->info().name, first, verdicts);
    counts["golden_instructions." + guest->info().name] =
        static_cast<double>(first.instructions);
    counts["golden_cycles." + guest->info().name] =
        static_cast<double>(first.cycles);
    total.cycles += first.cycles;
    total.instructions += first.instructions;
    const sefi::sim::PerfCounters& c = first.counters;
    total.counters.branches += c.branches;
    total.counters.branch_misses += c.branch_misses;
    total.counters.l1d_accesses += c.l1d_accesses;
    total.counters.l1d_misses += c.l1d_misses;
    total.counters.l1i_misses += c.l1i_misses;
    total.counters.dtlb_misses += c.dtlb_misses;
    total.counters.itlb_misses += c.itlb_misses;
    total.counters.l2_misses += c.l2_misses;
    total.uops.hits += first.uops.hits;
    total.uops.decode_hits += first.uops.decode_hits;
    total.uops.misses += first.uops.misses;
  }
  check("golden", "golden runs", verdicts);
  const sefi::sim::PerfCounters& c = total.counters;
  counts["sim.golden_cycles"] = static_cast<double>(total.cycles);
  counts["sim.golden_instructions"] = static_cast<double>(total.instructions);
  const double lookups = static_cast<double>(
      total.uops.hits + total.uops.decode_hits + total.uops.misses);
  counts["sim.uop_hit_ratio"] =
      lookups > 0 ? static_cast<double>(total.uops.hits) / lookups : 0;
  counts["microarch.l1d_miss_ratio"] =
      c.l1d_accesses > 0 ? static_cast<double>(c.l1d_misses) /
                               static_cast<double>(c.l1d_accesses)
                         : 0;
  counts["microarch.l1i_misses"] = static_cast<double>(c.l1i_misses);
  counts["microarch.l2_misses"] = static_cast<double>(c.l2_misses);
  counts["microarch.itlb_misses"] = static_cast<double>(c.itlb_misses);
  counts["microarch.dtlb_misses"] = static_cast<double>(c.dtlb_misses);
  counts["microarch.branch_miss_ratio"] =
      c.branches > 0 ? static_cast<double>(c.branch_misses) /
                           static_cast<double>(c.branches)
                     : 0;
}

// Snapshot save/restore on a machine stopped inside the application,
// then raw model accesses on the same (booted, MMU on) machine.
void probe_machine(const RunConfig& config, const Workload& guest,
                   Counts& counts) {
  const GuestImages images = build_images(guest, config.input_seed);
  sefi::sim::Machine machine =
      microarch::make_detailed_machine(core::scaled_uarch());
  sefi::kernel::install_system(machine, images.kernel, images.app,
                               sefi::workloads::kWorkloadStackTop);
  machine.boot();
  if (machine.run_until_cycle(machine.cpu().cycles() + 4 * kRestoreStride)) {
    throw std::runtime_error("probe machine stopped early");
  }
  std::unique_ptr<sefi::sim::Machine::Snapshot> snapshot;
  for (int i = 0; i < kSnapshotSaves; ++i) {
    Span span("sim", "snapshot_save");
    snapshot = std::make_unique<sefi::sim::Machine::Snapshot>(
        machine.save_snapshot());
  }
  const std::uint64_t start_cycle = machine.cpu().cycles();
  for (const bool delta : {true, false}) {
    machine.set_delta_restore(delta);
    machine.restore_snapshot(*snapshot);
    const sefi::sim::Machine::RestoreStats before = machine.restore_stats();
    for (int i = 0; i < kRestoresPerMode; ++i) {
      (void)machine.run_until_cycle(start_cycle + kRestoreStride);
      Span span("sim", delta ? "restore_delta" : "restore_full");
      machine.restore_snapshot(*snapshot);
    }
    if (delta) {
      const sefi::sim::Machine::RestoreStats& after = machine.restore_stats();
      counts["restore_delta_bytes"] +=
          static_cast<double>(after.bytes_copied - before.bytes_copied);
      counts["restore_delta_count"] +=
          static_cast<double>(after.restores - before.restores);
    }
  }
  machine.set_delta_restore(true);

  microarch::DetailedModel& model = microarch::detailed_model(machine);
  constexpr std::uint32_t kUserBase = 0x0001'0000;
  constexpr std::uint32_t kUserSpan = 0x001F'0000;
  std::uint64_t lcg = config.input_seed | 1;
  for (const bool fetch : {false, true}) {
    for (const bool random : {false, true}) {
      std::uint32_t va = kUserBase;
      for (int batch = 0; batch < kAccessBatches; ++batch) {
        Span span("microarch", fetch ? "fetch" : "read");
        span.set_tag(random ? "random" : "seq");
        for (std::uint32_t i = 0; i < kAccessBatch; ++i) {
          if (random) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            va = kUserBase +
                 (static_cast<std::uint32_t>(lcg >> 33) % kUserSpan & ~3u);
          } else {
            va = kUserBase + (va - kUserBase + 4) % kUserSpan;
          }
          (void)(fetch ? model.fetch(va, false, true)
                       : model.read(va, 4, false, true));
        }
      }
    }
  }
  counts["microarch_batch"] = kAccessBatch;
}

struct GuestFaults {
  const Workload* guest = nullptr;
  std::unique_ptr<fi::InjectionRig> rig;
  std::vector<fi::FaultDescriptor> faults;
};

std::vector<GuestFaults> probe_rigs(const RunConfig& config,
                                    const std::vector<const Workload*>& guests,
                                    Counts& counts) {
  const fi::CampaignConfig campaign =
      fi_campaign_config(config, config.fi_faults);
  std::vector<GuestFaults> out;
  std::uint64_t sites = 0, provably_masked = 0;
  for (const Workload* guest : guests) {
    GuestFaults entry;
    entry.guest = guest;
    {
      Span span("fi", "rig_build");
      span.set_tag(guest->info().name);
      entry.rig = std::make_unique<fi::InjectionRig>(
          *guest, campaign.rig, campaign.input_seed, campaign.checkpoints);
    }
    const fi::GoldenRun& golden = entry.rig->golden();
    for (const auto kind : microarch::kAllComponents) {
      const auto sampled = fi::sample_component_faults(
          campaign, guest->info().name, kind, entry.rig->component_bits(kind),
          golden.spawn_cycle, golden.end_cycle - golden.spawn_cycle);
      entry.faults.insert(entry.faults.end(), sampled.begin(), sampled.end());
    }
    counts["fi.ladder_resident_mb"] +=
        static_cast<double>(entry.rig->ladder_resident_bytes()) /
        (1024.0 * 1024.0);
    {
      std::unique_ptr<fi::InjectionRig> live;
      {
        Span span("fi", "liveness_build");
        span.set_tag(guest->info().name);
        live = std::make_unique<fi::InjectionRig>(
            *guest, campaign.rig, campaign.input_seed, campaign.checkpoints,
            /*record_liveness=*/true);
      }
      for (const fi::FaultDescriptor& fault : entry.faults) {
        ++sites;
        if (live->provably_masked(fault)) ++provably_masked;
      }
    }
    out.push_back(std::move(entry));
  }
  counts["fi.provably_masked_fraction"] =
      sites > 0 ? static_cast<double>(provably_masked) /
                      static_cast<double>(sites)
                : 0;
  return out;
}

std::string verdict_tag(const fi::FaultDescriptor& fault,
                        fi::Outcome outcome) {
  return microarch::component_name(fault.component) + "/" +
         fi::outcome_name(outcome);
}

// Serial Context::run_one over every sampled fault, one span each.
void probe_run_one(const std::vector<GuestFaults>& guests, Counts& counts) {
  Verdicts verdicts;
  std::uint64_t injections = 0, replay = 0, instructions = 0;
  for (const GuestFaults& entry : guests) {
    fi::InjectionRig::Context context(*entry.rig);
    fi::WorkloadFiResult result;
    result.workload = entry.guest->info().name;
    for (const fi::FaultDescriptor& fault : entry.faults) {
      Span span("fi", "run_one", next_group());
      const fi::Outcome outcome = context.run_one(fault);
      span.set_tag(verdict_tag(fault, outcome));
      result.components[static_cast<std::size_t>(fault.component)]
          .counts.add(outcome);
      ++injections;
    }
    replay += context.replay_cycles();
    instructions += context.guest_instructions();
    add_fi_verdicts(result, verdicts);
  }
  check("fi_campaign", "serial run_one", verdicts);
  counts["fi.replay_cycles_per_inj"] =
      static_cast<double>(replay) / static_cast<double>(injections);
  counts["fi.guest_instr_per_inj"] =
      static_cast<double>(instructions) / static_cast<double>(injections);
}

// The fi_campaign injections replayed through exec::for_each_task with
// one Context per worker: once untraced and once traced, twice each in
// alternation, so the traced/untraced ratio is the tracing overhead.
void probe_replay(const RunConfig& config,
                  const std::vector<GuestFaults>& guests,
                  Counts& counts) {
  const std::size_t threads = config.threads;
  std::vector<std::vector<std::unique_ptr<fi::InjectionRig::Context>>>
      contexts(guests.size());
  for (std::size_t g = 0; g < guests.size(); ++g) {
    for (std::size_t w = 0; w < threads; ++w) {
      contexts[g].push_back(
          std::make_unique<fi::InjectionRig::Context>(*guests[g].rig));
    }
  }
  std::vector<double> untraced, traced;
  for (int pass = 0; pass < 4; ++pass) {
    const bool trace_pass = pass % 2 == 1;
    set_tracing(trace_pass);
    Verdicts verdicts;
    const double start = now_s();
    for (std::size_t g = 0; g < guests.size(); ++g) {
      const std::vector<fi::FaultDescriptor>& faults = guests[g].faults;
      std::vector<fi::Outcome> outcomes(faults.size(),
                                        fi::Outcome::kHarnessError);
      Span drain("exec", "for_each_task");
      drain.set_tag(guests[g].guest->info().name);
      const std::uint64_t parent = drain.id();
      const sefi::exec::DrainReport report = sefi::exec::for_each_task(
          threads, faults.size(),
          [&](std::size_t worker, std::size_t index) {
            Span span("fi", "replay_task", next_group(), parent);
            outcomes[index] = contexts[g][worker]->run_one(faults[index]);
            span.set_tag(verdict_tag(faults[index], outcomes[index]));
          },
          nullptr);
      if (report.failed > 0) {
        throw std::runtime_error("replay: an injection threw");
      }
      fi::WorkloadFiResult result;
      result.workload = guests[g].guest->info().name;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        result.components[static_cast<std::size_t>(faults[i].component)]
            .counts.add(outcomes[i]);
      }
      add_fi_verdicts(result, verdicts);
    }
    (trace_pass ? traced : untraced).push_back(now_s() - start);
    check("fi_campaign", trace_pass ? "traced replay" : "untraced replay",
          verdicts);
  }
  set_tracing(true);
  counts["replay_threads"] = static_cast<double>(threads);
  JsonLine("replay").nums("untraced_s", untraced).nums("traced_s", traced);

  for (int drain = 0; drain < kEmptyDrains; ++drain) {
    Span span("exec", "empty_drain");
    sefi::exec::for_each_task(
        threads, kEmptyTasks, [](std::size_t, std::size_t) {}, nullptr);
  }
  counts["exec_empty_tasks"] = static_cast<double>(kEmptyTasks);
}

void probe_beam(const RunConfig& config, Counts& counts) {
  const beam::BeamConfig session = beam_config(config, config.beam_runs);
  Verdicts verdicts;
  for (const Workload* workload : sefi::workloads::all_workloads()) {
    Span span("beam", "session", next_group());
    span.set_tag(workload->info().name);
    const beam::BeamResult result = beam::run_beam_session(*workload, session);
    add_beam_verdict(result, verdicts);
    counts["beam.strikes"] += static_cast<double>(result.strikes);
    counts["beam.reboots"] += static_cast<double>(result.reboots);
  }
  counts["beam_runs_per_session"] = static_cast<double>(session.runs);
  check("beam_sweep", "serial sessions", verdicts);
}

void probe_serve(const RunConfig& config, Counts& counts) {
  const Workload& guest =
      sefi::workloads::workload_by_name(config.serve_guest);
  const fi::CampaignConfig campaign =
      fi_campaign_config(config, config.fi_faults);
  {
    Verdicts verdicts;
    Span span("fi", "run_fi_campaign");
    add_fi_verdicts(fi::run_fi_campaign(guest, campaign), verdicts);
    check("fi_campaign", "threaded campaign", verdicts);
  }
  const std::string dir = config.workdir + "/serve";
  fresh_dir(dir);
  ::setenv("SEFI_CACHE_DIR", dir.c_str(), 1);
  core::ServeStats stats;
  {
    core::AssessmentLab lab(lab_config(config, config.fi_faults, 1));
    core::ServeConfig serve;
    serve.workers = config.threads;
    Verdicts verdicts;
    {
      Span span("core", "serve_fi_campaign");
      add_fi_verdicts(core::serve_fi_campaign(lab, guest, serve, &stats),
                      verdicts);
    }
    check("fi_campaign", "serve", verdicts);
    counts["serve_disk_hits"] =
        static_cast<double>(lab.cache_telemetry().disk_hits);
    counts["serve_journal_replayed"] =
        static_cast<double>(lab.supervisor_telemetry().journal_replayed);
  }
  remove_tree(dir);
  counts["serve_shards"] = static_cast<double>(stats.shards);
  counts["serve_shards_done"] = static_cast<double>(stats.shards_done);
  counts["serve_shards_resumed"] = static_cast<double>(stats.shards_resumed);
  counts["serve_merged_records"] = static_cast<double>(stats.merged_records);
  counts["serve.leases_reclaimed"] =
      static_cast<double>(stats.leases_reclaimed);
  counts["serve.worker_deaths"] = static_cast<double>(stats.worker_deaths);
}

void probe_journal_and_cache(const RunConfig& config,
                             const std::vector<GuestFaults>& guests) {
  const std::string dir = config.workdir + "/store";
  fresh_dir(dir);
  {
    sefi::support::TaskJournal journal(dir + "/probe.journal",
                                       "perfbench probe");
    const std::string payload = fi::encode_journal_outcome(fi::Outcome::kSdc);
    for (std::uint64_t i = 0; i < kJournalAppends; ++i) {
      Span span("support", "journal_append");
      if (!journal.record(i, payload)) {
        throw std::runtime_error("journal append failed");
      }
    }
  }
  // Payloads of realistic size: the serialized campaign results of the
  // FI guests (one short campaign each, untimed).
  std::vector<std::string> payloads;
  {
    const fi::CampaignConfig campaign = fi_campaign_config(config, 1);
    for (const GuestFaults& entry : guests) {
      payloads.push_back(
          core::serialize(fi::run_fi_campaign(*entry.rig, campaign)));
    }
  }
  const core::ResultCache cache(dir + "/cache");
  std::vector<std::string> keys;
  for (int copy = 0; copy < kCacheCopies; ++copy) {
    for (std::size_t p = 0; p < payloads.size(); ++p) {
      const std::string key = core::ResultCache::make_key(
          "probe", static_cast<std::uint64_t>(copy * 64 + p), "payload");
      Span span("core", "cache_store");
      if (!cache.store(key, payloads[p])) {
        throw std::runtime_error("cache store failed");
      }
      keys.push_back(key);
    }
  }
  for (const std::string& key : keys) {
    Span span("core", "cache_load");
    if (!cache.load(key).has_value()) {
      throw std::runtime_error("cache load missed a stored key");
    }
  }
  remove_tree(dir);
}

void probe_lab(const RunConfig& config, Counts& counts) {
  const std::string dir = config.workdir + "/lab";
  fresh_dir(dir);
  ::setenv("SEFI_CACHE_DIR", dir.c_str(), 1);
  {
    core::AssessmentLab lab(
        lab_config(config, config.suite_faults, config.suite_runs));
    Verdicts verdicts;
    {
      Span span("core", "fit_raw_per_bit");
      verdicts["suite/fit_raw"] = {exact(lab.fit_raw_per_bit())};
    }
    for (const Workload* workload : sefi::workloads::all_workloads()) {
      {
        Span span("core", "run_fi");
        span.set_tag(workload->info().name);
        add_fi_verdicts(lab.run_fi(*workload), verdicts);
      }
      Span span("core", "run_beam", next_group());
      span.set_tag(workload->info().name);
      add_beam_verdict(lab.run_beam(*workload), verdicts);
    }
    Span span("core", "compare_all");
    const core::AggregateComparison agg =
        core::AssessmentLab::aggregate(lab.compare_all());
    verdicts["suite/aggregate"] = {
        exact(agg.beam_sdc), exact(agg.beam_sdc_app), exact(agg.beam_total),
        exact(agg.fi_sdc),   exact(agg.fi_sdc_app),   exact(agg.fi_total)};
    check("paper_suite", "lab calls", verdicts);
    counts["lab_disk_hits"] =
        static_cast<double>(lab.cache_telemetry().disk_hits);
    counts["lab_journal_replayed"] =
        static_cast<double>(lab.supervisor_telemetry().journal_replayed);
  }
  remove_tree(dir);
}

void probe_obs() {
  sefi::obs::Registry& registry = sefi::obs::Registry::instance();
  for (int i = 0; i < kExposeCalls; ++i) {
    Span span("obs", "expose_text");
    if (registry.expose_text().empty() && registry.enabled()) {
      throw std::runtime_error("empty metrics exposition");
    }
  }
}

}  // namespace

int run_trace(const RunConfig& config) {
  const auto guests = resolve_guests(config.fi_guests);
  Counts counts;
  set_tracing(true);
  const double start = now_s();
  probe_images(config);
  probe_golden(config, guests, counts);
  for (const Workload* guest : guests) probe_machine(config, *guest, counts);
  std::vector<GuestFaults> rigs = probe_rigs(config, guests, counts);
  probe_run_one(rigs, counts);
  probe_replay(config, rigs, counts);
  probe_beam(config, counts);
  probe_serve(config, counts);
  probe_journal_and_cache(config, rigs);
  rigs.clear();
  probe_lab(config, counts);
  probe_obs();
  set_tracing(false);
  counts["trace_wall_s"] = now_s() - start;

  const std::string path = config.workdir + "/spans.jsonl";
  if (!write_spans_jsonl(path)) {
    throw std::runtime_error("cannot write " + path);
  }
  {
    JsonLine line("trace");
    line.str("spans", path);
    for (const auto& [name, value] : counts) line.num(name.c_str(), value);
  }
  JsonLine("rss")
      .num("self_mb", peak_rss_self_mb())
      .num("children_mb", peak_rss_children_mb());
  return 0;
}

}  // namespace perfbench
