#!/usr/bin/env python3
"""SEFI performance ledger: one command for every end-to-end and
per-layer metric, with every verdict checked against pinned references.

    python3 perfbench/run.py --workload fi_campaign --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first run builds the library
and its measuring binary (perfbench/CMakeLists.txt) into .bench_build/;
later runs reuse that build. --trace 0 prints the end-to-end metrics of
the named workload from an untraced run; --trace 1 prints the per-layer
metrics from a traced run of the layer probes. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the
line before it is the self-describing record (host, source digest, seed,
knobs, sample counts, tails, format version).

Maintenance: --write-references regenerates perfbench/references/ with
the interpreter fast path off (SEFI_FASTPATH=off), an oracle independent
of the default tier the timed runs use; --verify-references replays every
pinned entry with the default tier and fails on any difference.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import ledger

FORMAT_VERSION = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
TRACES_DIR = ROOT / ".bench_build" / "traces"
REFERENCES_DIR = HERE / "references"
BINARY = BUILD_DIR / "sefi_perfbench"
CHILD_TIMEOUT_S = 170

# fi_serve (serve_fi_campaign over worker processes) is not a workload:
# its wall time moved by 28-44% between runs of the same code on a shared
# host, past the largest bound, so the serve path is timed only by the
# traced probe (serve.* metrics).
WORKLOADS = ("fi_campaign", "beam_sweep", "paper_suite")

# Fixed sizes of one measured unit per workload. The seed picks the
# inputs (fault sampling, beam and input seeds), never the sizes.
SIZES = {
    "fi_guests": "Qsort,CRC32,FFT",
    "fi_faults": 100,     # faults per component, fi_campaign and serve probe
    "beam_runs": 100,     # runs per session, beam_sweep
    "suite_faults": 20,   # faults per component, paper_suite
    "suite_runs": 100,    # beam runs per session, paper_suite
    "serve_guest": "CRC32",
}

# Every SEFI_* knob the measured code paths read, pinned to the value a
# user gets by default. All other SEFI_* variables are removed from the
# measuring binary's environment, and every campaign setting is passed
# explicitly, so nothing ambient can change what is measured.
KNOBS = {
    "SEFI_FASTPATH": "block",
    "SEFI_METRICS": "1",
    "SEFI_TRACE": "0",
    "SEFI_FSYNC": "1",
    "SEFI_DEBUG": "0",
}

# The seed picks one of POOL_SIZE configurations with pinned references:
# seed s uses entry s % POOL_SIZE, and entry 0 is the library's default.
# An entry varies the fault-sampling and beam streams; every entry runs
# the library's fixed input vector, as the paper's campaigns do (one
# input vector shared by beam and fault injection), so all entries do
# comparable work.
POOL_SIZE = 8
INPUT_SEED = 0x5EF1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def pool_config(index):
    if index == 0:
        return {"fi_seed": 0xF1F1, "beam_seed": 0xBEA3,
                "input_seed": INPUT_SEED}
    x = splitmix64(0x5EF1_0000 + index)
    return {"fi_seed": x & 0xFFFFFFFF, "beam_seed": x >> 32,
            "input_seed": INPUT_SEED}


# -- end-to-end metrics --------------------------------------------------

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

# -- per-layer metrics ---------------------------------------------------
# name, unit, better, end-to-end metric it should move, on which workload.
SUITE13 = ("CRC32", "Dijkstra", "FFT", "JpegC", "JpegD", "MatMul", "Qsort",
           "RijndaelE", "RijndaelD", "StringSearch", "SusanC", "SusanE",
           "SusanS")
COMPONENTS = ("L1I", "L1D", "L2", "RegFile", "ITLB", "DTLB")
LAYERS = ("isa", "sim", "microarch", "fi", "beam", "exec", "core", "obs",
          "support")

PER_LAYER = (
    ("isa.image_build_ms", "ms", "lower", "setup_s", "fi_campaign"),
    ("isa.image_build_ms.tail", "ms", "lower", "setup_s", "fi_campaign"),
    ("sim.golden_guest_mips", "MIPS", "higher", "ops_per_s",
     "fi_campaign,beam_sweep"),
    ("sim.host_ns_per_cycle", "ns", "lower", "ops_per_s",
     "fi_campaign,beam_sweep"),
    ("sim.uop_hit_ratio", "ratio", "higher", "ops_per_s",
     "fi_campaign,beam_sweep"),
    ("sim.restore_delta_us", "us", "lower", "ops_per_s", "fi_campaign"),
    ("sim.restore_delta_us.tail", "us", "lower", "ops_per_s", "fi_campaign"),
    ("sim.restore_full_us", "us", "lower", "ops_per_s", "fi_campaign"),
    ("sim.snapshot_save_ms", "ms", "lower", "setup_s", "fi_campaign"),
    ("sim.restore_bytes", "bytes", "lower", "ops_per_s", "fi_campaign"),
    ("microarch.read_ns", "ns", "lower", "ops_per_s",
     "fi_campaign,beam_sweep"),
    ("microarch.read_ns.seq", "ns", "lower", "ops_per_s",
     "fi_campaign,beam_sweep"),
    ("microarch.read_ns.random", "ns", "lower", "ops_per_s",
     "fi_campaign,beam_sweep"),
    ("microarch.fetch_ns", "ns", "lower", "ops_per_s",
     "fi_campaign,beam_sweep"),
    ("microarch.fetch_ns.seq", "ns", "lower", "ops_per_s",
     "fi_campaign,beam_sweep"),
    ("microarch.fetch_ns.random", "ns", "lower", "ops_per_s",
     "fi_campaign,beam_sweep"),
    # Simulated statistics of the golden runs: invariants, not speeds.
    ("sim.golden_cycles", "cycles", "lower", "none (invariant)", "all"),
    ("sim.golden_instructions", "count", "lower", "none (invariant)", "all"),
    ("microarch.l1d_miss_ratio", "ratio", "lower", "none (invariant)", "all"),
    ("microarch.l1i_misses", "count", "lower", "none (invariant)", "all"),
    ("microarch.l2_misses", "count", "lower", "none (invariant)", "all"),
    ("microarch.itlb_misses", "count", "lower", "none (invariant)", "all"),
    ("microarch.dtlb_misses", "count", "lower", "none (invariant)", "all"),
    ("microarch.branch_miss_ratio", "ratio", "lower", "none (invariant)",
     "all"),
    ("fi.rig_build_s", "s", "lower", "setup_s,wall_s",
     "fi_campaign,paper_suite"),
    ("fi.liveness_build_s", "s", "lower", "setup_s,wall_s",
     "fi_campaign,paper_suite"),
    ("fi.ladder_resident_mb", "MiB", "lower", "peak_rss_mb", "fi_campaign"),
    ("fi.run_one_us", "us", "lower", "ops_per_s", "fi_campaign"),
    ("fi.run_one_us.tail", "us", "lower", "ops_per_s", "fi_campaign"),
) + tuple(
    ("fi.run_one_us." + c, "us", "lower", "ops_per_s", "fi_campaign")
    for c in COMPONENTS
) + (
    ("fi.replay_cycles_per_inj", "cycles", "lower", "ops_per_s",
     "fi_campaign"),
    ("fi.guest_instr_per_inj", "count", "lower", "ops_per_s", "fi_campaign"),
    ("fi.masked_time_share", "ratio", "lower", "ops_per_s", "fi_campaign"),
    ("fi.provably_masked_fraction", "ratio", "higher", "ops_per_s",
     "fi_campaign"),
) + tuple(
    ("beam.session_s." + w, "s", "lower", "ops_per_s,wall_s",
     "beam_sweep,paper_suite")
    for w in SUITE13
) + (
    ("beam.run_us", "us", "lower", "ops_per_s,wall_s",
     "beam_sweep,paper_suite"),
    ("beam.session_max_over_mean", "ratio", "lower", "wall_s", "beam_sweep"),
    ("beam.strikes", "count", "lower", "none (invariant)", "beam_sweep"),
    ("beam.reboots", "count", "lower", "none (invariant)", "beam_sweep"),
    ("exec.task_overhead_us", "us", "lower", "ops_per_s", "fi_campaign"),
    ("exec.worker_busy_fraction", "ratio", "higher", "ops_per_s",
     "fi_campaign"),
    ("exec.tail_idle_s", "s", "lower", "ops_per_s", "fi_campaign"),
    # The serve path has no ledger workload (see WORKLOADS); these move
    # serve_fi_campaign's own wall time.
    ("serve.wall_over_threads", "ratio", "lower", "serve wall", "serve probe"),
    ("serve.leases_reclaimed", "count", "lower", "serve wall", "serve probe"),
    ("serve.worker_deaths", "count", "lower", "serve wall", "serve probe"),
    ("core.journal_append_us", "us", "lower", "wall_s", "paper_suite"),
    ("core.journal_append_us.tail", "us", "lower", "wall_s", "paper_suite"),
    ("core.cache_store_ms", "ms", "lower", "wall_s", "paper_suite"),
    ("core.cache_load_ms", "ms", "lower", "wall_s", "paper_suite"),
    ("core.fit_raw_s", "s", "lower", "wall_s", "paper_suite"),
    ("core.run_fi_s", "s", "lower", "wall_s", "paper_suite"),
    ("core.run_beam_s", "s", "lower", "wall_s", "paper_suite"),
    ("obs.expose_text_ms", "ms", "lower", "serve wall", "serve probe"),
    ("obs.trace_overhead", "ratio", "lower", "none (tracing cost)",
     "fi_campaign"),
) + tuple(
    (layer + ".self_s", "s", "lower", "wall_s", "all") for layer in LAYERS
)


class BenchError(Exception):
    """A run that cannot produce a result (build failure, binary crash)."""


# -- build and environment ---------------------------------------------

def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail_lines = build_log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail_lines))


def child_env(fastpath):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEFI_")}
    env.update(KNOBS)
    env["SEFI_FASTPATH"] = fastpath
    return env


def run_binary(args, env):
    """Runs sefi_perfbench in its own process group; returns its JSON lines.
    Every process it forks is killed and reaped before returning."""
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("sefi_perfbench exceeded %d s" % CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    lines = [json.loads(line) for line in stdout.splitlines()
             if line.startswith("{")]
    errors = [line["message"] for line in lines if line["kind"] == "error"]
    if proc.returncode != 0 or errors:
        raise BenchError("sefi_perfbench failed (exit %d): %s %s" % (
            proc.returncode, "; ".join(errors), stderr.strip()[-2000:]))
    return lines


def binary_args(mode, workload, seconds, config, workdir):
    args = {"mode": mode, "workload": workload, "seconds": seconds,
            "threads": len(os.sched_getaffinity(0)),
            "workdir": workdir}
    args.update(SIZES)
    args.update(config)
    return ["%s=%s" % item for item in args.items()]


# -- references ---------------------------------------------------------

def load_reference(name, index):
    path = REFERENCES_DIR / (name + ".json")
    data = json.loads(path.read_text())
    if data.get("format") != FORMAT_VERSION or data.get("sizes") != SIZES:
        raise BenchError("%s was pinned for other sizes or format" % path)
    entry = data["pool"][str(index)]
    if entry["config"] != pool_config(index):
        raise BenchError("%s entry %d has another config" % (path, index))
    return entry["verdicts"]


def run_once(name, index, env):
    """One repetition of `name` on pool entry `index`, untimed."""
    workdir = fresh_workdir("refs-" + name)
    try:
        return run_binary(binary_args("measure", name, 0, pool_config(index),
                                      str(workdir)), env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_references():
    build()
    REFERENCES_DIR.mkdir(exist_ok=True)
    env = child_env("off")
    for name in WORKLOADS[:3] + ("golden",):
        pool = {}
        for index in range(POOL_SIZE):
            reps = [line for line in run_once(name, index, env)
                    if line["kind"] == "rep"]
            pool[str(index)] = {"config": pool_config(index),
                                "verdicts": reps[0]["verdicts"]}
            log("pinned %s pool entry %d" % (name, index))
        data = {"format": FORMAT_VERSION, "tier": "SEFI_FASTPATH=off",
                "sizes": SIZES, "pool": pool}
        (REFERENCES_DIR / (name + ".json")).write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")


def verify_references():
    """Runs every workload once per pool entry with the default fast-path
    tier and gates it against the references pinned with the tier off."""
    build()
    env = child_env(KNOBS["SEFI_FASTPATH"])
    failures = 0
    for name in WORKLOADS + ("golden",):
        for index in range(POOL_SIZE):
            *_, attempted, failed, problems = measure(
                name, run_once(name, index, env), index)
            log("%s pool entry %d: %d attempted, %d failed" % (
                name, index, attempted, failed))
            for problem in problems:
                log("FAIL " + problem)
            failures += failed + len(problems)
    return 0 if failures == 0 else 1


# -- one run -------------------------------------------------------------

def fresh_workdir(tag):
    path = RUNS_DIR / ("%s-%d" % (tag, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, lines, index):
    """End-to-end metrics of one untraced run, plus gate totals."""
    reference = load_reference(workload, index)
    reps = [line for line in lines if line["kind"] == "rep"]
    rss = next(line for line in lines if line["kind"] == "rss")
    if not reps:
        raise BenchError("no repetition finished")
    setup = [rep_setup_s(rep) for rep in reps]
    attempted = failed = 0
    problems = []
    for rep in reps:
        a, f, p = ledger.gate(rep["verdicts"], reference, reference)
        attempted, failed = attempted + a, failed + f
        problems += p
        problems += rep_checks(rep)
    walls = [rep["wall_s"] for rep in reps]
    rates = [rep["ops"] / rep["wall_s"] for rep in reps]
    metrics = {
        "setup_s": metric(ledger.median(setup), "s"),
        "wall_s": metric(ledger.median(walls), "s"),
        "ops_per_s": metric(ledger.median(rates), "1/s"),
        "peak_rss_mb": metric(max(rss["self_mb"], rss["children_mb"]), "MiB"),
    }
    samples = {"setup_s": len(setup), "wall_s": len(walls),
               "ops_per_s": len(rates), "peak_rss_mb": 1}
    notes = {"quartiles": {}, "tails": {}}
    for name, values in (("setup_s", setup), ("wall_s", walls),
                         ("ops_per_s", rates)):
        if len(values) >= 2:
            notes["quartiles"][name] = ledger.quartiles(values)
        found = ledger.tail(values)
        if found is not None:
            notes["tails"][name] = {"percentile": found[0], "value": found[1]}
    return metrics, samples, notes, attempted, failed, problems


def rep_setup_s(rep):
    """Set-up seconds of one repetition: timed apart where the workload
    sets up before its measured call (fi_campaign), else the set-up the
    measured call itself did, as the library's own spans mark it."""
    if "setup_s" in rep:
        return rep["setup_s"]
    return ledger.library_setup_s(rep["library_trace"]["traceEvents"])


def rep_checks(rep):
    """Isolation checks of one repetition: nothing may come from an
    earlier run's cache or journal, the harness classifies every
    experiment, and the library's trace kept every event."""
    problems = []
    for key in ("disk_hits", "journal_replayed", "harness_errors",
                "trace_dropped"):
        if rep.get(key, 0):
            problems.append("%s = %d" % (key, rep[key]))
    return problems


def serve_checks(counts):
    """The serve probe loses no shard and merges only its own journals."""
    problems = []
    # The merge replays the shard journals this campaign wrote, so every
    # replayed record must be one it merged.
    if counts["serve_journal_replayed"] != counts["serve_merged_records"]:
        problems.append("serve replayed %d journal records, merged %d" % (
            counts["serve_journal_replayed"], counts["serve_merged_records"]))
    if counts["serve_shards_done"] != counts["serve_shards"]:
        problems.append("serve lost %d shards" % (
            counts["serve_shards"] - counts["serve_shards_done"]))
    for key in ("serve_shards_resumed", "serve_disk_hits",
                "serve.leases_reclaimed", "serve.worker_deaths",
                "lab_disk_hits", "lab_journal_replayed"):
        if counts[key]:
            problems.append("%s = %d" % (key, counts[key]))
    return problems


def durations(spans, layer, name, tag_prefix=None):
    return [(s["end_ns"] - s["start_ns"]) for s in spans
            if s["layer"] == layer and s["name"] == name and
            (tag_prefix is None or s["tag"].startswith(tag_prefix))]


def trace_metrics(lines, spans):
    """Per-layer metrics of one traced run, with sample counts and tails."""
    counts = next(line for line in lines if line["kind"] == "trace")
    replay = next(line for line in lines if line["kind"] == "replay")
    units = {name: unit for name, unit, *_ in PER_LAYER}
    values, samples, tails = {}, {}, {}

    def timing(name, ns_values, scale, per=1.0):
        if not ns_values:
            raise BenchError("no spans for " + name)
        scaled = [v / scale / per for v in ns_values]
        values[name] = ledger.median(scaled)
        samples[name] = len(scaled)
        found = ledger.tail(scaled)
        if found is not None:
            tails[name] = {"percentile": found[0], "value": found[1]}
        if name + ".tail" in units:
            if found is None:
                raise BenchError("too few samples for a tail of " + name)
            values[name + ".tail"] = found[1]
            samples[name + ".tail"] = len(scaled)

    def count(name, value, n=1):
        values[name] = value
        samples[name] = n

    timing("isa.image_build_ms", durations(spans, "isa", "image_build"), 1e6)
    guests = SIZES["fi_guests"].split(",")
    run_ns = [ledger.median(durations(spans, "sim", "machine_run", g))
              for g in guests]
    instr = sum(counts["golden_instructions." + g] for g in guests)
    cycles = sum(counts["golden_cycles." + g] for g in guests)
    count("sim.golden_guest_mips", instr / (sum(run_ns) / 1e9) / 1e6,
          len(durations(spans, "sim", "machine_run")))
    count("sim.host_ns_per_cycle", sum(run_ns) / cycles,
          len(durations(spans, "sim", "machine_run")))
    for name in ("sim.uop_hit_ratio", "sim.golden_cycles",
                 "sim.golden_instructions", "microarch.l1d_miss_ratio",
                 "microarch.l1i_misses", "microarch.l2_misses",
                 "microarch.itlb_misses", "microarch.dtlb_misses",
                 "microarch.branch_miss_ratio", "fi.ladder_resident_mb",
                 "fi.provably_masked_fraction", "fi.replay_cycles_per_inj",
                 "fi.guest_instr_per_inj", "beam.strikes", "beam.reboots",
                 "serve.leases_reclaimed", "serve.worker_deaths"):
        count(name, counts[name])
    timing("sim.restore_delta_us", durations(spans, "sim", "restore_delta"),
           1e3)
    timing("sim.restore_full_us", durations(spans, "sim", "restore_full"), 1e3)
    timing("sim.snapshot_save_ms", durations(spans, "sim", "snapshot_save"),
           1e6)
    count("sim.restore_bytes",
          counts["restore_delta_bytes"] / counts["restore_delta_count"],
          int(counts["restore_delta_count"]))
    batch = counts["microarch_batch"]
    for access in ("read", "fetch"):
        both = durations(spans, "microarch", access)
        count("microarch.%s_ns" % access, sum(both) / (len(both) * batch),
              len(both))
        for stream in ("seq", "random"):
            timing("microarch.%s_ns.%s" % (access, stream),
                   durations(spans, "microarch", access, stream), 1.0, batch)

    timing("fi.rig_build_s", durations(spans, "fi", "rig_build"), 1e9)
    timing("fi.liveness_build_s", durations(spans, "fi", "liveness_build"),
           1e9)
    run_one = [s for s in spans if s["layer"] == "fi" and s["name"] == "run_one"]
    timing("fi.run_one_us", [s["end_ns"] - s["start_ns"] for s in run_one],
           1e3)
    for c in COMPONENTS:
        timing("fi.run_one_us." + c, durations(spans, "fi", "run_one", c + "/"),
               1e3)
    total = sum(s["end_ns"] - s["start_ns"] for s in run_one)
    masked = sum(s["end_ns"] - s["start_ns"] for s in run_one
                 if s["tag"].endswith("/" + "Masked"))
    count("fi.masked_time_share", masked / total, len(run_one))

    sessions = {s["tag"]: s for s in spans
                if s["layer"] == "beam" and s["name"] == "session"}
    session_s = []
    for w in SUITE13:
        seconds = (sessions[w]["end_ns"] - sessions[w]["start_ns"]) / 1e9
        count("beam.session_s." + w, seconds)
        session_s.append(seconds)
    timing("beam.run_us", [s * 1e9 for s in session_s], 1e3,
           counts["beam_runs_per_session"])
    count("beam.session_max_over_mean",
          max(session_s) / (sum(session_s) / len(session_s)), len(session_s))

    timing("exec.task_overhead_us", durations(spans, "exec", "empty_drain"),
           1e3, counts["exec_empty_tasks"])
    drains = [s for s in spans
              if s["layer"] == "exec" and s["name"] == "for_each_task"]
    tasks = {}
    for s in spans:
        if s["name"] == "replay_task":
            tasks.setdefault(s["parent"], []).append(s)
    busy, idle = zip(*(ledger.busy_and_tail_idle(
        d, tasks.get(d["id"], []), int(counts["replay_threads"]))
        for d in drains))
    count("exec.worker_busy_fraction", ledger.median(busy), len(busy))
    count("exec.tail_idle_s", ledger.median(idle), len(idle))

    serve = durations(spans, "core", "serve_fi_campaign")
    threaded = durations(spans, "fi", "run_fi_campaign")
    count("serve.wall_over_threads", serve[0] / threaded[0])

    timing("core.journal_append_us",
           durations(spans, "support", "journal_append"), 1e3)
    timing("core.cache_store_ms", durations(spans, "core", "cache_store"), 1e6)
    timing("core.cache_load_ms", durations(spans, "core", "cache_load"), 1e6)
    count("core.fit_raw_s",
          durations(spans, "core", "fit_raw_per_bit")[0] / 1e9)
    for name in ("run_fi", "run_beam"):
        ns = durations(spans, "core", name)
        count("core.%s_s" % name, sum(ns) / 1e9, len(ns))
    timing("obs.expose_text_ms", durations(spans, "obs", "expose_text"), 1e6)
    count("obs.trace_overhead",
          ledger.median(replay["traced_s"]) /
          ledger.median(replay["untraced_s"]),
          len(replay["traced_s"]) + len(replay["untraced_s"]))

    self_time = ledger.self_time_by_layer(spans)
    for layer in LAYERS:
        count(layer + ".self_s", self_time.get(layer, 0.0),
              sum(1 for s in spans if s["layer"] == layer))

    missing = set(units) - set(values)
    if missing:
        raise BenchError("per-layer metrics not produced: %s" % sorted(missing))
    metrics = {name: metric(values[name], units[name]) for name, *_ in PER_LAYER}
    return metrics, samples, tails


def trace(lines, index, spans_path):
    spans = [json.loads(line) for line in open(spans_path)]
    metrics, samples, tails = trace_metrics(lines, spans)
    notes = {"tails": tails,
             "moves": {name: {"metric": moves, "workload": workload}
                       for name, _, _, moves, workload in PER_LAYER}}
    attempted = failed = 0
    problems = []
    for check in (line for line in lines if line["kind"] == "check"):
        reference = load_reference(check["against"], index)
        a, f, p = ledger.gate(check["verdicts"], reference)
        attempted, failed = attempted + a, failed + f
        problems += ["%s (%s): %s" % (check["against"], check["what"], x)
                     for x in p]
    problems += serve_checks(
        next(line for line in lines if line["kind"] == "trace"))
    return metrics, samples, notes, attempted, failed, problems


def source_digest():
    """sha256 over the library sources and the benchmark itself: the
    checkout this runs in need not be a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(args):
    build()
    index = args.seed % POOL_SIZE
    config = pool_config(index)
    workdir = fresh_workdir(args.workload)
    mode = "trace" if args.trace else "measure"
    started = time.time()
    try:
        lines = run_binary(binary_args(mode, args.workload, args.seconds,
                                       config, str(workdir)),
                           child_env(KNOBS["SEFI_FASTPATH"]))
        if args.trace:
            TRACES_DIR.mkdir(parents=True, exist_ok=True)
            kept = TRACES_DIR / ("%s-seed%d.spans.jsonl" % (args.workload,
                                                            args.seed))
            shutil.move(str(workdir / "spans.jsonl"), kept)
            result = trace(lines, index, kept)
        else:
            result = measure(args.workload, lines, index)
        metrics, samples, notes, attempted, failed, problems = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = next(line for line in lines if line["kind"] == "host")
    record = {
        "format": FORMAT_VERSION,
        "workload": args.workload,
        "mode": mode,
        "seed": args.seed,
        "pool_index": index,
        "inputs": config,
        "sizes": SIZES,
        "seconds": args.seconds,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "compiler": host["compiler"],
            "build_type": host["build_type"],
            "lto": bool(host["lto"]),
        },
        "commit": git_commit(),
        "source_digest": source_digest(),
        "knobs": KNOBS,
        "unset": sorted(k for k in os.environ
                        if k.startswith("SEFI_") and k not in KNOBS),
        "samples": samples,
        "notes": notes,
        "failed_fraction": ledger.failed_fraction(failed, attempted),
        "problems": problems[:50],
        "elapsed_s": time.time() - started,
    }
    for problem in problems[:50]:
        log("FAIL " + problem)
    for name, entry in metrics.items():
        print("%-36s %14.6g %-6s n=%s" % (name, entry["value"], entry["unit"],
                                          samples.get(name, 1)))
    print(json.dumps({"record": record}, sort_keys=True))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    parser.add_argument("--verify-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_references:
            write_references()
            return 0
        if args.verify_references:
            return verify_references()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (BenchError, OSError, KeyError, ValueError, StopIteration) as error:
        log("error: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
