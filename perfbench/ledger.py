"""Arithmetic of the SEFI performance ledger.

Pure functions over plain data -- order statistics, the tail-percentile
rule, failed fractions, the verdict gate, span self time and set-up time
from the library's own trace -- so that
perfbench/tests can check them without building anything.
"""

import math
import statistics

# Percentiles considered for a timing's tail, highest first. A timing
# reports its p50 plus the highest of these that has at least
# TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q2, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(sorted_values, percentile):
    """Nearest-rank percentile: (value, samples strictly beyond its rank)."""
    n = len(sorted_values)
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    rank = max(1, math.ceil(round(percentile * n / 100.0, 9)))
    return sorted_values[rank - 1], n - rank


def tail(values):
    """(percentile, value) of the highest TAIL_LADDER percentile with at
    least TAIL_MIN_BEYOND samples beyond it, or None when too few."""
    ordered = sorted(values)
    for percentile in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, percentile)
        if beyond >= TAIL_MIN_BEYOND:
            return percentile, value
    return None


def failed_fraction(failed, attempted):
    if attempted <= 0:
        raise ValueError("failed_fraction needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def misclassified(got, want):
    """Fewest injections that must carry another verdict than the
    reference, given per-class counts of one component."""
    deficit = sum(max(0, w - g) for g, w in zip(got, want))
    excess = sum(max(0, g - w) for g, w in zip(got, want))
    return max(deficit, excess)


def gate(observed, reference, required=()):
    """Checks one set of verdicts against its pinned reference.

    Keys "fi/<guest>/<component>" hold the six class counts of one
    component (masked, sdc, app_crash, sys_crash, harness_error,
    detected): every injection is one attempt, and each injection that
    must have been classified differently, or that the harness could not
    classify, is one failure. Every other key ("beam/<wl>", "golden/<g>",
    "suite/...") is one attempt that fails unless it matches exactly.
    Keys in `required` that were not observed fail as well.

    Returns (attempted, failed, problems).
    """
    attempted = failed = 0
    problems = []
    for key in sorted(observed):
        got = observed[key]
        want = reference.get(key)
        if key.startswith("fi/"):
            counts = [int(x) for x in got]
            injections = sum(counts)
            attempted += injections
            if want is None:
                bad = injections
            else:
                bad = misclassified(counts, [int(x) for x in want])
                bad = max(bad, counts[4])  # harness errors never pass
            bad = min(bad, injections)
            if bad:
                problems.append("%s: got %s, reference %s" % (key, got, want))
            failed += bad
        else:
            attempted += 1
            if got != want:
                failed += 1
                problems.append("%s: got %s, reference %s" % (key, got, want))
    for key in sorted(set(required) - set(observed)):
        attempted += 1
        failed += 1
        problems.append("%s: missing" % key)
    return attempted, failed, problems


def covered(intervals, start, end):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total = 0
    cursor = start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_time_by_layer(spans):
    """Per-layer self time in seconds: each span's duration minus the
    part of it covered by its child spans (on any thread)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start_ns"], span["end_ns"]))
    totals = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        own = (end - start) - covered(children.get(span["id"], ()), start, end)
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own / 1e9
    return totals


def busy_and_tail_idle(drain, tasks, threads):
    """Worker-busy fraction and tail idle time (s) of one drain span and
    its task spans over `threads` workers: busy time over threads x drain
    time, and the time between the first worker running dry and the end
    of the drain (a worker that ran nothing ran dry at the start)."""
    duration = drain["end_ns"] - drain["start_ns"]
    if duration <= 0 or threads <= 0:
        raise ValueError("drain needs a positive duration and threads")
    last_end = {}
    busy = 0
    for task in tasks:
        busy += task["end_ns"] - task["start_ns"]
        last_end[task["thread"]] = max(last_end.get(task["thread"], 0),
                                       task["end_ns"])
    ends = list(last_end.values())
    if len(ends) < threads:
        ends.append(drain["start_ns"])
    return (busy / (duration * threads),
            (drain["end_ns"] - min(ends)) / 1e9)


# Spans of the library's obs::Tracer that are set-up, as (category, name).
RIG_SETUP_SPANS = (("fi", "golden_run"), ("fi", "checkpoint_ladder"))
SESSION_SPAN = ("beam", "beam_session")
SESSION_GOLDEN_SPAN = ("beam", "golden_run")


def library_setup_s(events):
    """Seconds of set-up inside one traced library call, summed over the
    rigs and beam sessions it ran, from the library's own Chrome trace
    events (per-thread nested B/E pairs, ts in microseconds).

    An injection rig's set-up is its golden_run and checkpoint_ladder
    spans (boot, golden run, ladder); a beam session's runs from the
    start of its beam_session span to the end of the golden_run inside
    it (image builds, boot, golden run).
    """
    stacks = {}
    total_us = 0.0
    found = 0
    for event in events:
        stack = stacks.setdefault(event["tid"], [])
        if event["ph"] == "B":
            stack.append(event)
            continue
        if event["ph"] != "E":
            continue
        if not stack or (stack[-1]["cat"], stack[-1]["name"]) != (
                event["cat"], event["name"]):
            raise ValueError("unbalanced trace at %s" % event["name"])
        begin = stack.pop()
        key = (event["cat"], event["name"])
        if key in RIG_SETUP_SPANS:
            total_us += event["ts"] - begin["ts"]
            found += 1
        elif key == SESSION_GOLDEN_SPAN:
            if not stack or (stack[-1]["cat"], stack[-1]["name"]) != \
                    SESSION_SPAN:
                raise ValueError("beam golden_run outside a beam_session")
            total_us += event["ts"] - stack[-1]["ts"]
            found += 1
    if any(stacks.values()):
        raise ValueError("trace ends inside an open span")
    if found == 0:
        raise ValueError("trace holds no set-up span")
    return total_us / 1e6
