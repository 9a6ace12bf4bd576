"""Tests of the ledger's own arithmetic and of its verdict gate.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import ledger  # noqa: E402
import run  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(ledger.median([3, 1, 2]), 2)
        self.assertEqual(ledger.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_follow_statistics_quantiles(self):
        values = list(range(1, 11))
        self.assertEqual(ledger.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(list(ledger.quartiles(values)),
                         statistics.quantiles(values, n=4))

    def test_nearest_rank(self):
        ordered = list(range(1, 101))
        self.assertEqual(ledger.nearest_rank(ordered, 50), (50, 50))
        self.assertEqual(ledger.nearest_rank(ordered, 99), (99, 1))
        self.assertEqual(ledger.nearest_rank(ordered, 0), (1, 99))


class TailRule(unittest.TestCase):
    """The highest percentile with at least ten samples beyond it."""

    def test_too_few_samples_has_no_tail(self):
        self.assertIsNone(ledger.tail(range(19)))

    def test_twenty_samples_give_the_median(self):
        self.assertEqual(ledger.tail(range(1, 21)), (50.0, 10))

    def test_ladder_climbs_with_sample_count(self):
        self.assertEqual(ledger.tail(range(1, 101)), (90.0, 90))
        self.assertEqual(ledger.tail(range(1, 1001)), (99.0, 990))
        self.assertEqual(ledger.tail(range(1, 10001)), (99.9, 9990))

    def test_one_short_of_a_rung_falls_back(self):
        # 199 samples: p95 is rank 190 with 9 beyond, so p90 it is.
        self.assertEqual(ledger.tail(range(1, 200))[0], 90.0)


class FailedFraction(unittest.TestCase):
    def test_values(self):
        self.assertEqual(ledger.failed_fraction(0, 10), 0.0)
        self.assertEqual(ledger.failed_fraction(3, 12), 0.25)

    def test_rejects_impossible_inputs(self):
        with self.assertRaises(ValueError):
            ledger.failed_fraction(0, 0)
        with self.assertRaises(ValueError):
            ledger.failed_fraction(5, 4)


class Gate(unittest.TestCase):
    REFERENCE = {
        "fi/Qsort/L1D": ["80", "20", "0", "0", "0", "0"],
        "beam/Qsort": ["100", "0", "6", "9", "0", "102", "9"],
        "suite/aggregate": ["0.5", "1.25", "3", "0.25", "0.5", "0.75"],
    }

    def test_identical_verdicts_pass(self):
        self.assertEqual(ledger.gate(dict(self.REFERENCE), self.REFERENCE),
                         (102, 0, []))

    def test_one_altered_count_fails(self):
        observed = dict(self.REFERENCE)
        observed["fi/Qsort/L1D"] = ["79", "21", "0", "0", "0", "0"]
        attempted, failed, problems = ledger.gate(observed, self.REFERENCE)
        self.assertEqual((attempted, failed), (102, 1))
        self.assertEqual(len(problems), 1)

    def test_harness_errors_fail(self):
        observed = {"fi/Qsort/L1D": ["80", "18", "0", "0", "2", "0"]}
        self.assertEqual(ledger.gate(observed, self.REFERENCE)[:2], (100, 2))

    def test_other_keys_fail_whole(self):
        observed = dict(self.REFERENCE)
        observed["beam/Qsort"] = ["100", "0", "6", "9", "0", "103", "9"]
        observed["suite/aggregate"] = ["0.5", "1.25", "3", "0.25", "0.5",
                                       "0.75000000000000011"]
        self.assertEqual(ledger.gate(observed, self.REFERENCE)[:2], (102, 2))

    def test_unknown_and_missing_keys_fail(self):
        observed = {"fi/CRC32/L1D": ["90", "10", "0", "0", "0", "0"]}
        attempted, failed, _ = ledger.gate(observed, self.REFERENCE,
                                           required=["beam/Qsort"])
        self.assertEqual((attempted, failed), (101, 101))

    def test_misclassified_is_a_lower_bound(self):
        self.assertEqual(ledger.misclassified([5, 5, 0], [4, 4, 2]), 2)
        self.assertEqual(ledger.misclassified([4, 4, 2], [4, 4, 2]), 0)


class RunGate(unittest.TestCase):
    """One altered count in a pinned reference must fail the run."""

    def lines(self, verdicts):
        return [{"kind": "rep", "setup_s": 0.5, "wall_s": 1.0, "ops": 1800,
                 "verdicts": verdicts},
                {"kind": "rss", "self_mb": 100.0, "children_mb": 0.0}]

    def test_pinned_reference_passes_and_one_altered_count_fails(self):
        reference = run.load_reference("fi_campaign", 0)
        ok = run.measure("fi_campaign", self.lines(dict(reference)), 0)
        self.assertEqual(ok[4], 0)
        self.assertEqual(ok[5], [])
        self.assertEqual(ok[0]["ops_per_s"]["value"], 1800.0)

        altered = json.loads(json.dumps(reference))
        counts = altered["fi/CRC32/L1D"]
        counts[0] = str(int(counts[0]) - 1)
        counts[1] = str(int(counts[1]) + 1)
        bad = run.measure("fi_campaign", self.lines(altered), 0)
        self.assertEqual(bad[4], 1)
        self.assertTrue(bad[5])

    def test_in_call_setup_comes_from_each_repetition_trace(self):
        reference = run.load_reference("beam_sweep", 0)
        reps = []
        for golden_end in (200.0, 400.0, 300.0):
            trace = LibrarySetup.events(
                (1, "beam", "beam_session", 0.0, 1000.0),
                (1, "beam", "golden_run", 100.0, golden_end))
            reps.append({"kind": "rep", "wall_s": 1.0, "ops": 1300,
                         "trace_dropped": 0, "verdicts": dict(reference),
                         "library_trace": {"traceEvents": trace}})
        lines = reps + [{"kind": "rss", "self_mb": 90.0, "children_mb": 0.0}]
        metrics, samples, _, _, failed, problems = run.measure(
            "beam_sweep", lines, 0)
        self.assertEqual((failed, problems), (0, []))
        self.assertAlmostEqual(metrics["setup_s"]["value"], 300e-6)
        self.assertEqual(samples["setup_s"], 3)

        reps[1]["trace_dropped"] = 4
        self.assertTrue(run.measure("beam_sweep", lines, 0)[5])


class ServeChecks(unittest.TestCase):
    CLEAN = {"serve_journal_replayed": 600, "serve_merged_records": 600,
             "serve_shards": 16, "serve_shards_done": 16,
             "serve_shards_resumed": 0, "serve_disk_hits": 0,
             "serve.leases_reclaimed": 0, "serve.worker_deaths": 0,
             "lab_disk_hits": 0, "lab_journal_replayed": 0}

    def test_clean_serve_passes(self):
        self.assertEqual(run.serve_checks(dict(self.CLEAN)), [])

    def test_lost_reclaimed_or_foreign_records_fail(self):
        for key, value in (("serve_shards_done", 15),
                           ("serve.leases_reclaimed", 1),
                           ("serve_journal_replayed", 601),
                           ("lab_disk_hits", 1)):
            counts = dict(self.CLEAN)
            counts[key] = value
            self.assertTrue(run.serve_checks(counts), key)


class Spans(unittest.TestCase):
    @staticmethod
    def span(id_, parent, layer, start, end, thread=0):
        return {"id": id_, "parent": parent, "layer": layer, "thread": thread,
                "start_ns": start, "end_ns": end}

    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(ledger.covered([(10, 30), (20, 50)], 0, 100), 40)
        self.assertEqual(ledger.covered([(-5, 10), (90, 120)], 0, 100), 20)
        self.assertEqual(ledger.covered([], 0, 100), 0)

    def test_self_time_subtracts_children_only(self):
        spans = [self.span(1, 0, "core", 0, 100),
                 self.span(2, 1, "fi", 10, 30),
                 self.span(3, 1, "fi", 20, 50),
                 self.span(4, 3, "sim", 25, 35)]
        totals = ledger.self_time_by_layer(spans)
        self.assertAlmostEqual(totals["core"], 60e-9)
        self.assertAlmostEqual(totals["fi"], (20 + 20) * 1e-9)
        self.assertAlmostEqual(totals["sim"], 10e-9)

    def test_busy_fraction_and_tail_idle(self):
        drain = self.span(1, 0, "exec", 0, 100)
        tasks = [self.span(2, 1, "fi", 0, 60, thread=1),
                 self.span(3, 1, "fi", 0, 100, thread=2)]
        busy, idle = ledger.busy_and_tail_idle(drain, tasks, 2)
        self.assertAlmostEqual(busy, 160 / 200)
        self.assertAlmostEqual(idle, 40e-9)
        busy, idle = ledger.busy_and_tail_idle(drain, tasks, 3)
        self.assertAlmostEqual(busy, 160 / 300)
        self.assertAlmostEqual(idle, 100e-9)


class LibrarySetup(unittest.TestCase):
    """Set-up time read from the library's own Chrome trace events."""

    @staticmethod
    def events(*spans):
        out = []
        for tid, cat, name, begin, end in spans:
            out.append({"tid": tid, "cat": cat, "name": name, "ph": "B",
                        "ts": begin})
            out.append({"tid": tid, "cat": cat, "name": name, "ph": "E",
                        "ts": end})
        return sorted(out, key=lambda e: (e["ts"], e["ph"] == "B"))

    def test_rig_and_session_setup_are_summed(self):
        events = self.events(
            (1, "fi", "golden_run", 0.0, 300.0),
            (1, "fi", "checkpoint_ladder", 300.0, 500.0),
            (1, "fi", "fi_campaign", 500.0, 9000.0),
            (1, "fi", "restore", 600.0, 700.0),
            (2, "supervisor", "task_attempt", 0.0, 5000.0),
            (2, "beam", "beam_session", 10.0, 4990.0),
            (2, "beam", "golden_run", 50.0, 250.0))
        # 300 + 200 on the rig, 250 - 10 in the session.
        self.assertAlmostEqual(ledger.library_setup_s(events), 740e-6)

    def test_beam_golden_run_needs_its_session(self):
        events = self.events((2, "beam", "golden_run", 50.0, 250.0))
        with self.assertRaises(ValueError):
            ledger.library_setup_s(events)

    def test_trace_without_setup_or_unbalanced_is_refused(self):
        with self.assertRaises(ValueError):
            ledger.library_setup_s(self.events((1, "fi", "restore", 0, 5)))
        with self.assertRaises(ValueError):
            ledger.library_setup_s([{"tid": 1, "cat": "fi", "ph": "B",
                                     "name": "golden_run", "ts": 0.0}])


class Catalogue(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [entry[:3] for entry in run.PER_LAYER])

    def test_pool_entry_zero_is_the_library_default(self):
        self.assertEqual(run.pool_config(0), {
            "fi_seed": 0xF1F1, "beam_seed": 0xBEA3, "input_seed": 0x5EF1})
        configs = [tuple(run.pool_config(i).values())
                   for i in range(run.POOL_SIZE)]
        self.assertEqual(len(set(configs)), run.POOL_SIZE)


if __name__ == "__main__":
    unittest.main()
