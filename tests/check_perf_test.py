#!/usr/bin/env python3
"""Gates of tools/check_perf.py on synthetic BENCH_perf.json artifacts.

The metro-speedup and live-profiler gates compare the median of a phase's
repetitions, so one repetition slowed by host load cannot fail (or pass) a
gate the other repetitions decide.  Every bound is the one check_perf.py
ships with; these artifacts only move the samples around it.

Run via ctest, or:  python3 tests/check_perf_test.py
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

CHECK_PERF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                          "tools", "check_perf.py")


# Zone entries of the synthetic profiled run: with a clean decode of
# 0.1 s / 4000 words, 0.02 s of profiler cost is 0.1 clean decodes per entry.
ZONE_ENTRIES = 8000


def phase(name: str, samples: list[float]) -> dict:
    entry = {"name": name, "count": len(samples), "total_seconds": sum(samples),
             "mean_seconds": sum(samples) / len(samples),
             "median_seconds": statistics.median(samples),
             "max_seconds": max(samples)}
    if name == "hotpath_cycle_profiled":
        entry["zone_entries"] = ZONE_ENTRIES
    return entry


def artifact(overrides: dict[str, list[float]] | None = None) -> dict:
    """A passing artifact from a 4-core host: metro 2.5x, profiler 0.1
    clean decodes per zone entry."""
    samples = {
        "spec_build": [0.001], "sweep": [2.0], "sweep_journaled": [2.05],
        "bench_network": [0.1], "write_csv": [0.01], "write_sweeps_json": [0.02],
        "bench_metro_serial": [0.25] * 5, "bench_metro_t8": [0.1] * 5,
        "bench_mac_matrix": [1.0],
        "hotpath_rs_encode": [0.1] * 5, "hotpath_rs_decode_clean": [0.1] * 5,
        "hotpath_rs_decode_corrupt": [0.5] * 5,
        "hotpath_channel_uniform": [1.0] * 5, "hotpath_channel_fast": [0.1] * 5,
        "hotpath_cycle_untraced": [0.2] * 5, "hotpath_cycle_traced": [0.2] * 5,
        "hotpath_cycle_profiled": [0.22] * 5,
    }
    samples.update(overrides or {})
    return {"provenance": "tool=make_figures version=abc1234 cores=4",
            "phases": [phase(n, s) for n, s in samples.items()]}


def check(doc: dict) -> subprocess.CompletedProcess:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "BENCH_perf.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return subprocess.run([sys.executable, CHECK_PERF, path, "--require-hotpaths"],
                              capture_output=True, text=True, timeout=60)


class CheckPerfMedianGateTest(unittest.TestCase):
    def assert_passes(self, doc: dict) -> None:
        proc = check(doc)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def assert_fails(self, doc: dict, message: str) -> None:
        proc = check(doc)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertIn(message, proc.stdout)

    def test_baseline_artifact_passes(self) -> None:
        self.assert_passes(artifact())

    def test_one_slow_metro_repetition_does_not_fail_the_speedup_gate(self) -> None:
        # Mean speedup 0.25 / 0.3 = 0.83x; median 2.5x.
        t8 = [0.1, 0.1, 0.1, 0.1, 1.1]
        self.assertLess(0.25 / statistics.mean(t8), 1.8)
        self.assert_passes(artifact({"bench_metro_t8": t8}))

    def test_metro_median_below_the_tier_fails(self) -> None:
        # Median speedup 0.25 / 0.16 = 1.56x against the 1.8x 4-core tier,
        # even though one lucky repetition reads 5x.
        t8 = [0.16, 0.16, 0.16, 0.17, 0.05]
        self.assert_fails(artifact({"bench_metro_t8": t8}),
                          "metro 8-thread speedup below 1.8x")

    def test_one_slow_profiled_repetition_does_not_fail_the_profiler_gate(self) -> None:
        profiled = [0.22, 0.22, 0.22, 0.22, 0.8]
        mean_cost = (statistics.mean(profiled) - 0.2) / ZONE_ENTRIES / (0.1 / 4000)
        self.assertGreater(mean_cost, 0.11)
        self.assert_passes(artifact({"hotpath_cycle_profiled": profiled}))

    def test_profiled_median_above_the_bound_fails(self) -> None:
        # 0.024 s over 8000 entries = 0.12 clean decodes per entry.
        profiled = [0.224, 0.224, 0.224, 0.2, 0.2]
        self.assert_fails(artifact({"hotpath_cycle_profiled": profiled}),
                          "live-profiler overhead regression")

    def test_bound_is_per_zone_entry_not_per_cycle(self) -> None:
        # A faster cycle leaves the profiler's cost per entry unchanged:
        # profiled/untraced reads 1.25, but 0.1 clean decodes per entry pass.
        doc = artifact({"hotpath_cycle_untraced": [0.08] * 5,
                        "hotpath_cycle_traced": [0.08] * 5,
                        "hotpath_cycle_profiled": [0.1] * 5})
        self.assertGreater(0.1 / 0.08, 1.2)
        self.assert_passes(doc)

    def test_zone_entries_are_required(self) -> None:
        doc = artifact()
        for entry in doc["phases"]:
            entry.pop("zone_entries", None)
        self.assert_fails(doc, "zone_entries")

    def test_one_slow_journaled_repetition_does_not_fail_the_journal_gate(self) -> None:
        journaled = [2.05, 2.05, 2.05, 2.05, 4.0]
        self.assertGreater(statistics.mean(journaled) / 2.0, 1.10)
        self.assert_passes(artifact({"sweep": [2.0] * 5, "sweep_journaled": journaled}))

    def test_journaled_median_above_the_bound_fails(self) -> None:
        self.assert_fails(artifact({"sweep": [2.0] * 5,
                                    "sweep_journaled": [2.3, 2.3, 2.3, 2.0, 2.0]}),
                          "run-journal overhead regression")

    def test_median_field_is_required_and_bounded_by_max(self) -> None:
        doc = artifact()
        del doc["phases"][0]["median_seconds"]
        self.assert_fails(doc, "missing field 'median_seconds'")
        doc = artifact()
        doc["phases"][0]["median_seconds"] = 2 * doc["phases"][0]["max_seconds"]
        self.assert_fails(doc, "median_seconds")


if __name__ == "__main__":
    unittest.main()
