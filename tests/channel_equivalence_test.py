#!/usr/bin/env python3
"""Tests for tools/channel_equivalence.py: the Student-t tail against table
values, Welch's statistic, Holm's step-down, and the end-to-end verdict on
small sweep files.

Run directly or via ctest:  python3 tests/channel_equivalence_test.py
"""
from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import channel_equivalence as ce  # noqa: E402


def sweep(points: dict[str, list[float]]) -> dict:
    """A sweep JSON whose every figure metric of replication r is values[r]."""
    out = []
    for name, values in points.items():
        for r, v in enumerate(values):
            out.append({"name": f"{name}#{r}", "seed": 2001 + 7919 * r,
                        "metrics": {m: v for m in ce.FIGURE_METRICS}})
    return {"points": out}


class StatsTest(unittest.TestCase):
    def test_t_tail_matches_tables(self) -> None:
        # Two-sided critical values of Student's t at the 5 % and 1 % levels.
        for t, df, p in ((12.706, 1, 0.05), (2.571, 5, 0.05), (2.228, 10, 0.05),
                         (2.042, 30, 0.05), (2.845, 20, 0.01)):
            self.assertAlmostEqual(ce.t_two_sided_p(t, df), p, delta=2e-4)
        self.assertAlmostEqual(ce.t_two_sided_p(0.0, 7), 1.0, places=12)

    def test_welch_statistic(self) -> None:
        t, df, p = ce.welch([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
        self.assertAlmostEqual(t, 3 / 2.5 ** 0.5, places=12)
        self.assertAlmostEqual(df, 6.25 / 1.0625, places=12)
        self.assertAlmostEqual(p, ce.t_two_sided_p(t, df), places=15)
        self.assertEqual(ce.welch([1, 1], [1, 1])[2], 1.0)
        self.assertEqual(ce.welch([1, 1], [2, 2])[2], 0.0)

    def test_holm_step_down(self) -> None:
        self.assertEqual(ce.holm([0.01, 0.04, 0.03, 0.005], 0.05),
                         [True, False, False, True])
        self.assertEqual(ce.holm([0.2, 0.3], 0.05), [False, False])


class VerdictTest(unittest.TestCase):
    def run_tool(self, old: dict, new: dict) -> int:
        with tempfile.TemporaryDirectory() as d:
            a, b = Path(d) / "old.json", Path(d) / "new.json"
            a.write_text(json.dumps(old))
            b.write_text(json.dumps(new))
            return ce.main([str(a), str(b)])

    def test_equivalent_and_identical_points_pass(self) -> None:
        old = sweep({"x": [1.0, 2.0, 3.0, 4.0], "y": [5.0, 5.0, 5.0, 5.0]})
        new = sweep({"x": [2.0, 1.0, 4.0, 3.5], "y": [5.0, 5.0, 5.0, 5.0]})
        self.assertEqual(self.run_tool(old, new), 0)

    def test_shifted_point_is_rejected(self) -> None:
        old = sweep({"x": [1.0, 1.1, 0.9, 1.0, 1.05, 0.95]})
        new = sweep({"x": [2.0, 2.1, 1.9, 2.0, 2.05, 1.95]})
        self.assertEqual(self.run_tool(old, new), 1)

    def test_mismatched_scenarios_fail(self) -> None:
        self.assertEqual(self.run_tool(sweep({"x": [1.0, 2.0]}),
                                       sweep({"z": [1.0, 2.0]})), 1)


if __name__ == "__main__":
    unittest.main()
