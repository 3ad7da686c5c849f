#!/usr/bin/env python3
"""Command-line boundary of make_figures: --help prints the usage and exits
0, and an unknown flag or a bad --jobs value is rejected with a non-zero
exit and a message naming it.  None may start the pipeline, so each case
runs in an empty directory and must leave it empty (the default output dir
is ./results).

Run via ctest, or:  python3 tests/make_figures_cli_test.py build/tools/make_figures
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import unittest

BINARY = ""


def run(*args: str) -> tuple[subprocess.CompletedProcess, list[str]]:
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([BINARY, *args], cwd=cwd, capture_output=True,
                              text=True, timeout=60)
        return proc, os.listdir(cwd)


class MakeFiguresCliTest(unittest.TestCase):
    def test_help_prints_usage_and_exits_zero(self) -> None:
        for flag in ("--help", "-h"):
            proc, left = run(flag)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn("usage: make_figures", proc.stdout)
            self.assertIn("--mac-matrix", proc.stdout)
            self.assertEqual(left, [], "--help must not run the pipeline")

    def test_unknown_flag_is_rejected_by_name(self) -> None:
        for args in (["--bogus-flag"], ["out", "--jobs", "1", "--figures"],
                     ["out", "extra_positional"], ["--jobs"]):
            proc, left = run(*args)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertIn(args[-1], proc.stderr, args)
            self.assertIn("usage: make_figures", proc.stderr)
            self.assertEqual(left, [], f"{args} must not run the pipeline")

    def test_bad_jobs_value_is_rejected_by_flag(self) -> None:
        # None of these may fall back to 0, which means "run on every core".
        for args in (["--jobs", "abc"], ["out", "--jobs=-2"], ["-j", "1.5"],
                     ["out", "--jobs", "99999999999"]):
            proc, left = run(*args)
            self.assertEqual(proc.returncode, 1, args)
            flag = "-j" if "-j" in args else "--jobs"
            self.assertIn(f"{flag} expects a non-negative integer", proc.stderr, args)
            self.assertEqual(left, [], f"{args} must not run the pipeline")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: make_figures_cli_test.py PATH_TO_MAKE_FIGURES")
    BINARY = os.path.abspath(sys.argv.pop(1))
    unittest.main()
