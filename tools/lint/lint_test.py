#!/usr/bin/env python3
"""Tests for gkeys_lint.py: every seeded fixture must be flagged with
its intended rule (nonzero exit), and the real tree must be clean (exit
0). Registered with CTest as `lint_test`."""

import os
import subprocess
import sys
import unittest

LINT_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LINT_DIR))
FIXTURES = os.path.join(LINT_DIR, "fixtures")
LINTER = os.path.join(LINT_DIR, "gkeys_lint.py")

# fixture path (relative to fixtures/) -> (rule id, expected finding count)
FIXTURE_EXPECTATIONS = {
    "posix_call.cc": ("posix-call", 6),
    "src/storage/codec_punning.cc": ("codec-punning", 2),
    "discarded_status.cc": ("discarded-status", 2),
    "bad_guard.h": ("header-hygiene", 1),
    "nondeterminism.cc": ("nondeterminism", 3),
    "cow_aliasing.cc": ("cow-aliasing", 1),
    "simd_confinement.cc": ("simd-confinement", 5),
    "src/common/orphan.h": ("shipped-reach", 1),
}


def run_linter(root, files=()):
    return subprocess.run(
        [sys.executable, LINTER, "--root", root, *files],
        capture_output=True, text=True)


class FixtureTests(unittest.TestCase):
    def test_every_fixture_is_flagged(self):
        for rel, (rule, count) in FIXTURE_EXPECTATIONS.items():
            with self.subTest(fixture=rel):
                proc = run_linter(FIXTURES, [rel])
                self.assertEqual(
                    proc.returncode, 1,
                    f"{rel}: expected exit 1, got {proc.returncode}\n"
                    f"stdout:\n{proc.stdout}")
                findings = [l for l in proc.stdout.splitlines()
                            if f"[{rule}]" in l]
                self.assertEqual(
                    len(findings), count,
                    f"{rel}: expected {count} [{rule}] findings\n"
                    f"stdout:\n{proc.stdout}")

    def test_no_fixture_has_unexpected_rules(self):
        for rel, (rule, _) in FIXTURE_EXPECTATIONS.items():
            with self.subTest(fixture=rel):
                proc = run_linter(FIXTURES, [rel])
                for line in proc.stdout.splitlines():
                    self.assertIn(f"[{rule}]", line,
                                  f"{rel}: stray finding: {line}")


class TreeTests(unittest.TestCase):
    def test_real_tree_is_clean(self):
        proc = run_linter(REPO_ROOT)
        self.assertEqual(
            proc.returncode, 0,
            f"tree lint failed:\n{proc.stdout}\n{proc.stderr}")

    def test_tree_mode_skips_fixtures(self):
        # The seeded violations live under tools/lint/fixtures and must
        # not leak into the default tree scan.
        proc = run_linter(REPO_ROOT)
        self.assertNotIn("fixtures", proc.stdout)

    def test_exit_code_is_one_not_crash(self):
        proc = run_linter(FIXTURES, ["posix_call.cc"])
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(proc.stderr.count("Traceback"), 0)


if __name__ == "__main__":
    unittest.main()
