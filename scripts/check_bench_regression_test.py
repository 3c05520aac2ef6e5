#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py.

Run with:

    python3 scripts/check_bench_regression_test.py

The tests drive main() end to end on temporary log pairs: identical
logs, a current run with brand-new cells (the case that used to fail
with "no cells shared" when a new experiment family landed), a real
throughput regression, and a determinism violation.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression", os.path.join(_HERE, "check_bench_regression.py"))
cbr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cbr)


def record(cell, eps, events=1000, shards=0):
    rec = {"cell": cell, "events_per_sec": eps, "events": events}
    if shards:
        rec["shards"] = shards
    return rec


def log(records, workers=1, shards=0):
    agg = sum(r["events_per_sec"] for r in records) / max(len(records), 1)
    summary = {"events_per_sec_aggregate": agg, "workers": workers}
    if shards:
        summary["shards"] = shards
    return {"records": records, "summary": summary}


class CheckBenchRegressionTest(unittest.TestCase):
    def run_main(self, base, cur, env=None):
        """Write both logs, run main(), return (exit_code, stdout)."""
        with tempfile.TemporaryDirectory() as td:
            bp = os.path.join(td, "base.json")
            cp = os.path.join(td, "cur.json")
            with open(bp, "w") as f:
                json.dump(base, f)
            with open(cp, "w") as f:
                json.dump(cur, f)
            saved = dict(os.environ)
            os.environ.pop("GITHUB_STEP_SUMMARY", None)
            os.environ.pop("BENCH_REGRESSION_THRESHOLD", None)
            os.environ.update(env or {})
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cbr.main(["check", bp, cp])
            finally:
                os.environ.clear()
                os.environ.update(saved)
            return code, out.getvalue()

    def test_identical_logs_pass(self):
        base = log([record("sweep3d|rvma", 1e6), record("sweep3d|rdma", 9e5)])
        code, out = self.run_main(base, base)
        self.assertEqual(code, 0, out)
        self.assertIn("OK: 2 cells", out)

    def test_new_cells_reported_not_failed(self):
        base = log([record("sweep3d|rvma", 1e6)])
        cur = log([record("sweep3d|rvma", 1e6),
                   record("kv|rvma|skew0.99", 8e5),
                   record("kv|rdma|skew0.99", 7e5)])
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("new, no baseline", out)
        self.assertIn("2 new, no baseline", out)
        self.assertNotIn("FAIL", out)

    def test_all_new_cells_pass(self):
        # A brand-new experiment family compared against an unrelated
        # baseline: every current cell is new. This used to fail with
        # "no cells shared".
        base = log([record("sweep3d|rvma", 1e6)])
        cur = log([record("kv|rvma|skew0.99", 8e5)])
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("new, no baseline", out)
        self.assertNotIn("no cells shared", out)

    def test_absent_cells_annotated(self):
        base = log([record("sweep3d|rvma", 1e6), record("halo3d|rvma", 5e5)])
        cur = log([record("sweep3d|rvma", 1e6)])
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("absent from current", out)

    def test_empty_current_fails(self):
        base = log([record("sweep3d|rvma", 1e6)])
        code, out = self.run_main(base, {"records": [], "summary": {}})
        self.assertEqual(code, 1, out)
        self.assertIn("no cells shared", out)

    def test_regression_still_fails(self):
        base = log([record("sweep3d|rvma", 1e6)])
        cur = log([record("sweep3d|rvma", 5e5)])
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_regression_fails_even_with_new_cells(self):
        # New cells must not mask a regression in the shared ones.
        base = log([record("sweep3d|rvma", 1e6)])
        cur = log([record("sweep3d|rvma", 5e5),
                   record("kv|rvma|skew0.99", 9e5)])
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_event_count_change_fails(self):
        base = log([record("sweep3d|rvma", 1e6, events=1000)])
        cur = log([record("sweep3d|rvma", 1e6, events=1001)])
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("determinism violation", out)

    def test_shard_count_mismatch_checks_events_only(self):
        base = log([record("sweep3d|rvma", 1e6, shards=1)], shards=1)
        cur = log([record("sweep3d|rvma", 4e5, shards=4)], shards=4)
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("skipped: shard counts differ", out)
        cur = log([record("sweep3d|rvma", 4e5, events=900, shards=4)],
                  shards=4)
        code, out = self.run_main(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("determinism violation", out)

    def test_threshold_env_override(self):
        base = log([record("sweep3d|rvma", 1e6)])
        cur = log([record("sweep3d|rvma", 7.5e5)])
        code, out = self.run_main(base, cur,
                                  env={"BENCH_REGRESSION_THRESHOLD": "0.5"})
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
