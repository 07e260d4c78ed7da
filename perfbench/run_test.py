#!/usr/bin/env python3
"""Tests of run.py's tracing-overhead reporting.

    python3 perfbench/run_test.py
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def metrics(**values):
    return {name: {"value": value, "unit": "ms"} for name, value in values.items()}


class TracingOverheadTest(unittest.TestCase):
    def test_delta_against_the_untraced_median(self):
        untraced = [metrics(op_ms_p50=1.0), metrics(op_ms_p50=3.0), metrics(op_ms_p50=2.0)]
        overhead = run.tracing_overhead(untraced, metrics(op_ms_p50=2.5, setup_s=1.0))
        self.assertEqual(overhead["op_ms_p50"],
                         {"traced": 2.5, "untraced_median": 2.0, "delta": 0.5,
                          "untraced_runs": 3})
        self.assertNotIn("setup_s", overhead)  # No untraced value to compare with.

    def test_only_runs_of_the_same_binary_are_compared(self):
        with tempfile.TemporaryDirectory() as results:
            def write(name, stored):
                with open(os.path.join(results, name), "w") as f:
                    json.dump(stored, f)

            write("live_mixed-seed1-trace0.json", {"binary": "aa", "metrics": metrics(x=1.0)})
            write("live_mixed-seed2-trace0.json", {"binary": "bb", "metrics": metrics(x=9.0)})
            write("live_mixed-seed3-trace1.json", {"binary": "aa", "metrics": metrics(x=5.0)})
            write("query_fleet-seed1-trace0.json", {"binary": "aa", "metrics": metrics(x=7.0)})
            write("live_mixed-seed4-trace0.json", metrics(x=8.0))  # Stored without a hash.
            self.assertEqual(run.stored_untraced(results, "live_mixed", "aa"), [metrics(x=1.0)])
            self.assertEqual(run.stored_untraced(results, "live_mixed", "cc"), [])


if __name__ == "__main__":
    unittest.main()
