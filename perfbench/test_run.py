"""Tests of run.py's result check: the last line must name every metric of
the mode with its unit, carry the four result keys, and nothing else.

    cd perfbench && python3 -m unittest test_run
"""

import json
import unittest

import run

EXPECTED = {"throughput_eps": "1/s", "setup_s": "s"}


def line(**overrides):
    result = {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            "throughput_eps": {"value": 1234.5, "unit": "1/s"},
            "setup_s": {"value": 0.25, "unit": "s"},
        },
    }
    result.update(overrides)
    return json.dumps(result)


class CheckResultTest(unittest.TestCase):
    def test_valid_line(self):
        self.assertEqual(run.check_result(line(), EXPECTED), [])

    def test_missing_metric(self):
        text = line(metrics={"setup_s": {"value": 0.25, "unit": "s"}})
        self.assertIn("metric throughput_eps is missing or malformed",
                      run.check_result(text, EXPECTED))

    def test_wrong_unit(self):
        text = line(metrics={"throughput_eps": {"value": 1.0, "unit": "s"},
                             "setup_s": {"value": 0.25, "unit": "s"}})
        self.assertEqual(len(run.check_result(text, EXPECTED)), 1)

    def test_extra_metric(self):
        metrics = json.loads(line())["metrics"]
        metrics["other"] = {"value": 1, "unit": "count"}
        self.assertIn("unexpected metric other",
                      run.check_result(line(metrics=metrics), EXPECTED))

    def test_result_keys_and_counts(self):
        self.assertTrue(run.check_result(line(attempted=0), EXPECTED))
        self.assertTrue(run.check_result(line(failed=1.5), EXPECTED))
        self.assertTrue(run.check_result('{"correct": true}', EXPECTED))
        self.assertTrue(run.check_result("not json", EXPECTED))

    def test_benchmark_json_metric_tables(self):
        # The metric tables in BENCHMARK.json are what every run is checked
        # against; both modes must be non-empty and uniquely named.
        for trace in (False, True):
            expected = run.expected_metrics(trace)
            self.assertTrue(expected)
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
