"""Tests for run.py's contract checks: the BENCHMARK.json schema, the
metric-name grammar, the result-line validator, and the consistency of
spec.json with BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE.parent / "spec.json").read_text())


def errors_after(mutate):
    doc = copy.deepcopy(BENCH)
    mutate(doc)
    return run.schema_errors(doc)


class SchemaTest(unittest.TestCase):
    def test_checked_in_file_is_valid(self):
        raw = (ROOT / "BENCHMARK.json").read_bytes()
        self.assertEqual(run.schema_errors(BENCH, len(raw)), [])

    def test_top_level_keys_are_exact(self):
        self.assertTrue(errors_after(lambda d: d.update(extra=1)))
        self.assertTrue(errors_after(lambda d: d.pop("per_layer")))

    def test_paths_and_command_stay_inside_the_checkout(self):
        self.assertTrue(errors_after(lambda d: d.update(paths=["/abs"])))
        self.assertTrue(errors_after(lambda d: d.update(paths=["a/../b"])))
        self.assertTrue(errors_after(lambda d: d.update(paths=[])))
        self.assertTrue(errors_after(
            lambda d: d.update(command=["python3", "../x.py"])))

    def test_run_seconds_is_a_whole_number_in_range(self):
        for bad in (0, 61, 2.5, True, "10"):
            self.assertTrue(errors_after(lambda d: d.update(run_seconds=bad)),
                            bad)

    def test_workload_entries(self):
        self.assertTrue(errors_after(lambda d: d["workloads"].pop()
                                     and d["workloads"].pop()))
        self.assertTrue(errors_after(
            lambda d: d["workloads"][0].update(why="two\nlines")))
        self.assertTrue(errors_after(
            lambda d: d["workloads"][0].update(why="x" * 201)))
        self.assertTrue(errors_after(
            lambda d: d["workloads"][0].update(seed=1)))

    def test_bounds(self):
        self.assertTrue(errors_after(
            lambda d: d["end_to_end"][0].update(bound=0.3)))
        self.assertTrue(errors_after(
            lambda d: d["end_to_end"][0].update(bound=0)))
        self.assertTrue(errors_after(
            lambda d: d["end_to_end"][0].pop("bound")))
        self.assertTrue(errors_after(
            lambda d: d["per_layer"][0].update(bound=0.1)))

    def test_setup_s_is_required_with_the_largest_bound(self):
        def drop(d):
            d["end_to_end"] = [m for m in d["end_to_end"]
                               if m["name"] != "setup_s"]
        self.assertTrue(errors_after(drop))

        def shrink(d):
            for m in d["end_to_end"]:
                if m["name"] == "setup_s":
                    m["bound"] = 0.01
        self.assertTrue(errors_after(shrink))

    def test_units_and_better(self):
        self.assertTrue(errors_after(
            lambda d: d["per_layer"][0].update(unit="sec onds")))
        self.assertTrue(errors_after(
            lambda d: d["per_layer"][0].update(unit="x" * 17)))
        self.assertTrue(errors_after(
            lambda d: d["per_layer"][0].update(better="up")))

    def test_names_are_unique(self):
        self.assertTrue(errors_after(
            lambda d: d["per_layer"].append(dict(d["per_layer"][0]))))

    def test_file_size_limit(self):
        self.assertTrue(run.schema_errors(BENCH, 64 * 1024 + 1))


class NameGrammarTest(unittest.TestCase):
    def test_grammar(self):
        for ok in ("jobs_per_s", "sim.query_ns_p99", "exec.pool.task_ms_p50",
                   "9lives", "a-b", "x" * 64):
            self.assertTrue(run.NAME_RE.match(ok), ok)
        for bad in ("", ".x", "_x", "-x", "a b", "a/b", "x:y", "x" * 65):
            self.assertFalse(run.NAME_RE.match(bad), bad)

    def test_every_declared_name_follows_it(self):
        for key in ("workloads", "end_to_end", "per_layer"):
            for item in BENCH[key]:
                self.assertTrue(run.NAME_RE.match(item["name"]), item["name"])


class ResultTest(unittest.TestCase):
    EXPECTED = [("jobs_per_s", "jobs/s"), ("setup_s", "s")]

    def good(self):
        return {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"jobs_per_s": {"value": 1.5, "unit": "jobs/s"},
                            "setup_s": {"value": 0.25, "unit": "s"}}}

    def test_good_result(self):
        self.assertEqual(run.result_errors(self.good(), self.EXPECTED), [])

    def test_missing_extra_and_mislabelled_metrics(self):
        r = self.good()
        del r["metrics"]["setup_s"]
        self.assertTrue(run.result_errors(r, self.EXPECTED))
        r = self.good()
        r["metrics"]["other"] = {"value": 1, "unit": "s"}
        self.assertTrue(run.result_errors(r, self.EXPECTED))
        r = self.good()
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.result_errors(r, self.EXPECTED))

    def test_values_and_counts(self):
        r = self.good()
        r["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(run.result_errors(r, self.EXPECTED))
        r = self.good()
        r["attempted"] = 0
        self.assertTrue(run.result_errors(r, self.EXPECTED))
        r = self.good()
        r["failed"] = 1.5
        self.assertTrue(run.result_errors(r, self.EXPECTED))
        r = self.good()
        r["note"] = "x"
        self.assertTrue(run.result_errors(r, self.EXPECTED))


class SpecTest(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual(sorted(SPEC["workloads"]),
                         sorted(w["name"] for w in BENCH["workloads"]))

    def test_every_per_layer_metric_has_its_effect_recorded(self):
        covered = [m for row in SPEC["layer_effects"] for m in row["metrics"]]
        self.assertEqual(sorted(covered),
                         sorted(m["name"] for m in BENCH["per_layer"]))
        names = {w["name"] for w in BENCH["workloads"]}
        for row in SPEC["layer_effects"]:
            self.assertTrue(set(row["on"]) <= names, row)

    def test_every_end_to_end_metric_is_described(self):
        for m in BENCH["end_to_end"]:
            self.assertIn(m["name"], SPEC["end_to_end"])


if __name__ == "__main__":
    unittest.main()
