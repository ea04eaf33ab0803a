"""Self-tests of the benchmark harness.

Usage (from the repository root): python3 bench/selftest.py

Takes about two minutes: it runs untraced passes of every workload on two
seeds and traced passes twice on one seed.
"""

import json
import sys
import unittest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

SEED_A, SEED_B = 1, 2
LAURENT = ("laurent.mul", "laurent.divide_exact", "laurent.compose",
           "laurent.evaluate", "laurent.key")


class SeededInputs(unittest.TestCase):
    def test_two_seeds_share_invariants_and_recorded_digests(self):
        digests = run.load_digests()
        for workload in workloads.CALLS:
            with self.subTest(workload=workload):
                self.assertIn(workload, digests)
                outputs = []
                for seed in (SEED_A, SEED_B):
                    report = run.run_pass(workload, seed, trace=False)
                    _, errors = run.check_pass(workload, report, digests)
                    self.assertEqual(errors, [])
                    outputs.append([stdout for _, _, stdout in report["calls"]])
                self.assertEqual(outputs[0], outputs[1])

    def test_seeds_change_the_inputs(self):
        for workload in workloads.CALLS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.make_calls(workload, SEED_A),
                                 workloads.make_calls(workload, SEED_A))
                self.assertNotEqual(workloads.make_calls(workload, SEED_A),
                                    workloads.make_calls(workload, SEED_B))


class CorrectnessGate(unittest.TestCase):
    def test_wrong_exit_code_or_stdout_counts_as_a_failure(self):
        good = json.dumps({"clusters": 833, "variables": 42, "mutations": 4998,
                           "exhausted": True, "max_depth": 11})
        wrong = good.replace("833", "832")
        report = {"calls": [["explore E6", 0, good]]}
        self.assertEqual(run.check_pass("census-e6", report, {})[1], [])
        for rc, stdout in ((1, good), (0, wrong), (0, "Traceback"), (0, "[]")):
            report = {"calls": [["explore E6", rc, stdout]]}
            units, errors = run.check_pass("census-e6", report, {})
            self.assertEqual((units, len(errors)), (0, 1))
        digests = {"census-e6": {"explore E6": workloads.digest(good + " ")}}
        report = {"calls": [["explore E6", 0, good]]}
        self.assertEqual(len(run.check_pass("census-e6", report, digests)[1]), 1)


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.layers = {
            workload: [run.layer_metrics(run.run_pass(workload, SEED_A, trace=True))
                       for _ in range(2)]
            for workload in workloads.CALLS
        }

    def test_call_counts_repeat_exactly(self):
        for workload, (first, second) in self.layers.items():
            counts = [k for k in first if k.endswith((".calls", ".terms_out", ".tries"))]
            with self.subTest(workload=workload):
                self.assertEqual({k: first[k] for k in counts},
                                 {k: second[k] for k in counts})

    def test_predicted_zero_counts(self):
        mutation_class = self.layers["mutation-class"][0]
        for name in LAURENT:
            self.assertEqual(mutation_class[f"{name}.calls"], 0, name)
        for workload in ("census-e6", "cell-numerics"):
            self.assertEqual(self.layers[workload][0]["graphs.canonical_key.calls"], 0)
        self.assertGreater(mutation_class["graphs.canonical_key.calls"], 0)
        self.assertGreater(self.layers["census-e6"][0]["laurent.mul.calls"], 0)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        reported = dict(self.layers["census-e6"][0], **{"trace.overhead_s": 0.0})
        self.assertEqual(per_layer, {k: run.unit_of(k) for k in reported})
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)


if __name__ == "__main__":
    unittest.main(verbosity=2)
