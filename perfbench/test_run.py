"""Self-tests of the benchmark driver script.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The metric-name tests run the benchmark itself (about half a minute,
most of it the release build on a cold target directory).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def last_json_line(args):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=REPO,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class DeclaredNames(unittest.TestCase):
    def test_declared_end_to_end_metrics_match_the_script(self):
        declared = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        self.assertEqual(declared, run.END_TO_END)

    def test_declared_per_layer_metrics_match_the_script(self):
        declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
        self.assertEqual(declared, run.per_layer_units())

    def test_declared_workloads_match_the_script(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)


class PrintedNames(unittest.TestCase):
    def check(self, trace, section):
        out = last_json_line(["--workload", "anon-swap", "--seed", "5", "--seconds", "1",
                              "--trace", str(trace)])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        printed = {k: v["unit"] for k, v in out["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(printed, declared)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check(1, "per_layer")


class DigestGate(unittest.TestCase):
    def rep(self, seed, digest, traced=False, attempted=1, failed=0):
        return {"seed": seed, "digest": digest, "traced": traced, "attempted": attempted,
                "failed": failed}

    def test_matching_digests_pass(self):
        reps = [self.rep(1, "aa"), self.rep(7, "bb"), self.rep(7, "bb", traced=True)]
        self.assertEqual(run.check_digests(reps), ([], set()))
        self.assertEqual(run.failed_operations(reps, set()), 0)

    def test_a_perturbed_digest_fails_its_operations(self):
        reps = [self.rep(7, "bb"), self.rep(7, "bb"), self.rep(7, "cc", traced=True)]
        failures, mismatched = run.check_digests(reps)
        self.assertEqual(len(failures), 1)
        self.assertIn("traced run digest cc", failures[0])
        self.assertEqual(run.failed_operations(reps, mismatched), 1)

    def test_an_operation_that_fails_several_checks_counts_once(self):
        # A suite repetition of 21 experiments with 2 failed experiments
        # and a digest mismatch on top fails its 21 operations, not 23.
        reps = [self.rep(7, "bb", attempted=21), self.rep(7, "cc", attempted=21, failed=2),
                self.rep(7, "bb", attempted=21, failed=2), self.rep(1, "dd", failed=1)]
        failures, mismatched = run.check_digests(reps)
        self.assertEqual(mismatched, {1})
        self.assertEqual(run.failed_operations(reps, mismatched), 21 + 2 + 1)


class Moves(unittest.TestCase):
    def test_every_per_layer_metric_names_what_it_moves(self):
        end_to_end = {name for name, _ in run.END_TO_END}
        for m in SPEC["per_layer"]:
            moved = run.moves(m["name"])
            self.assertLessEqual(set(moved["metrics"]), end_to_end, m["name"])
            self.assertLessEqual(set(moved["workloads"]), set(run.WORKLOADS), m["name"])
            if m["name"] != "trace_overhead_frac":
                self.assertTrue(moved["metrics"] and moved["workloads"], m["name"])

    def test_set_up_layers_move_set_up_time(self):
        self.assertEqual(run.moves("core.new_ms")["metrics"], ["setup_s"])
        self.assertEqual(run.moves("mapper.mapped_reads")["workloads"], ["file-mapper"])


if __name__ == "__main__":
    unittest.main()
