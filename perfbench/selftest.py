"""Tests of the benchmark itself, on tiny workload sizes.

    python3 perfbench/selftest.py

Checks that every workload emits each metric BENCHMARK.json names, with
its unit; that traced and untraced artifacts are byte-identical; and
that corrupted artifacts are reported as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

os.environ["PERFBENCH_TINY"] = "1"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


class Metrics(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    units = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, units)
                    if trace:
                        traced = run.OUT / workload / "traced"
                        untraced = run.OUT / workload / "rep"
                        for cmd in workloads.commands(workload, 3, untraced):
                            self.assertEqual(
                                (traced / cmd.artifact.name).read_bytes(),
                                cmd.artifact.read_bytes(),
                            )


# (artifact index, text replaced, replacement) that breaks an invariant
CORRUPTIONS = {
    "digit-sweep": (0, ",certified,", ",inconclusive,"),
    "gap-algebra": (0, ",0,", ",1,"),
    "frame-certify": (0, ",certified,", ",not_applicable,"),
    "construct-probe": (1, '"value": "9/4"', '"value": "5/2"'),
}


class Gate(unittest.TestCase):
    def setUp(self):
        self.outdir = run.OUT / "selftest"

    def tearDown(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def artifacts(self, workload: str):
        rep = run.repetition(workload, 3, None, run.Clock(0))
        self.assertEqual(rep["verdict"].failed, 0, rep["verdict"].problems)
        shutil.rmtree(self.outdir, ignore_errors=True)
        shutil.copytree(run.OUT / workload / "rep", self.outdir)
        cmds = workloads.commands(workload, 3, self.outdir)
        return cmds, rep["verdict"].digests

    def test_corrupted_artifact_fails(self):
        for workload, (index, old, new) in CORRUPTIONS.items():
            with self.subTest(workload=workload):
                cmds, _ = self.artifacts(workload)
                path = cmds[index].artifact
                text = path.read_text()
                self.assertIn(old, text)
                path.write_text(text.replace(old, new, 1))
                verdict = workloads.check(workload, cmds, [0] * len(cmds), None)
                self.assertGreater(verdict.failed, 0)

    def test_digest_mismatch_fails(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                cmds, digests = self.artifacts(workload)
                self.assertEqual(workloads.check(workload, cmds, [0] * len(cmds),
                                                 digests).failed, 0)
                with open(cmds[-1].artifact, "a") as fh:
                    fh.write("\n")
                verdict = workloads.check(workload, cmds, [0] * len(cmds), digests)
                self.assertGreater(verdict.failed, 0)

    def test_failed_exit_code_fails(self):
        cmds, _ = self.artifacts("digit-sweep")
        verdict = workloads.check("digit-sweep", cmds, [2], None)
        self.assertEqual(verdict.failed, verdict.items)


if __name__ == "__main__":
    unittest.main()
