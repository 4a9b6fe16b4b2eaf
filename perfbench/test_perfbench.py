#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/test_perfbench.py

It runs every workload at test size through perfbench/run.py and checks
that every end-to-end metric is printed with its unit, that a deliberately
corrupted receive buffer is counted as a failed op, that the traced mode
prints every per-layer metric, and that the pack workload's virtual-clock
metrics and per-op counts repeat exactly.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pack", "p2p", "halo")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


class EndToEnd(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, res = run(w, 0)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                text = "\n".join(lines[:-1])
                for m in BENCH["end_to_end"]:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertGreater(got["value"], 0, m["name"])
                    self.assertRegex(text, rf"(?m)^{m['name']}\s+\S+ "
                                           rf"{m['unit']}\b")
                # Printed though not gated (see README).
                self.assertRegex(text, r"(?m)^host_us_p99\s+\S+ us  n=\d+ "
                                       r"beyond=\d+")
                self.assertRegex(text, r"(?m)^ops_failed\s+0 count")

    def test_corrupted_receive_buffer_is_a_failed_op(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, res = run(w, 0, extra=("--corrupt-op", "2"))
                self.assertNotEqual(rc, 0)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1, "\n".join(lines))

    def test_pack_virtual_metrics_repeat(self):
        first = run("pack", 0, seed=11)[2]["metrics"]
        second = run("pack", 0, seed=11)[2]["metrics"]
        for name in ("virt_us_p50", "virt_us_p99", "virt_payload_gbps"):
            self.assertEqual(first[name], second[name], name)


class Traced(unittest.TestCase):
    def test_every_layer_metric_printed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, res = run(w, 1)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertTrue(res["correct"])
                names = {m["name"] for m in BENCH["per_layer"]}
                self.assertEqual(set(res["metrics"]), names)
                self.assertGreater(
                    res["metrics"]["tempi.trace.overhead_ratio"]["value"], 0)
                self.assertEqual(
                    res["metrics"]["tempi.trace.dropped_spans"]["value"], 0)

    def test_pack_per_op_counts_repeat(self):
        first = run("pack", 1, seed=5)[2]["metrics"]
        second = run("pack", 1, seed=5)[2]["metrics"]
        for name, m in first.items():
            if m["unit"] == "count" or name.startswith(("tempi.packer.pack_virt",
                                                        "tempi.packer.unpack_virt")):
                self.assertEqual(m["value"], second[name]["value"], name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
