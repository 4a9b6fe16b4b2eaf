#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload pack|p2p|halo --seed N \
        --seconds S --trace 0|1 [--tiny] [--corrupt-op K]

Run it from the repository root. It builds perfbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs the measuring program with every TEMPI_* knob at its
default. With --trace 0 it prints the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. Every op is checked against the system
MPI oracle; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
no op failed.

--tiny and --corrupt-op are for perfbench/test_perfbench.py: test-sized
inputs, and a deliberately corrupted receive buffer on timed op K.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
WORKLOADS = ("pack", "p2p", "halo")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build the measuring program; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs], check=True,
                   stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(out_dir, "perfbench")


def samples(metric):
    """Sample counts printed next to a percentile."""
    if "samples" not in metric:
        return ""
    text = f"  n={metric['samples']}"
    if "beyond" in metric:
        text += f" beyond={metric['beyond']}"
    return text


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-op", type=int, default=-1)
    args = ap.parse_args()

    declared = declared_metrics(args.trace)
    out_dir = build_dir()
    try:
        exe = build(out_dir)
    except (subprocess.SubprocessError, OSError) as e:
        log("perfbench: build failed:", e)
        return 1

    # Default knobs: the library reads TEMPI_* at install, so none reach it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TEMPI_")}
    stripped = sorted(k for k in os.environ if k.startswith("TEMPI_"))
    # An empty working directory: no stray tempi_perf.txt can change the
    # model the library loads.
    work = os.path.join(out_dir, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_op >= 0:
        cmd += ["--corrupt-op", str(args.corrupt_op)]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                              timeout=2 * args.seconds + 90, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: the measuring program did not finish in time")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: the measuring program exited with {proc.returncode}")
        return 1
    doc = json.loads(lines[-1])

    ctx = doc["context"]
    got = doc["metrics"]
    print(f"workload {args.workload}  seed {ctx['seed']}  trace {args.trace}  "
          f"seconds {ctx['seconds']}  tiny {ctx['tiny']}")
    print(f"knobs {ctx['knobs']}  (stripped from the environment: "
          f"{', '.join(stripped) or 'none'})  model {ctx['model_calibration']}")
    print(f"nproc {ctx['nproc']}  llc_bytes {ctx['llc_bytes']}  build "
          f"{ctx['build_type']}  rank_threads {ctx['rank_threads']}  "
          f"sessions {ctx['sessions']}  timed_ops {ctx['timed_ops']}  "
          f"host_windows {ctx['host_windows']}  "
          f"host_wall_us_p50 {ctx['host_wall_us_p50']:.6g}")
    llc = ctx["llc_bytes"] or 1
    print(f"working_set_bytes {ctx['working_set_bytes']:.0f} "
          f"({ctx['working_set_bytes'] / llc:.3f} x llc)  "
          f"computed_bytes_per_op {ctx['computed_bytes_per_op']:.0f} (computed)")

    result = {}
    for m in declared:
        name = m["name"]
        if name not in got:
            log(f"perfbench: metric {name} was not measured")
            return 1
        if got[name]["unit"] != m["unit"]:
            log(f"perfbench: metric {name} is in {got[name]['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
            return 1
        value = got[name]["value"]
        print(f"{name:44s} {value:>16.6g} {m['unit']}{samples(got[name])}")
        result[name] = {"value": value, "unit": m["unit"]}
    # Measured and printed, but not gated by BENCHMARK.json (see README).
    for name in sorted(set(got) - {m["name"] for m in declared}):
        print(f"{name:44s} {got[name]['value']:>16.6g} {got[name]['unit']}"
              f"{samples(got[name])}  (not in BENCHMARK.json)")
    print(f"{'ops_failed':44s} {doc['failed']:>16d} count  "
          f"(of ops_attempted {doc['attempted']})")
    for what in doc["failures"]:
        print(f"  failure: {what}")

    print(json.dumps({"correct": doc["failed"] == 0,
                      "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": result}))
    return 0 if doc["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
