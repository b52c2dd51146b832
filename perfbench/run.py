#!/usr/bin/env python3
"""End-to-end benchmark of FlowKV: NEXMark queries on embedded and remote state.

Usage (from the repository root):

    python3 perfbench/run.py --workload <q7|q11-median|q11|q5> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/flowkv_perf (and the FlowKV libraries under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, on first use,
then runs one measurement. All scratch files go under that build directory.

The last line of standard output is one JSON object:
    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
with no probes installed; with --trace 1 they are its per_layer list.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("q7", "q11-median", "q11", "q5")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"FlowKV sources not found in {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "flowkv_perf"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "flowkv_perf")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(doc, trace):
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(doc)}")
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        fail("no trial was attempted")
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != expected_metrics(trace):
        fail(f"metrics {got} do not match BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = dict(os.environ, TMPDIR=work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"flowkv_perf did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"flowkv_perf exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("flowkv_perf printed no result")
    doc = json.loads(lines[-1])
    check_result(doc, args.trace)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
