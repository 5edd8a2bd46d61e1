#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The driver (perfbench/src) is built with
CMake against the repository's library, into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Its human-readable lines are passed
through; the last line printed is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds the end_to_end metrics
named in BENCHMARK.json (--trace 0) or the per_layer ones (--trace 1).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sync_churn", "es_quorum_faults", "shard_keyed", "schedule_search"]
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 140  # past --seconds: warm-up, equivalence and checker runs


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    for needed in ("CMakeLists.txt", os.path.join("src", "harness", "experiment.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the repository's sources are missing (no %s); run from a full checkout" % needed)
    out = build_dir()
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, target)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=30)
    return proc.stdout.decode().strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the reduced-size self-test instead")
    args = parser.parse_args()

    if args.selftest:
        selftest = build("perfbench_selftest")
        return subprocess.run([selftest], timeout=RUN_SLACK_S).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    driver = build("perfbench_driver")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=args.seconds + RUN_SLACK_S)
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("driver exited with code %d" % proc.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    measured = result["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail("metric %s missing from the driver's output" % m["name"])
        got = measured[m["name"]]
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
