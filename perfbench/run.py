#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree. The first call builds libnab from ./src
together with nab_bench.cpp into $CARGO_TARGET_DIR (default .bench_build);
later calls reuse that build. A run prints a header line, then as its last
line one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. It exits non-zero on any correctness failure and on
any metric that is missing, NaN or in another unit than BENCHMARK.json says.

--smoke runs every workload at its smallest length in both trace modes and
checks the metrics the same way.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds nab_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hpp")):
        fail("no library sources under src/ next to perfbench/ - nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", build_dir, "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(step), 3)
    return os.path.join(build_dir, "nab_bench")


def source_identity():
    """The git commit when there is one, and a digest of the sources either way."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def run_nab_bench(binary, workload, seed, seconds, trace, smoke=False):
    """Runs nab_bench once; returns (header dict, result dict, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 4)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("nab_bench printed no result (exit %d)" % proc.returncode, 5)
    return json.loads(lines[0])["header"], json.loads(lines[-1]), proc.returncode


def metric_problems(result, wanted):
    """Names every expected metric that is missing, NaN or in the wrong unit."""
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(m["name"] + ": missing")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(m["name"] + ": not a finite number")
        elif got.get("unit") != m["unit"]:
            problems.append("%s: unit %r, expected %r" % (m["name"], got.get("unit"), m["unit"]))
    return problems


def measured(spec, binary, workload, seed, seconds, trace, smoke=False):
    """One checked run: the result restricted to the mode's metric list."""
    header, result, code = run_nab_bench(binary, workload, seed, seconds, trace, smoke)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = metric_problems(result, wanted)
    for p in problems:
        print("perfbench: metric " + p, file=sys.stderr)
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted
                         if m["name"] in result["metrics"]}
    if problems or code != 0 or not header.get("build_valid"):
        result["correct"] = False
    return header, result


def smoke(spec, binary):
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, result = measured(spec, binary, w["name"], 1, 1, trace, smoke=True)
            status = "ok" if result["correct"] else "FAILED"
            print("smoke %-14s trace=%d %s (%d metrics, %d attempted)"
                  % (w["name"], trace, status, len(result["metrics"]), result["attempted"]))
            bad += 0 if result["correct"] else 1
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    binary = build()
    spec = load_spec()
    if args.smoke:
        sys.exit(1 if smoke(spec, binary) else 0)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    header, result = measured(spec, binary, args.workload, args.seed, args.seconds,
                              args.trace)
    header.update(source_identity())
    print(json.dumps({"header": header}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
