#!/usr/bin/env python3
"""Builds the streamq benchmark program and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
streamq library and the benchmark program (Release) into .bench_build/; later
runs only check that the build is current. The program's output is passed
through; its last line is one JSON object with the keys correct, attempted,
failed and metrics, which this script checks against BENCHMARK.json (every
metric of the mode, by name and unit, and nothing else) before printing it as
the last line.
A traced run (--trace 1) writes its spans to .bench_build/traces/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
PROGRAM = BUILD_DIR / "streamq_perfbench"
SELFTEST = BUILD_DIR / "perfbench_selftest"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the program; output goes to build.log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("streamq sources not found at %s; run from a full checkout" % ROOT)
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "streamq_perfbench", "perfbench_selftest"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see %s" % log_path)
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build step failed: %s" % " ".join(step))


def source_fingerprint():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the program is built from (a checkout need not be one)."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "git:%s sources-sha256:%s" % (commit, digest.hexdigest()[:16])


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def check_result(line, expected):
    """Returns the problems with a result line (empty when it is valid)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: %r" % line[:200]]
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name, unit in expected.items():
        entry = metrics.get(name)
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append("metric %s is missing or malformed" % name)
        elif entry["unit"] != unit:
            problems.append("metric %s has unit %r, expected %r"
                            % (name, entry["unit"], unit))
        elif not isinstance(entry["value"], (int, float)) or \
                isinstance(entry["value"], bool):
            problems.append("metric %s has no numeric value" % name)
    for name in metrics:
        if name not in expected:
            problems.append("unexpected metric %s" % name)
    return problems


def run(args):
    build()
    traces = BUILD_DIR / "traces"
    traces.mkdir(exist_ok=True)
    command = [str(PROGRAM), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(traces),
               "--commit", source_fingerprint()]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s"
             % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("streamq_perfbench exited with code %d" % proc.returncode)
    problems = check_result(lines[-1], expected_metrics(args.trace == 1))
    if problems:
        fail("; ".join(problems))
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)


def self_test():
    build()
    code = subprocess.run([str(SELFTEST)], cwd=ROOT).returncode
    if code != 0:
        fail("perfbench_selftest failed")
    code = subprocess.run(
        [sys.executable, "-m", "unittest", "-q", "test_run"],
        cwd=BENCH_DIR).returncode
    if code != 0:
        fail("test_run failed")
    print("all perfbench self-tests passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    run(args)


if __name__ == "__main__":
    main()
