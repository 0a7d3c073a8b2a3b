#!/usr/bin/env python3
"""Builds the MATEX benchmark from source and runs one workload.

    python3 perfbench/run.py --workload grid_signoff --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is incremental, so only the first run of a
checkout compiles. The benchmark's stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}; end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Exits nonzero, printing no
result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("grid_signoff", "sweep_campaign", "sharded_resume")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(cmd[:3])} ...")
    return proc.returncode, out


def build(root, build_dir):
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        fail(f"no MATEX sources under {root}; run from a full checkout")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "matex_perfbench", "matex_cli", "-j", "4"])
    for cmd in steps:
        code, out = run_checked(cmd, BUILD_TIMEOUT_S)
        sys.stderr.write(out)
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build(root, build_dir)

    work_dir = build_dir / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "matex_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", str(build_dir / "matex" / "matex_cli"),
           "--work-dir", str(work_dir),
           "--trace-file",
           str(build_dir / f"trace-{args.workload}-{args.seed}.json")]
    try:
        code, out = run_checked(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0:
        sys.stderr.write(out)
        fail(f"matex_perfbench exited {code}")

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out)
        fail("matex_perfbench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(result)}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
