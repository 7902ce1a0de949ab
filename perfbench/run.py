#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; cmake output goes to stderr. The benchmark binary prints its
log and, as the last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is the binary's, or 1 when the
build fails (for instance when the simulator sources are missing).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet_burst", "paper_sweep", "real_reduction", "chaos_failover")
RUN_TIMEOUT_S = 175


def build(root: Path, build_dir: Path) -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(root, build_dir):
        return 1

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", str(build_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
